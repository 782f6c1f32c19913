#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace netsel::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInlineInIndexOrder) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0);
  std::vector<std::size_t> order;
  std::thread::id caller = std::this_thread::get_id();
  parallel_for(pool, 8, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, DefaultUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.workers(), 1);
}

TEST(ThreadPool, NestedParallelForMakesProgress) {
  // A body that calls parallel_for on its own pool: the inner call runs
  // inline on the body's thread, in index order, so a 1-worker pool whose
  // only worker is inside a body cannot deadlock.
  ThreadPool pool(1);
  std::atomic<int> total{0};
  parallel_for(pool, 3, [&](std::size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    std::size_t expect = 0;
    parallel_for(pool, 40, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), outer);
      EXPECT_EQ(i, expect++);
      total.fetch_add(1);
    });
  });
  EXPECT_EQ(total.load(), 3 * 40);
}

TEST(ThreadPool, ConcurrentCallersTakeTurns) {
  // Two outside threads share one pool: each call still runs its own range
  // exactly once.
  ThreadPool pool(3);
  std::atomic<long> sums[2] = {0, 0};
  auto caller = [&](int c) {
    for (int round = 0; round < 200; ++round)
      parallel_for(pool, 17, [&](std::size_t i) {
        sums[c].fetch_add(static_cast<long>(i) + 1);
      });
  };
  std::thread a(caller, 0), b(caller, 1);
  a.join();
  b.join();
  EXPECT_EQ(sums[0].load(), 200L * (17L * 18L / 2));
  EXPECT_EQ(sums[1].load(), 200L * (17L * 18L / 2));
}

TEST(ThreadPool, DestroyRightAfterWorkNeverHangs) {
  // Workers go back to sleep as the pool is destroyed: the stop signal must
  // reach a worker caught between its wait predicate and its sleep, or the
  // join in the destructor blocks forever. Oversubscribed on purpose, to
  // widen that window.
  for (int round = 0; round < 3000; ++round) {
    ThreadPool pool(8);
    parallel_for(pool, 8, [](std::size_t) {});
  }
}

TEST(ThreadPool, RethrowsLowestIndexException) {
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    try {
      parallel_for(pool, 16, [&](std::size_t i) {
        if (i == 3 || i == 11)
          throw std::logic_error("index " + std::to_string(i));
      });
      FAIL() << "expected logic_error";
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "index 3");
    }
  }
}

TEST(ThreadPool, RemainingBodiesStillRunAfterException) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(32);
  EXPECT_THROW(parallel_for(pool, hits.size(),
                            [&](std::size_t i) {
                              hits[i].fetch_add(1);
                              if (i % 7 == 0) throw std::runtime_error("x");
                            }),
               std::runtime_error);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, OneSlowBodyDoesNotHoldUpTheRest) {
  // Body 0 waits until every other body has finished: the others must be
  // claimed by the remaining threads while it blocks. (The wait gives up
  // after 30 s, so a regression fails instead of hanging.)
  ThreadPool pool(4);
  std::atomic<int> done{0};
  parallel_for(pool, 64, [&](std::size_t i) {
    if (i == 0) {
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (done.load() < 63 && std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      EXPECT_EQ(done.load(), 63);
    }
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, ManyRoundsStress) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 50; ++round) {
    parallel_for(pool, 100,
                 [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  }
  EXPECT_EQ(sum.load(), 50L * (99L * 100L / 2));
}

}  // namespace
}  // namespace netsel::util
