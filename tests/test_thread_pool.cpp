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

TEST(ThreadPool, ZeroWorkersRunsInlineInSubmissionOrder) {
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
  // Cells dispatching trials on the same pool: the outer waiters must help
  // run inner jobs or a 1-worker pool would deadlock.
  ThreadPool pool(1);
  std::atomic<int> total{0};
  parallel_for(pool, 3, [&](std::size_t) {
    parallel_for(pool, 40, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 3 * 40);
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

TEST(ThreadPool, AsyncReturnsFutureValue) {
  ThreadPool pool(2);
  auto f = pool.async([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
  auto g = pool.async([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(g.get(), std::runtime_error);
}

TEST(ThreadPool, UnevenJobsAreStolen) {
  // One long job plus many short ones: with stealing, the short jobs finish
  // on other workers while the long one runs, so total wall clock stays
  // well under the serial sum.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  parallel_for(pool, 64, [&](std::size_t i) {
    if (i == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
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
