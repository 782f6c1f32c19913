#pragma once
// util::ThreadPool: a small work-stealing thread pool for the experiment
// harness. The Table-1 grid is embarrassingly parallel across trials (each
// trial owns a fresh NetworkSim, Rng and SelectionContext), so the pool only
// has to move closures around cheaply and stay out of the way.
//
// Design:
//   - One deque per worker. A worker pops from the back of its own deque
//     (most recently pushed: cache-warm, and nested fan-outs drain their own
//     children first) and steals from the front of other workers' deques
//     (oldest job: the end a sibling is least likely to touch next).
//   - Submissions from a worker thread land on that worker's own deque;
//     external submissions round-robin across deques.
//   - Waiters help. parallel_for() executes pending jobs on the calling
//     thread while it waits, so nested parallel_for (run_table1 dispatching
//     cells, each cell dispatching trials) cannot deadlock, and a pool with
//     zero workers degenerates to inline serial execution in submission
//     order — the deterministic reference mode used by the tests.
//
// Determinism contract: the pool schedules; it never reorders results.
// Callers that need reproducible output must write results into
// index-addressed slots and reduce in index order (see exp::run_cell).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace netsel::util {

class ThreadPool {
 public:
  /// threads < 0: one worker per hardware thread. threads == 0: no worker
  /// threads at all — every job runs inline on the thread that waits (the
  /// serial reference mode). threads > 0: exactly that many workers.
  explicit ThreadPool(int threads = -1);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Enqueue a job for asynchronous execution.
  void submit(std::function<void()> job);

  /// Pop one pending job (own deque first, then steal) and run it on the
  /// calling thread. Returns false if no job was ready.
  bool try_run_one();

  /// Convenience: submit a callable and get its result as a future.
  template <class F>
  auto async(F f) -> std::future<decltype(f())> {
    using R = decltype(f());
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(f));
    std::future<R> fut = task->get_future();
    submit([task] { (*task)(); });
    return fut;
  }

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> jobs;
  };

  void worker_loop(std::size_t index);
  /// Take one job: queues_[home] first (back if own_lifo, front otherwise),
  /// else steal from the front of the others. Decrements pending_ on
  /// success.
  bool take(std::size_t home, bool own_lifo, std::function<void()>& out);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> threads_;
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_{0};  // round-robin cursor for external submits
  std::atomic<bool> stop_{false};
};

/// Run body(0) .. body(n-1) on the pool and block until all have finished.
/// The calling thread helps execute pending jobs while it waits (nested
/// calls and zero-worker pools therefore make progress). If any body throws,
/// the exception thrown by the lowest index is rethrown after all bodies
/// have completed — deterministic regardless of scheduling.
template <class F>
void parallel_for(ThreadPool& pool, std::size_t n, F&& body) {
  if (n == 0) return;
  struct Shared {
    std::atomic<std::size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  // Jobs hold the shared block by value: the last job may still be inside
  // the notify when the waiter returns, so the block must outlive the frame.
  auto shared = std::make_shared<Shared>();
  std::vector<std::exception_ptr> errors(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([shared, &errors, &body, i, n] {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      if (shared->done.fetch_add(1) + 1 == n) {
        std::lock_guard<std::mutex> lock(shared->mu);
        shared->cv.notify_all();
      }
    });
  }
  while (shared->done.load() < n) {
    if (!pool.try_run_one()) {
      std::unique_lock<std::mutex> lock(shared->mu);
      shared->cv.wait_for(lock, std::chrono::milliseconds(1),
                          [&] { return shared->done.load() >= n; });
    }
  }
  for (std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace netsel::util
