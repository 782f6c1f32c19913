#pragma once
// util::ThreadPool: a fixed team of worker threads that runs one
// parallel_for at a time. The experiment grids hand it one flat list of
// independent trials, and the scheduler its placement lanes.
//
// The caller and the workers claim indices from one atomic counter until
// the range is exhausted, so one slow body never holds up the rest. A
// parallel_for called from inside a body runs inline on that thread, and
// concurrent callers from outside the pool take turns.
//
// Determinism contract: the pool schedules; it never reorders results.
// Callers that need reproducible output must write results into
// index-addressed slots and reduce in index order (see exp::run_cells).

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace netsel::util {

class ThreadPool {
 public:
  /// threads < 0: one worker per hardware thread. threads == 0: no worker
  /// threads; every body runs on the caller in index order (the serial
  /// reference mode). threads > 0: exactly that many workers.
  explicit ThreadPool(int threads = -1);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

 private:
  friend void parallel_for(ThreadPool& pool, std::size_t n,
                           const std::function<void(std::size_t)>& body);
  struct Call;
  void worker_loop();

  std::mutex turn_;  // held by the external call in progress
  std::mutex mu_;    // guards the fields below, up to threads_
  std::condition_variable wake_, done_;
  Call* call_ = nullptr;     // the call in progress
  std::size_t seats_ = 0;    // workers that may still join it
  std::size_t running_ = 0;  // workers inside it
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: the workers use all of the above
};

/// Run body(0) .. body(n-1) on the pool and block until all have finished.
/// Every body runs even when one throws; the exception thrown by the lowest
/// index is then rethrown, whatever the scheduling.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace netsel::util
