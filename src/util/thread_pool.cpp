#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "obs/metrics.hpp"

namespace netsel::util {

namespace {
// The pool whose bodies the current thread runs, if any: a nested
// parallel_for on it runs inline instead of waiting for itself.
thread_local const ThreadPool* tl_inside = nullptr;

obs::Counter& tasks_run_counter() {
  static obs::Counter& c = obs::Registry::global().counter("pool.tasks_run");
  return c;
}
}  // namespace

/// One parallel_for: its threads claim indices from `next` until none is
/// left, and the exception of the lowest throwing index is kept.
struct ThreadPool::Call {
  const std::function<void(std::size_t)>& body;
  const std::size_t n;
  std::atomic<std::size_t> next{0};
  std::mutex mu{};
  std::size_t error_index = 0;
  std::exception_ptr error{};

  void drain() {
    for (std::size_t i = next++; i < n; i = next++) {
      tasks_run_counter().inc();
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error || i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
      }
    }
  }
};

ThreadPool::ThreadPool(int threads) {
  tasks_run_counter();  // registered (and exported, possibly at 0) with a pool
  const std::size_t n =
      threads >= 0 ? static_cast<std::size_t>(threads)
                   : std::max(1u, std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < n; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  tl_inside = this;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || seats_ > 0; });
    if (stop_) return;
    --seats_;
    ++running_;
    Call& call = *call_;
    lock.unlock();
    call.drain();
    lock.lock();
    if (--running_ == 0) done_.notify_one();
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  ThreadPool::Call call{body, n};
  if (tl_inside == &pool) {
    call.drain();  // nested: inline, in index order
  } else {
    std::lock_guard<std::mutex> turn(pool.turn_);
    {
      std::lock_guard<std::mutex> lock(pool.mu_);
      pool.call_ = &call;
      pool.seats_ = n == 0 ? 0 : std::min(pool.threads_.size(), n - 1);
    }
    pool.wake_.notify_all();
    const ThreadPool* outer = std::exchange(tl_inside, &pool);
    call.drain();
    tl_inside = outer;
    // Every index is claimed by now: close the call to workers that have
    // not joined it, and wait out the bodies of those that have.
    std::unique_lock<std::mutex> lock(pool.mu_);
    pool.seats_ = 0;
    pool.done_.wait(lock, [&pool] { return pool.running_ == 0; });
  }
  if (call.error) std::rethrow_exception(call.error);
}

}  // namespace netsel::util
