#include "util/thread_pool.hpp"

#include "obs/metrics.hpp"

namespace netsel::util {

namespace {
// Which pool (if any) the current thread is a worker of, and its queue
// index there. Lets submit() keep a worker's children on its own deque and
// take() start the steal scan away from it.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_queue = 0;

// Sharded counters: updates never contend with the deque locks or across
// workers, and cost one branch each while the registry is disabled.
obs::Counter& tasks_run_counter() {
  static obs::Counter& c = obs::Registry::global().counter("pool.tasks_run");
  return c;
}
obs::Counter& steals_counter() {
  static obs::Counter& c = obs::Registry::global().counter("pool.steals");
  return c;
}
obs::Counter& idle_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("pool.idle_transitions");
  return c;
}
}  // namespace

ThreadPool::ThreadPool(int threads) {
  // Touch the pool counters so all three are registered (and exported,
  // possibly at 0) whenever a pool exists — a single-worker pool that never
  // steals still reports pool.steals: 0 rather than omitting it.
  tasks_run_counter();
  steals_counter();
  idle_counter();
  std::size_t n;
  if (threads < 0) {
    unsigned hw = std::thread::hardware_concurrency();
    n = hw == 0 ? 1 : hw;
  } else {
    n = static_cast<std::size_t>(threads);
  }
  // Always at least one deque so a zero-worker pool can still queue jobs
  // for the helping waiter to drain inline.
  queues_.reserve(n == 0 ? 1 : n);
  for (std::size_t i = 0; i < (n == 0 ? 1 : n); ++i)
    queues_.push_back(std::make_unique<Queue>());
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  // Set stop_ under sleep_mu_, as submit() fences its pending_ increment: a
  // worker between its wait predicate and its sleep would otherwise miss
  // the notify and block its join forever.
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_.store(true);
  }
  sleep_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> job) {
  std::size_t q = (tl_pool == this)
                      ? tl_queue
                      : next_.fetch_add(1) % queues_.size();
  // pending_ goes up before the push so a sleeping worker woken by the
  // notify always sees pending_ > 0; the worst case is a brief spurious
  // wake while the push is still in flight.
  pending_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mu);
    queues_[q]->jobs.push_back(std::move(job));
  }
  // Fence on sleep_mu_ before notifying: a worker that evaluated its wait
  // predicate before the pending_ increment is either still holding the
  // mutex (we block until it is fully asleep and will get the notify) or
  // has re-checked and seen pending_ > 0. Closes the lost-wakeup window.
  { std::lock_guard<std::mutex> lock(sleep_mu_); }
  sleep_cv_.notify_one();
}

bool ThreadPool::take(std::size_t home, bool own_lifo,
                      std::function<void()>& out) {
  const std::size_t n = queues_.size();
  {
    Queue& q = *queues_[home];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.jobs.empty()) {
      if (own_lifo) {
        out = std::move(q.jobs.back());
        q.jobs.pop_back();
      } else {
        out = std::move(q.jobs.front());
        q.jobs.pop_front();
      }
      pending_.fetch_sub(1);
      return true;
    }
  }
  for (std::size_t i = 1; i < n; ++i) {
    Queue& q = *queues_[(home + i) % n];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.jobs.empty()) {
      out = std::move(q.jobs.front());
      q.jobs.pop_front();
      pending_.fetch_sub(1);
      steals_counter().inc();
      return true;
    }
  }
  return false;
}

bool ThreadPool::try_run_one() {
  // A worker drains its own deque LIFO (nested fan-outs finish their own
  // children first); an external helper drains FIFO, so a zero-worker pool
  // runs jobs inline in submission order.
  bool is_worker = tl_pool == this;
  std::size_t home = is_worker ? tl_queue : 0;
  std::function<void()> job;
  if (!take(home, is_worker, job)) return false;
  tasks_run_counter().inc();
  job();
  return true;
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_pool = this;
  tl_queue = index;
  std::function<void()> job;
  while (true) {
    if (take(index, /*own_lifo=*/true, job)) {
      tasks_run_counter().inc();
      job();
      job = nullptr;  // release captures before sleeping
      continue;
    }
    idle_counter().inc();
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleep_cv_.wait(lock,
                   [this] { return stop_.load() || pending_.load() > 0; });
    if (stop_.load() && pending_.load() == 0) return;
  }
}

}  // namespace netsel::util
