#include "util/thread_pool.hpp"

#include <chrono>
#include <mutex>
#include <utility>

#include "util/faults.hpp"
#include "util/log.hpp"
#include "util/obs.hpp"

namespace cals {
namespace {

/// Runs one pool task, attributing its wall time to the pool's busy-time
/// counters when observability is on ("where do the workers spend their
/// time" — DESIGN.md §8). `helping` marks tasks executed by a waiting thread
/// inside TaskGroup::wait() rather than by a pool worker.
void run_task(std::function<void()>& task, bool helping) {
#if CALS_OBS_ENABLED
  if (obs::enabled()) {
    const auto start = std::chrono::steady_clock::now();
    task();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    CALS_OBS_COUNT("pool.tasks", 1);
    CALS_OBS_COUNT("pool.busy_ns", ns);
    CALS_OBS_OBSERVE("pool.task_us", static_cast<double>(ns) / 1000.0);
    if (helping) CALS_OBS_COUNT("pool.help_runs", 1);
    return;
  }
#endif
  (void)helping;
  task();
}

}  // namespace

std::uint32_t ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : static_cast<std::uint32_t>(n);
}

ThreadPool::ThreadPool(std::uint32_t num_threads) {
  const std::uint32_t n = num_threads == 0 ? hardware_threads() : num_threads;
  const std::uint32_t hw = hardware_threads();
  if (n > hw) {
    // Oversubscription makes parallel speedups invisible (PR 1 measured
    // exactly this on a 1-CPU container): say so once, loudly, and record it.
    static std::once_flag warned;
    std::call_once(warned, [n, hw] {
      CALS_WARN("thread pool: %u workers requested but hardware_concurrency() is %u "
                "— oversubscribed, expect no parallel speedup",
                n, hw);
    });
    CALS_OBS_COUNT("pool.oversubscribed_pools", 1);
  }
  // The worker count actually used, exposed for sweeps/benches.
  CALS_OBS_GAUGE_SET("pool.workers", n);
  workers_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  CALS_OBS_GAUGE_MAX("pool.max_queue_depth", depth);
  CALS_TRACE_COUNTER("pool.queue_depth", depth);
  work_available_.notify_one();
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  run_task(task, /*helping=*/true);
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    run_task(task, /*helping=*/false);
  }
}

ThreadPool::TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (const std::exception& e) {
    // An exception can't leave a destructor; groups that care call wait()
    // themselves (everything in this repo does).
    CALS_WARN("TaskGroup: exception swallowed in destructor (call wait() to "
              "observe it): %s",
              e.what());
  } catch (...) {
    CALS_WARN("TaskGroup: non-std exception swallowed in destructor");
  }
}

void ThreadPool::TaskGroup::run(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
  }
  pool_.submit([this, fn = std::move(fn)] {
    try {
      CALS_FAULT_POINT("pool.dispatch");
      fn();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (--pending_ == 0) done_.notify_all();
  });
}

void ThreadPool::TaskGroup::wait() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (pending_ == 0) break;
    }
    // Help: drain runnable work instead of blocking a core. Only sleep when
    // the queue is empty, i.e. our remaining tasks are executing elsewhere.
    if (pool_.try_run_one()) continue;
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait_for(lock, std::chrono::milliseconds(1),
                   [this] { return pending_ == 0; });
  }
  // All tasks done: surface the first failure exactly once. Later wait()
  // calls (e.g. the destructor's) see a clean group.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::swap(error, first_error_);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace cals
