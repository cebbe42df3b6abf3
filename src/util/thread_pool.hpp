#pragma once
/// \file thread_pool.hpp
/// A small worker pool for the flow's one parallel grain: whole evaluations
/// side by side (sweep_evaluations in flow.hpp, which sizes the pool). An
/// evaluation itself never uses it.
///
/// Design notes:
///  * Tasks are submitted through a TaskGroup (fork/join). `wait()` *helps*:
///    while its tasks are outstanding the waiting thread pops and executes
///    pending pool tasks, so nested groups never deadlock and never idle a
///    core that has runnable work.
///  * Determinism is the caller's contract, not the pool's: every algorithm
///    built on top of it partitions its writes disjointly and only reads
///    data published by completed tasks, so results are bit-identical to the
///    serial order regardless of scheduling.
///  * Exceptions thrown inside a task never escape a worker thread (which
///    would std::terminate the process): each TaskGroup captures the first
///    one and rethrows it from wait(), after all of its tasks have finished
///    — fork/join semantics match a serial loop that throws.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cals {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = hardware_threads()).
  explicit ThreadPool(std::uint32_t num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::uint32_t num_workers() const { return static_cast<std::uint32_t>(workers_.size()); }
  static std::uint32_t hardware_threads();

  /// Fork/join scope: submit with run(), then wait() exactly once. The
  /// waiting thread executes pending pool tasks while it waits. If any task
  /// threw, wait() rethrows the first captured exception once every task of
  /// the group has completed (remaining tasks still run; their exceptions
  /// are dropped). The destructor swallows an unobserved exception — call
  /// wait() explicitly to see failures.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    ~TaskGroup();
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    void run(std::function<void()> fn);
    void wait();

   private:
    ThreadPool& pool_;
    std::mutex mutex_;
    std::condition_variable done_;
    std::size_t pending_ = 0;          // guarded by mutex_
    std::exception_ptr first_error_;   // guarded by mutex_
  };

 private:
  void submit(std::function<void()> task);
  bool try_run_one();
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace cals
