#pragma once
/// \file thread_pool.hpp
/// A small shared worker pool for the flow's reuse-and-parallelism layer:
/// concurrent K evaluations and parallel match building run on one pool so
/// the total thread count stays bounded by FlowOptions::num_threads.
/// Covering, placement and routing inside one evaluation are serial and
/// never use it.
///
/// Design notes:
///  * Tasks are submitted through a TaskGroup (fork/join). `wait()` *helps*:
///    while its tasks are outstanding the waiting thread pops and executes
///    pending pool tasks, so nested groups (a K-evaluation task that itself
///    fans out match enumeration) never deadlock and never idle a core that
///    has runnable work.
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

/// The thread share one of `jobs_in_flight` concurrent flow evaluations
/// should use so J jobs x T threads never oversubscribe the machine:
/// max(1, hardware_threads() / jobs). 0 is treated as 1 (a lone caller gets
/// the whole machine, the historical num_threads=0 behavior). The svc
/// scheduler partitions its budget with this, and DesignContext resolves
/// FlowOptions::num_threads == 0 through it using the library-wide count of
/// flows currently inside run() (see flows_in_flight() in flow.hpp).
std::uint32_t recommended_threads(std::uint32_t jobs_in_flight);

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

  /// Chunked parallel loop over [begin, end): calls fn(lo, hi) for slices of
  /// at most `grain` indices. Runs inline when the pool is null or the range
  /// fits one chunk.
  static void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                           std::size_t grain,
                           const std::function<void(std::size_t, std::size_t)>& fn);

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
