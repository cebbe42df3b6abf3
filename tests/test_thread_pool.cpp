#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace cals {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  std::atomic<int> count{0};
  ThreadPool::TaskGroup group(pool);
  for (int i = 0; i < 100; ++i) group.run([&count] { ++count; });
  group.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsIdempotentAndGroupReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  ThreadPool::TaskGroup group(pool);
  group.run([&count] { ++count; });
  group.wait();
  group.wait();
  group.run([&count] { ++count; });
  group.wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, NestedGroupsDoNotDeadlock) {
  // Each outer task forks its own inner group on the same pool; wait() must
  // help execute queued work so this completes even with one worker.
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    std::atomic<int> leaves{0};
    ThreadPool::TaskGroup outer(pool);
    for (int i = 0; i < 8; ++i)
      outer.run([&pool, &leaves] {
        ThreadPool::TaskGroup inner(pool);
        for (int j = 0; j < 8; ++j) inner.run([&leaves] { ++leaves; });
        inner.wait();
      });
    outer.wait();
    EXPECT_EQ(leaves.load(), 64) << workers << " workers";
  }
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
  ThreadPool pool;  // default: hardware concurrency
  EXPECT_EQ(pool.num_workers(), ThreadPool::hardware_threads());
}

TEST(ThreadPool, TaskExceptionRethrownAtWait) {
  ThreadPool pool(2);
  ThreadPool::TaskGroup group(pool);
  std::atomic<int> completed{0};
  for (int i = 0; i < 8; ++i)
    group.run([&completed, i] {
      if (i == 3) throw std::runtime_error("task 3 failed");
      ++completed;
    });
  try {
    group.wait();
    FAIL() << "wait() must rethrow the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3 failed");
  }
  // Fork/join semantics: every other task of the group still ran to
  // completion before the rethrow.
  EXPECT_EQ(completed.load(), 7);
}

TEST(ThreadPool, OnlyFirstExceptionSurfaces) {
  ThreadPool pool(2);
  ThreadPool::TaskGroup group(pool);
  for (int i = 0; i < 6; ++i)
    group.run([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
  // The group is clean after the rethrow: a second wait() (and the
  // destructor's) sees no pending work and no stored exception.
  group.wait();
}

TEST(ThreadPool, ThrowingTaskUnderNestedHelpRunning) {
  // A waiting thread help-runs queued tasks, including ones that throw: the
  // exception must be captured into the owning group, not escape through the
  // helper's wait(). Nested groups fan out enough work that the outer wait()
  // is guaranteed to help.
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  ThreadPool::TaskGroup outer(pool);
  for (int i = 0; i < 4; ++i)
    outer.run([&pool, &leaves, i] {
      ThreadPool::TaskGroup inner(pool);
      for (int j = 0; j < 8; ++j)
        inner.run([&leaves, i, j] {
          if (i == 1 && j == 5) throw std::runtime_error("inner leaf failed");
          ++leaves;
        });
      try {
        inner.wait();
      } catch (const std::runtime_error&) {
        // The owning (inner) group observes its leaf's failure; swallowing it
        // here keeps the outer group's tasks clean.
      }
    });
  outer.wait();  // must not throw: the failure was observed at the inner group
  EXPECT_EQ(leaves.load(), 31);
}

TEST(ThreadPool, DestructorSwallowsUnobservedException) {
  ThreadPool pool(2);
  {
    ThreadPool::TaskGroup group(pool);
    group.run([] { throw std::runtime_error("unobserved"); });
    // No wait(): the destructor must log-and-swallow, not terminate.
  }
  SUCCEED();
}

}  // namespace
}  // namespace cals
