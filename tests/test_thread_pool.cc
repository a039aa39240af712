// ThreadPool: task completion, exception propagation, shutdown semantics,
// and claimable tasks (exactly one of the submitter and a worker runs each).
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

using avis::util::ClaimableTask;
using avis::util::ThreadPool;

// Occupies every worker of a pool until open() (or destruction): the tasks
// queued behind it stay queued, so a test decides who claims them.
class Saturation {
 public:
  explicit Saturation(ThreadPool& pool) : gate_(open_.get_future().share()) {
    for (int i = 0; i < pool.worker_count(); ++i) {
      std::promise<void> started;
      std::future<void> is_started = started.get_future();
      blockers_.push_back(pool.submit([gate = gate_, started = std::move(started)]() mutable {
        started.set_value();
        gate.wait();
      }));
      is_started.wait();
    }
  }
  ~Saturation() { open(); }

  void open() {
    if (opened_) return;
    opened_ = true;
    open_.set_value();
    for (auto& blocker : blockers_) blocker.get();
  }

 private:
  std::promise<void> open_;
  std::shared_future<void> gate_;
  std::vector<std::future<void>> blockers_;
  bool opened_ = false;
};

// Waits until every task queued on a one-worker pool before this call has
// been popped: the worker runs tasks in FIFO order.
void drain(ThreadPool& pool) { pool.submit([] {}).get(); }

TEST(ThreadPool, RunsEveryTaskAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4);
  std::atomic<int> ran{0};
  std::vector<std::future<int>> results;
  for (int i = 0; i < 64; ++i) {
    results.push_back(pool.submit([i, &ran] {
      ++ran;
      return i * i;
    }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)].get(), i * i);
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, PropagatesTaskExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto boom = pool.submit([]() -> int { throw std::runtime_error("injected"); });
  EXPECT_EQ(ok.get(), 7);
  try {
    boom.get();
    FAIL() << "expected the task's exception to be rethrown";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "injected");
  }
}

TEST(ThreadPool, VoidTasksComplete) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  auto done = pool.submit([&ran] { ++ran; });
  done.get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, DestructionMidQueueDoesNotDeadlock) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> results;
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      results.push_back(pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ++ran;
      }));
    }
    // Destroy the pool while most tasks are still queued: running tasks
    // finish, queued tasks are abandoned, workers join. Reaching the
    // assertions below at all is the no-deadlock check.
  }
  int completed = 0;
  int abandoned = 0;
  for (auto& result : results) {
    try {
      result.get();
      ++completed;
    } catch (const std::future_error& err) {
      EXPECT_EQ(err.code(), std::make_error_code(std::future_errc::broken_promise));
      ++abandoned;
    }
  }
  EXPECT_EQ(completed + abandoned, 16);
  EXPECT_EQ(completed, ran.load());
}

TEST(ClaimableTask, ATaskItsSubmitterClaimedIsNeverRunByAWorker) {
  ThreadPool pool(1);
  Saturation busy(pool);
  std::atomic<int> runs{0};
  const std::thread::id here = std::this_thread::get_id();
  std::thread::id ran_on;
  ClaimableTask<int> task = pool.submit_claimable([&] {
    ++runs;
    ran_on = std::this_thread::get_id();
    return 41;
  });
  EXPECT_FALSE(task.ready());
  ASSERT_TRUE(task.run_here());
  EXPECT_TRUE(task.ready());
  EXPECT_FALSE(task.run_here()) << "a task runs exactly once";
  EXPECT_EQ(task.get(), 41);
  EXPECT_EQ(ran_on, here);
  // The worker now pops the claimed entry: it must skip it.
  busy.open();
  drain(pool);
  EXPECT_EQ(runs.load(), 1);
}

TEST(ClaimableTask, ATaskAWorkerStartedIsNeverRunByItsSubmitter) {
  ThreadPool pool(1);
  std::promise<void> started;
  std::promise<void> finish;
  std::shared_future<void> may_finish = finish.get_future().share();
  std::atomic<int> runs{0};
  std::thread::id ran_on;
  ClaimableTask<int> task = pool.submit_claimable([&, may_finish] {
    ++runs;
    ran_on = std::this_thread::get_id();
    started.set_value();
    may_finish.wait();
    return 7;
  });
  started.get_future().wait();
  EXPECT_FALSE(task.run_here());
  EXPECT_FALSE(task.ready());
  finish.set_value();
  EXPECT_EQ(task.get(), 7);
  EXPECT_EQ(runs.load(), 1);
  EXPECT_NE(ran_on, std::this_thread::get_id());
}

TEST(ClaimableTask, AnExceptionReachesWhoeverClaimedTheTask) {
  ThreadPool pool(1);
  {
    // Claimed by the submitter: run_here() keeps the exception, and get()
    // rethrows it, as it does a worker's.
    Saturation busy(pool);
    ClaimableTask<int> task =
        pool.submit_claimable([]() -> int { throw std::runtime_error("claimed here"); });
    ASSERT_TRUE(task.run_here());
    EXPECT_TRUE(task.ready());
    try {
      task.get();
      FAIL() << "expected the task's exception on the claimer";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "claimed here");
    }
  }
  {
    // A claimer that never asks for the result never sees the exception:
    // it is dropped with the handle.
    ClaimableTask<int> task(
        std::function<int()>([]() -> int { throw std::runtime_error("never asked for"); }));
    EXPECT_TRUE(task.run_here());
  }
  // Claimed by a worker: the exception is rethrown by get().
  ClaimableTask<int> task =
      pool.submit_claimable([]() -> int { throw std::runtime_error("claimed by a worker"); });
  drain(pool);
  EXPECT_FALSE(task.run_here());
  try {
    task.get();
    FAIL() << "expected the task's exception from get()";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "claimed by a worker");
  }
}

// A claimed entry left in the queue is inert: once the submitter has taken
// the result, nothing the task captured or produced is still alive.
TEST(ClaimableTask, ClaimedEntriesKeepNeitherCapturesNorResultsAlive) {
  ThreadPool pool(1);
  Saturation busy(pool);
  auto captured = std::make_shared<int>(1);
  std::weak_ptr<int> captured_alive = captured;
  std::weak_ptr<int> result_alive;
  ClaimableTask<std::shared_ptr<int>> task =
      pool.submit_claimable([captured] { return std::make_shared<int>(*captured + 1); });
  captured.reset();
  ASSERT_TRUE(task.run_here());
  EXPECT_TRUE(captured_alive.expired()) << "the callable must die once it has run";
  {
    std::shared_ptr<int> result = task.get();
    result_alive = result;
    EXPECT_EQ(*result, 2);
  }
  EXPECT_TRUE(result_alive.expired()) << "the queue entry must not hold the result";
}

TEST(ClaimableTask, DestroyingAPoolNeitherRunsNorLeaksItsClaimedEntries) {
  auto captured = std::make_shared<int>(0);
  std::atomic<int> runs{0};
  std::vector<ClaimableTask<int>> claimed;
  std::vector<ClaimableTask<int>> unclaimed;
  {
    std::promise<void> open;  // outlives the pool, whose destructor sets it
    std::shared_future<void> gate = open.get_future().share();
    ThreadPool pool(1);
    pool.submit([gate] { gate.wait(); });
    for (int i = 0; i < 8; ++i) {
      auto task = pool.submit_claimable([captured, &runs] { return ++runs; });
      (i % 2 == 0 ? claimed : unclaimed).push_back(std::move(task));
    }
    for (auto& task : claimed) ASSERT_TRUE(task.run_here());
    EXPECT_EQ(runs.load(), 4);
    // Queued last: the destructor's queue clear destroys this task, which
    // opens the gate, so the worker is still blocked while the claimable
    // entries are discarded and can join right after.
    std::shared_ptr<void> opener(nullptr, [&open](void*) { open.set_value(); });
    pool.submit([opener = std::move(opener)] {});
  }
  EXPECT_EQ(runs.load(), 4) << "the pool ran a discarded entry";
  // The pool is gone; the unclaimed tasks still belong to their handles.
  for (auto& task : unclaimed) {
    ASSERT_TRUE(task.run_here());
    EXPECT_GT(task.get(), 4);
  }
  EXPECT_EQ(runs.load(), 8);
  // Every callable has run or been dropped: only this frame's copy remains.
  EXPECT_EQ(captured.use_count(), 1);
  claimed.clear();
  unclaimed.clear();
  EXPECT_EQ(captured.use_count(), 1);
}

TEST(ClaimableTask, RetiringDropsAnUnstartedTaskAndWaitsForARunningOne) {
  ThreadPool pool(1);
  std::atomic<int> runs{0};
  {
    Saturation busy(pool);
    ClaimableTask<int> task = pool.submit_claimable([&runs] { return ++runs; });
    task.retire();  // nobody started it: dropped unrun
    busy.open();
    drain(pool);
  }
  EXPECT_EQ(runs.load(), 0);

  std::promise<void> started;
  std::atomic<bool> finished{false};
  auto task = std::make_unique<ClaimableTask<int>>(pool.submit_claimable([&] {
    started.set_value();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished = true;
    return 1;
  }));
  started.get_future().wait();
  task.reset();  // a worker is running it: the handle waits
  EXPECT_TRUE(finished.load());
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool pool(0), avis::util::InvariantError);
}

}  // namespace
