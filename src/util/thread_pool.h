// Fixed-size worker pool for the parallel checker.
//
// Experiments are pure functions of their spec, so the checker can farm a
// batch of them out to workers and apply the results on its own thread.
// Tasks are submitted as callables and observed through std::future:
// exceptions thrown inside a task are captured and rethrown from get(), so
// a worker-side failure surfaces on the caller thread instead of aborting
// the process.
//
// A claimable task (submit_claimable) is one its submitter may also run
// itself: the submitter and the pool's threads race to claim it, and the
// winner runs it, exactly once. A caller that would otherwise block on a
// queued task runs it instead, so several submitters can share one pool
// without any of them waiting on work that has not started.
//
// Shutdown semantics: the destructor discards tasks that have not started
// (their futures report std::future_errc::broken_promise), lets tasks that
// are already running finish, and joins every worker. Destroying a pool
// with a full queue therefore never deadlocks. A discarded claimable task
// is not lost: its handle still owns it, and run_here() runs it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/checked.h"

namespace avis::util {

class ThreadPool;

// The submitter's handle on a claimable task. Whoever claims the task first
// — the handle's owner through run_here(), or a pool thread that pops it —
// runs it; the other side never touches its callable. A task claimed by the
// owner leaves an inert entry in the pool's queue: the callable is destroyed
// as soon as it has run and its result lives in this handle, so the entry
// keeps nothing the task captured or produced alive.
//
// Destroying the handle retires the task: if nobody has started it, it is
// claimed and dropped unrun; if a pool thread is running it, the destructor
// waits for it to finish. A task therefore never outlives its handle, which
// is what lets the callable capture references into the owner's frame, even
// when that frame unwinds through an exception.
template <typename R>
class ClaimableTask {
  static_assert(!std::is_void_v<R>, "a claimable task returns a value");

 public:
  ClaimableTask() = default;

  // A task no pool knows about: only run_here() can run it.
  explicit ClaimableTask(std::function<R()> fn) : state_(std::make_shared<State>(std::move(fn))) {
    result_ = state_->promise.get_future();
  }

  ClaimableTask(ClaimableTask&& other) noexcept = default;
  ClaimableTask& operator=(ClaimableTask&& other) noexcept {
    if (this != &other) {
      retire();
      state_ = std::move(other.state_);
      result_ = std::move(other.result_);
      local_ = std::move(other.local_);
      error_ = std::move(other.error_);
      ran_here_ = other.ran_here_;
    }
    return *this;
  }
  ClaimableTask(const ClaimableTask&) = delete;
  ClaimableTask& operator=(const ClaimableTask&) = delete;
  ~ClaimableTask() { retire(); }

  // Claims the task and runs it on this thread, unless some thread claimed
  // it first; returns whether it ran here. An exception from the task is
  // kept, like a pool thread's, and rethrown by get(): it surfaces only if
  // the owner asks for this task's result.
  bool run_here() {
    if (!state_->claim()) return false;
    ran_here_ = true;
    try {
      local_.emplace(state_->take()());
    } catch (...) {
      error_ = std::current_exception();
    }
    return true;
  }

  // True once get() would not block: the task ran here, or a pool thread
  // finished it.
  bool ready() const {
    return ran_here_ ||
           (result_.valid() &&
            result_.wait_for(std::chrono::seconds(0)) == std::future_status::ready);
  }

  // The task's result: the one run_here() produced, or the pool thread's,
  // waited for; either side's exception is rethrown here. Call it once, and
  // only for a task that ran here or that a pool able to run it still holds.
  R get() {
    if (!ran_here_) return result_.get();
    if (error_) std::rethrow_exception(error_);
    return std::move(*local_);
  }

  // Drops the task if nobody has started it; otherwise waits until it
  // stops running. Idempotent; the destructor calls it.
  void retire() noexcept {
    if (!state_) return;
    if (state_->claim()) {
      state_->take();  // destroys the callable unrun
    } else if (!ran_here_ && result_.valid()) {
      result_.wait();  // a pool thread has it
    }
    state_.reset();
  }

 private:
  friend class ThreadPool;

  // Shared with the pool's queue entry. Only the side that wins claim()
  // touches `fn` and `promise`.
  struct State {
    explicit State(std::function<R()> f) : fn(std::move(f)) {}
    bool claim() { return !claimed.exchange(true, std::memory_order_acq_rel); }
    std::function<R()> take() {
      std::function<R()> out;
      out.swap(fn);
      return out;
    }
    // The pool thread's side. The callable is destroyed before the result
    // is published, so a retire() that returns has outlived every capture.
    void run_if_unclaimed() {
      if (!claim()) return;
      std::optional<R> value;
      std::exception_ptr error;
      {
        std::function<R()> f = take();
        try {
          value.emplace(f());
        } catch (...) {
          error = std::current_exception();
        }
      }
      if (error) {
        promise.set_exception(error);
      } else {
        promise.set_value(std::move(*value));
      }
    }

    std::atomic<bool> claimed{false};
    std::function<R()> fn;
    std::promise<R> promise;
  };

  std::shared_ptr<State> state_;
  std::future<R> result_;
  std::optional<R> local_;
  std::exception_ptr error_;
  bool ran_here_ = false;
};

class ThreadPool {
 public:
  explicit ThreadPool(int workers) {
    expects(workers > 0, "thread pool needs at least one worker");
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      workers_.emplace_back([this](std::stop_token stop) { p_run(stop); });
    }
  }

  ~ThreadPool() {
    {
      // Abandon unstarted tasks before waking the workers: dropping the
      // queued packaged_tasks breaks their promises, which is how a caller
      // blocked on get() learns the pool went away.
      std::lock_guard lock(mutex_);
      queue_.clear();
    }
    for (auto& worker : workers_) worker.request_stop();
    cv_.notify_all();
    // std::jthread destructors join.
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(workers_.size()); }

  // Enqueue a callable; the returned future yields its result (or rethrows
  // its exception).
  template <typename F>
  std::future<std::invoke_result_t<std::decay_t<F>>> submit(F&& fn) {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    // shared_ptr because std::function requires copyable targets and
    // packaged_task is move-only.
    auto task = std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    std::future<Result> future = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.push_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  // Enqueue a task that the returned handle may also claim and run on the
  // submitter's thread (ClaimableTask). The callable must be copyable.
  template <typename F>
  ClaimableTask<std::invoke_result_t<std::decay_t<F>>> submit_claimable(F&& fn) {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    ClaimableTask<Result> task{std::function<Result()>(std::forward<F>(fn))};
    {
      std::lock_guard lock(mutex_);
      queue_.push_back([state = task.state_] { state->run_if_unclaimed(); });
    }
    cv_.notify_one();
    return task;
  }

 private:
  void p_run(std::stop_token stop) {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, stop, [this] { return !queue_.empty(); });
        if (queue_.empty()) return;  // stop requested, nothing left to run
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();  // packaged_task captures exceptions into the future
    }
  }

  std::mutex mutex_;
  std::condition_variable_any cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::jthread> workers_;  // last member: destroyed (joined) first
};

}  // namespace avis::util
