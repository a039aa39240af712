// Workload framework (paper §V-A, Fig. 8).
//
// A workload is a sequence of steps; each step has an on-entry action and a
// completion predicate, mirroring the paper's Python framework where
// `takeoff()`/`wait_altitude()` calls yield control back to Avis via the
// step() RPC. Steps never block: the harness pumps the workload once per
// simulation step and the workload advances when the current predicate
// holds. A per-step timeout marks the run failed rather than hanging the
// checker (the deadlock hazard §V-A describes).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fw/modes.h"
#include "workload/context.h"

namespace avis::workload {

enum class WorkloadStatus { kRunning, kPassed, kFailed };

class Script {
 public:
  // What a step is blocked on, declared for the harness's absorbing-tail
  // check (core/harness.cc): kArmed means the step's completion predicate is
  // exactly ctx.armed(), kAltitudeAtLeast that it is exactly
  // ctx.altitude() >= altitude_m, and in both cases the step sends nothing
  // once entered. Everything else is kOpaque and never fast-forwarded.
  struct Wait {
    enum class Kind { kOpaque, kArmed, kAltitudeAtLeast };
    Kind kind = Kind::kOpaque;
    double altitude_m = 0.0;
  };

  struct Step {
    std::string name;
    std::function<void(GcsContext&)> on_entry;
    std::function<bool(GcsContext&)> done;
    // Elapsed-time variant: receives milliseconds since the step was
    // entered. Time-based steps use this instead of capturing a mutable
    // start timestamp in `done` — step lambdas must be stateless so a
    // workload's progress is fully described by the base-class fields
    // (Workload::Progress), which is what lets checkpointed prefix forking
    // restore a mid-flight workload into a factory-fresh instance.
    std::function<bool(GcsContext&, sim::SimTimeMs)> done_since;
    sim::SimTimeMs timeout_ms = 60000;
    Wait wait;
  };

  void add(std::string name, std::function<void(GcsContext&)> on_entry,
           std::function<bool(GcsContext&)> done, sim::SimTimeMs timeout_ms = 60000) {
    p_add(std::move(name), std::move(on_entry), std::move(done), timeout_ms, {});
  }

  // A step whose completion depends on time since entry; `done_since` gets
  // the elapsed milliseconds alongside the context.
  void add_timed(std::string name, std::function<void(GcsContext&)> on_entry,
                 std::function<bool(GcsContext&, sim::SimTimeMs)> done_since,
                 sim::SimTimeMs timeout_ms = 60000) {
    steps_.push_back({std::move(name), std::move(on_entry), {}, std::move(done_since),
                      timeout_ms, {}});
  }

  // Fig. 8 style helpers ----------------------------------------------------
  void wait_time(sim::SimTimeMs ms) {
    add_timed("wait_time", [](GcsContext&) {},
              [ms](GcsContext&, sim::SimTimeMs elapsed) { return elapsed >= ms; });
  }

  void upload_mission(std::vector<mavlink::MissionItem> items) {
    add("upload_mission",
        [items = std::move(items)](GcsContext& ctx) { ctx.upload_mission(items); },
        [](GcsContext& ctx) { return ctx.mission_uploaded(); }, 10000);
  }

  void arm_system_completely() {
    p_add("arm", [](GcsContext& ctx) { ctx.arm(); },
          [](GcsContext& ctx) { return ctx.armed(); }, 5000, {Wait::Kind::kArmed});
  }

  // A step that runs `on_entry` once, then waits for the reported altitude
  // to reach `alt_m` (declared as a kAltitudeAtLeast wait).
  void add_altitude_wait(std::string name, std::function<void(GcsContext&)> on_entry,
                         double alt_m, sim::SimTimeMs timeout_ms = 60000) {
    p_add(std::move(name), std::move(on_entry),
          [alt_m](GcsContext& ctx) { return ctx.altitude() >= alt_m; }, timeout_ms,
          {Wait::Kind::kAltitudeAtLeast, alt_m});
  }

  void enter_mode(fw::Mode mode) {
    add(std::string("enter_") + fw::canonical_name(mode),
        [mode](GcsContext& ctx) { ctx.set_mode(fw::composite_mode_id(mode)); },
        [](GcsContext&) { return true; });
  }

  void enter_auto_mode() { enter_mode(fw::Mode::kAuto); }

  void wait_altitude_at_least(double alt_m, sim::SimTimeMs timeout_ms = 60000) {
    add_altitude_wait("wait_altitude>=", [](GcsContext&) {}, alt_m, timeout_ms);
  }

  void wait_altitude_at_most(double alt_m, sim::SimTimeMs timeout_ms = 60000) {
    add("wait_altitude<=", [](GcsContext&) {},
        [alt_m](GcsContext& ctx) { return ctx.altitude() <= alt_m; }, timeout_ms);
  }

  void wait_disarm(sim::SimTimeMs timeout_ms = 60000) {
    add("wait_disarm", [](GcsContext&) {},
        [](GcsContext& ctx) { return !ctx.armed(); }, timeout_ms);
  }

  const std::vector<Step>& steps() const { return steps_; }

 private:
  // Waits are declared only here, next to the predicates they describe, so
  // a declaration cannot disagree with its step's completion predicate.
  void p_add(std::string name, std::function<void(GcsContext&)> on_entry,
             std::function<bool(GcsContext&)> done, sim::SimTimeMs timeout_ms, Wait wait) {
    steps_.push_back(
        {std::move(name), std::move(on_entry), std::move(done), {}, timeout_ms, wait});
  }

  std::vector<Step> steps_;
};

// Base class: concrete workloads build their Script in the constructor.
class Workload {
 public:
  virtual ~Workload() = default;

  // Advance the workload one harness tick. Steps whose completion predicate
  // already holds are chained within the tick (like the sequential calls in
  // the paper's Fig. 8 script); the tick ends at the first unfinished step.
  WorkloadStatus step(GcsContext& ctx) {
    const auto& steps = script_.steps();
    while (status_ == WorkloadStatus::kRunning) {
      if (index_ >= steps.size()) {
        status_ = WorkloadStatus::kPassed;
        break;
      }
      const auto& step = steps[index_];
      if (!entered_) {
        step.on_entry(ctx);
        entered_ = true;
        entered_at_ = ctx.now_ms();
      }
      const bool done = step.done_since ? step.done_since(ctx, ctx.now_ms() - entered_at_)
                                        : step.done(ctx);
      if (done) {
        ++index_;
        entered_ = false;
        continue;
      }
      if (ctx.now_ms() - entered_at_ > step.timeout_ms) {
        status_ = WorkloadStatus::kFailed;
        failed_step_ = step.name;
      }
      break;
    }
    return status_;
  }

  WorkloadStatus status() const { return status_; }
  const std::string& failed_step() const { return failed_step_; }
  const std::string& name() const { return name_; }
  std::size_t current_step() const { return index_; }

  // The entered step the running workload is blocked on, with its entry
  // time; nullptr before the first tick and once the workload is done.
  const Script::Step* blocked_step() const {
    if (status_ != WorkloadStatus::kRunning || !entered_ || index_ >= script_.steps().size()) {
      return nullptr;
    }
    return &script_.steps()[index_];
  }
  sim::SimTimeMs entered_at() const { return entered_at_; }

  // Mid-run progress for experiment checkpointing. Because step lambdas are
  // stateless by contract (time-based steps go through Script::add_timed),
  // these base-class fields are the workload's complete mutable state:
  // loading them into a factory-fresh instance of the same workload resumes
  // it exactly where the prefix run left off.
  struct Progress {
    std::size_t index = 0;
    bool entered = false;
    sim::SimTimeMs entered_at = 0;
    WorkloadStatus status = WorkloadStatus::kRunning;
    std::string failed_step;
  };

  Progress save() const { return {index_, entered_, entered_at_, status_, failed_step_}; }

  void load(const Progress& p) {
    index_ = p.index;
    entered_ = p.entered;
    entered_at_ = p.entered_at;
    status_ = p.status;
    failed_step_ = p.failed_step;
  }

 protected:
  explicit Workload(std::string name) : name_(std::move(name)) {}
  Script script_;

 private:
  std::string name_;
  std::size_t index_ = 0;
  bool entered_ = false;
  sim::SimTimeMs entered_at_ = 0;
  WorkloadStatus status_ = WorkloadStatus::kRunning;
  std::string failed_step_;
};

}  // namespace avis::workload
