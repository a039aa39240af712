// The checker loop: drives one search strategy against one (firmware
// personality, workload) pair under a budget, collecting every unsafe
// condition found. This is the outer loop all of Tables II-V run through.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <future>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_harness.h"
#include "core/budget.h"
#include "core/coverage.h"
#include "core/harness.h"
#include "core/invariant_monitor.h"
#include "core/strategy.h"
#include "util/thread_pool.h"

namespace avis::core {

struct UnsafeRecord {
  FaultPlan plan;
  Violation violation;
  std::vector<fw::BugId> fired_bugs;
  std::vector<ModeTransition> transitions;
  std::uint64_t seed = 0;
  int experiment_index = 0;  // 1-based simulation count when found
};

struct CheckerReport {
  std::string strategy_name;
  int experiments = 0;
  int labels = 0;
  sim::SimTimeMs budget_used_ms = 0;
  std::vector<UnsafeRecord> unsafe;
  // Simulation count at which each seeded bug first manifested.
  std::map<fw::BugId, int> bug_first_found;

  // Mode-graph edge coverage over every applied experiment, keyed by
  // (edge, injection-window bucket) — see core/coverage.h. Derived from the
  // applied-result sequence like bug_first_found, and from transitions that
  // are bit-identical across worker counts, batch widths and checkpoint
  // modes, so it is part of report identity (NOT masked the way the
  // checkpoint_* counters are).
  CoverageMap edge_coverage;

  // Checkpointed prefix forking observability (docs/PERFORMANCE.md): how
  // many experiments restored a recorded prefix snapshot (hit) vs simulated
  // from scratch despite an available store (miss — the plan injects before
  // the first snapshot; with checkpointing disabled both counters stay 0),
  // how many snapshots the store evicted to fit its byte budget, and the
  // total simulated milliseconds the restores skipped.
  // Wall-clock accounting only: the reported experiments, budget charges
  // and unsafe records are bit-identical with checkpointing on or off.
  int checkpoint_hits = 0;
  int checkpoint_misses = 0;
  int checkpoint_evicted = 0;
  sim::SimTimeMs checkpoint_skipped_ms = 0;
  // Per-level restore counters (checkpoint trees): index 0 counts restores
  // from the fault-free root, index d >= 1 restores from a tree snapshot
  // with d injections already activated. Sums to checkpoint_hits. Sized to
  // the deepest level hit. Like every checkpoint counter this is wall-clock
  // observability; serial and parallel runs may count coincidental prefix
  // hits differently (wave timing decides what is recorded when a plan
  // resolves), which is why report-identity checks mask checkpoint_*.
  std::vector<int> checkpoint_hits_by_level;
  // Tree snapshots evicted under byte-budget pressure (root evictions stay
  // in checkpoint_evicted).
  int checkpoint_tree_evicted = 0;
  // Experiments that ran to max_duration without a violation (the
  // workload never finished and nothing tripped the monitor) — the
  // ROADMAP's stalled-run observability item. Deterministic across
  // checkpoint modes: duration_ms is a logical quantity.
  int stalled_runs = 0;

  double checkpoint_hit_rate() const {
    const int total = checkpoint_hits + checkpoint_misses;
    return total > 0 ? static_cast<double>(checkpoint_hits) / total : 0.0;
  }

  int unsafe_count() const { return static_cast<int>(unsafe.size()); }

  // Table IV groups unsafe scenarios by the operating mode at the *newest
  // injection* (the site the search chose), not the mode the violation
  // later manifested in — a landing-phase crash caused by a waypoint-window
  // fault counts toward Waypoint.
  std::array<int, 4> unsafe_by_bucket() const {
    std::array<int, 4> buckets{};
    for (const auto& record : unsafe) {
      sim::SimTimeMs newest = 0;
      for (const auto& e : record.plan.events) newest = std::max(newest, e.time_ms);
      std::uint16_t mode_id = 0;
      for (const auto& t : record.transitions) {
        if (t.time_ms > newest) break;
        mode_id = t.mode_id;
      }
      const fw::ModeBucket bucket = fw::bucket_of(fw::CompositeMode::from_id(mode_id).mode);
      buckets[static_cast<std::size_t>(bucket)] += 1;
    }
    return buckets;
  }

  bool found_bug(fw::BugId id) const { return bug_first_found.contains(id); }
};

class Checker {
 public:
  // The prototype carries the full experiment identity — personality,
  // workload (enum or factory), environment, bug population — and its
  // `seed` is the seed base for profiling and experiments. Registry-named
  // scenarios build a prototype through core::scenario_prototype(); the
  // prototype's plan is cleared here, each experiment installs its own.
  explicit Checker(ExperimentSpec prototype, CheckpointConfig checkpoints = {})
      : prototype_(std::move(prototype)), checkpoint_config_(checkpoints) {
    prototype_.plan = FaultPlan{};
    prototype_.stop_on_violation = true;
  }

  Checker(fw::Personality personality, workload::WorkloadId workload, fw::BugRegistry bugs,
          std::uint64_t seed_base = 100)
      : Checker(p_make_prototype(personality, workload, std::move(bugs), seed_base)) {}

  // Profiling runs + monitor calibration happen on first use and are reused
  // across strategies so comparisons share the same model.
  const MonitorModel& model() {
    if (!model_) {
      auto context = contexts_.acquire();
      model_ = harness_.profile(prototype_, /*runs=*/3, prototype_.seed, context.get());
      contexts_.release(std::move(context));
    }
    return *model_;
  }

  // Lockstep batch width for experiment simulation: how many independent
  // plans the strategy hands out at a time to be stepped together through
  // core::BatchHarness (bit-identical to one-at-a-time scalar runs — the
  // batch engine's contract). 0 (the default) means auto, currently
  // kAutoBatchWidth; width 1 still routes through the batch engine as a
  // degenerate single-lane batch. Applies to run() only: run_parallel()
  // simulates each plan as its own single-lane task and uses the width
  // just to size its wave request. Profiling and prefix recording stay
  // scalar.
  static constexpr int kAutoBatchWidth = 4;
  // Slack every experiment gets past the profiled mission duration before
  // it is cut off (p_make_spec); a safe run that uses all of it counts as
  // stalled (CheckerReport::stalled_runs).
  static constexpr sim::SimTimeMs kSettleMs = 45000;
  void set_batch_width(int width) { batch_width_ = width; }
  int batch_width() const { return batch_width_ > 0 ? batch_width_ : kAutoBatchWidth; }

  // Serial checker loop, batched: up to batch_width() plans per strategy
  // request, stepped in lockstep, results applied in proposal order. If the
  // budget exhausts mid-batch the remaining results are discarded — exactly
  // the experiments a width-1 loop would never have started — so the report
  // is bit-identical to the historical one-at-a-time loop. Like
  // run_parallel, discarded plans were already consumed from the strategy,
  // so a strategy that went through a batched run should not be resumed
  // with a fresh budget (no current caller does).
  CheckerReport run(InjectionStrategy& strategy, BudgetClock& budget) {
    const MonitorModel& monitor = model();
    const CheckpointStore* checkpoints = p_checkpoints(monitor);
    // Per-campaign tree: every campaign over this checker starts from an
    // empty tree so its hit counters (and plan recordings) are a function
    // of the campaign alone, not of which strategies ran before it.
    if (checkpoints_) checkpoints_->clear_tree();
    const int capture_limit =
        checkpoints != nullptr && checkpoints->trees_enabled() ? strategy.chain_extension_limit()
                                                               : 0;
    CheckerReport report;
    report.strategy_name = strategy.name();
    auto engine = engines_.acquire(harness_);
    bool out_of_budget = false;
    std::vector<std::vector<ExperimentSnapshot>> captures;
    while (!out_of_budget && !budget.exhausted()) {
      std::vector<FaultPlan> plans =
          strategy.next_batch(budget, p_adaptive_width(budget, batch_width()));
      if (plans.empty()) break;
      std::vector<ExperimentSpec> specs;
      specs.reserve(plans.size());
      for (const FaultPlan& plan : plans) specs.push_back(p_make_spec(plan, monitor));
      // Handing the engine the remaining budget lets it stop simulating
      // lanes whose results the discard loop below is guaranteed to throw
      // away (see BatchHarness::run) — the discarded slots are then default
      // results this loop never reads.
      std::vector<ExperimentResult> results =
          engine->run(specs, &monitor, checkpoints, budget.remaining_ms(), capture_limit,
                      capture_limit > 0 ? &captures : nullptr);
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (out_of_budget || (i > 0 && budget.exhausted())) {
          out_of_budget = true;
          continue;
        }
        // The engine is idle between waves, so merges land inline (the
        // parallel loop defers them instead — see run_parallel).
        p_apply(report, strategy, budget, plans[i], std::move(results[i]),
                capture_limit > 0 ? &captures[i] : nullptr, nullptr);
      }
    }
    engines_.release(std::move(engine));
    report.labels = budget.labels();
    report.budget_used_ms = budget.used_ms();
    report.checkpoint_evicted = checkpoints != nullptr ? checkpoints->evicted() : 0;
    report.checkpoint_tree_evicted = checkpoints != nullptr ? checkpoints->tree_evicted() : 0;
    return report;
  }

  // Parallel variant: strategies hand out a wave of independent plans, the
  // pool simulates each plan as its own task, and results are applied on
  // this thread in submission order. Budget charging, feedback() and
  // UnsafeRecord collection are therefore single-threaded, so BudgetClock
  // needs no locking and the report is bit-identical to run() for the same
  // plan sequence. If the budget exhausts mid-wave, the rest of the wave is
  // cancelled: tasks that have not started return without simulating, and
  // no result past the boundary is applied — exactly the experiments a
  // serial run would never have started. Those discarded plans were already
  // consumed from the strategy, so a strategy object that went through
  // run_parallel should not be resumed with a fresh budget (no current
  // caller does; serial run() has no such caveat). See docs/PERFORMANCE.md.
  CheckerReport run_parallel(InjectionStrategy& strategy, BudgetClock& budget, int workers) {
    if (workers <= 1) return run(strategy, budget);
    const MonitorModel& monitor = model();
    // Recorded on this thread before any plan is dispatched; workers then
    // share the store strictly read-only. Tree merges are deferred to the
    // end of each wave (below) to keep that invariant.
    const CheckpointStore* checkpoints = p_checkpoints(monitor);
    if (checkpoints_) checkpoints_->clear_tree();
    const int capture_limit =
        checkpoints != nullptr && checkpoints->trees_enabled() ? strategy.chain_extension_limit()
                                                               : 0;
    // Set by the apply loop at the discard boundary; ends the campaign.
    // Declared before the pool so it outlives every task the pool may
    // still hold.
    std::atomic<bool> cancelled{false};
    util::ThreadPool pool(workers);
    CheckerReport report;
    report.strategy_name = strategy.name();
    struct PlanOutput {
      ExperimentResult result;
      std::vector<ExperimentSnapshot> captures;
    };
    std::vector<PendingMerge> deferred;
    while (!cancelled.load(std::memory_order_relaxed) && !budget.exhausted()) {
      // Two lockstep widths of plans per worker keep the pool saturated
      // while the caller thread applies results; strategies may return fewer
      // (SABRE stops at its expansion-wave boundary to preserve the serial
      // plan sequence). Near the budget boundary the adaptive cap shrinks
      // the request, so a wave overshoots the budget by few experiments.
      std::vector<FaultPlan> plans =
          strategy.next_batch(budget, p_adaptive_width(budget, 2 * workers * batch_width()));
      if (plans.empty()) break;
      // One task per plan: a wave of ~10 plans keeps every worker busy,
      // where width-sized chunks would step up to `width` experiments in
      // series on one thread while other workers idle.
      std::vector<std::future<PlanOutput>> in_flight;
      in_flight.reserve(plans.size());
      for (const FaultPlan& plan : plans) {
        std::vector<ExperimentSpec> specs;
        specs.push_back(p_make_spec(plan, monitor));
        in_flight.push_back(pool.submit([this, specs = std::move(specs), &monitor, checkpoints,
                                         capture_limit, &cancelled] {
          PlanOutput out;
          if (cancelled.load(std::memory_order_relaxed)) return out;
          // Per-worker engine: whichever worker picks this plan up checks a
          // batch engine out for the duration, so its lane world is reset,
          // not reallocated, from one plan to the next (the arena-reuse
          // contract). An exception skips the release and simply retires
          // the engine.
          auto engine = engines_.acquire(harness_);
          std::vector<std::vector<ExperimentSnapshot>> captures;
          std::vector<ExperimentResult> results =
              engine->run(specs, &monitor, checkpoints, -1, capture_limit,
                          capture_limit > 0 ? &captures : nullptr);
          engines_.release(std::move(engine));
          out.result = std::move(results.front());
          if (!captures.empty()) out.captures = std::move(captures.front());
          return out;
        }));
      }
      // Apply in submission order — the proposal order — so the report is
      // bit-identical to the serial loop for the same plans. Result 0 is
      // always applied: the serial loop runs and applies any plan next()
      // returns, even when proposal-side charges (BFI's labels) crossed the
      // budget limit while producing it. Once the budget exhausts, every
      // later result is one a serial run would never have started.
      for (std::size_t i = 0; i < plans.size(); ++i) {
        if (i > 0 && budget.exhausted()) {
          cancelled.store(true, std::memory_order_relaxed);
          break;
        }
        PlanOutput out = in_flight[i].get();  // rethrows worker errors
        p_apply(report, strategy, budget, plans[i], std::move(out.result),
                capture_limit > 0 ? &out.captures : nullptr, &deferred);
      }
      // The tree may only be mutated once no task reads it. After a cancel,
      // tasks already running finish their (discarded) simulation and the
      // rest return at once; wait() rather than get() ignores their errors.
      if (cancelled.load(std::memory_order_relaxed)) {
        for (auto& task : in_flight) {
          if (task.valid()) task.wait();
        }
      }
      // Merging at the wave boundary (not inside p_apply) is what lets the
      // next wave's children resolve their parents' recordings without the
      // engine threads ever observing a mutation.
      for (PendingMerge& merge : deferred) {
        checkpoints_->merge_run(merge.plan, std::move(merge.snapshots), std::move(merge.trace),
                                std::move(merge.transitions));
      }
      deferred.clear();
    }
    report.labels = budget.labels();
    report.budget_used_ms = budget.used_ms();
    report.checkpoint_evicted = checkpoints != nullptr ? checkpoints->evicted() : 0;
    report.checkpoint_tree_evicted = checkpoints != nullptr ? checkpoints->tree_evicted() : 0;
    return report;
  }

  // The scenario's checkpoint store (recorded on first use when enabled);
  // nullptr when checkpointing is off. Exposed for tests and tools.
  const CheckpointStore* checkpoint_store() {
    if (!checkpoint_config_.enabled) return nullptr;
    return p_checkpoints(model());
  }
  const CheckpointConfig& checkpoint_config() const { return checkpoint_config_; }

  fw::Personality personality() const { return prototype_.personality; }
  // The enum id the prototype was built from; registry-named scenarios run
  // through `prototype().workload_factory` and leave this at its default.
  workload::WorkloadId workload() const { return prototype_.workload; }
  const fw::BugRegistry& bugs() const { return prototype_.bugs; }
  const ExperimentSpec& prototype() const { return prototype_; }
  SimulationHarness& harness() { return harness_; }

 private:
  static ExperimentSpec p_make_prototype(fw::Personality personality,
                                         workload::WorkloadId workload, fw::BugRegistry bugs,
                                         std::uint64_t seed_base) {
    ExperimentSpec prototype;
    prototype.personality = personality;
    prototype.workload = workload;
    prototype.bugs = std::move(bugs);
    prototype.seed = seed_base;
    return prototype;
  }

  // Budget-aware batch sizing: a full-width batch proposed just before the
  // budget exhausts runs experiments whose results the mid-batch discard
  // rule throws away — pure wall-clock waste, and a no-injection control
  // plan at a wave's tail wastes a full-duration run. Estimate how many
  // experiments still fit from the average charge so far (label charges
  // included, which only biases the estimate low, i.e. conservative) and
  // cap the request. A strategy's plan sequence is independent of the
  // request size (the next_batch contract), so the cap moves wall clock
  // only, never the report.
  int p_adaptive_width(const BudgetClock& budget, int width) const {
    if (budget.experiments() == 0) return width;
    const sim::SimTimeMs avg =
        std::max<sim::SimTimeMs>(1, budget.used_ms() / budget.experiments());
    const sim::SimTimeMs fit = (budget.remaining_ms() + avg - 1) / avg;
    return std::clamp(static_cast<int>(std::min<sim::SimTimeMs>(fit, width)), 1, width);
  }

  ExperimentSpec p_make_spec(const FaultPlan& plan, const MonitorModel& monitor) const {
    ExperimentSpec spec = prototype_;
    spec.plan = plan;
    // Test runs reuse the golden run's seed (already the prototype's): on
    // this deterministic substrate a run then differs from the golden run
    // only through the injected faults, which keeps Eq. 1 free of
    // seed-variance noise (the paper absorbs that noise into tau instead).
    spec.max_duration_ms = monitor.profiling_duration_ms() + kSettleMs;
    return spec;
  }

  // Records the scenario's fault-free prefix once; every later call returns
  // the same store. The recording is one extra fault-free simulation —
  // amortized across the campaign the way profiling already is. On top of
  // the cadence grid, a snapshot is captured at every golden mode-transition
  // timestamp: the search strategies concentrate their injections exactly
  // there (SABRE seeds its queue from the golden transitions), so those
  // plans restore with zero re-simulated prefix.
  const CheckpointStore* p_checkpoints(const MonitorModel& monitor) {
    if (!checkpoint_config_.enabled) return nullptr;
    if (!checkpoints_) {
      CheckpointConfig config = checkpoint_config_;
      for (const ModeTransition& t : monitor.golden_transitions()) {
        config.capture_at.push_back(t.time_ms);
      }
      auto context = contexts_.acquire();
      checkpoints_ = harness_.record_prefix(p_make_spec(FaultPlan{}, monitor), &monitor,
                                            config, context.get());
      contexts_.release(std::move(context));
    }
    return &*checkpoints_;
  }

  // One finished directed run waiting to be merged into the checkpoint
  // tree at the wave boundary (run_parallel defers merges so worker threads
  // only ever read the store).
  struct PendingMerge {
    FaultPlan plan;
    std::vector<ExperimentSnapshot> snapshots;
    std::vector<StateSample> trace;
    std::vector<ModeTransition> transitions;
  };

  // Applies one result: budget charge, counters, strategy feedback, unsafe
  // record, and — when the run was recorded for the checkpoint tree
  // (`captured` non-null and non-empty) — the tree merge, inline when
  // `deferred` is null or queued onto it otherwise. Unsafe runs are never
  // merged: the strategies only extend bug-free chains.
  void p_apply(CheckerReport& report, InjectionStrategy& strategy, BudgetClock& budget,
               const FaultPlan& plan, ExperimentResult result,
               std::vector<ExperimentSnapshot>* captured, std::vector<PendingMerge>* deferred) {
    budget.charge_experiment(result.duration_ms);
    ++report.experiments;
    // Before the moves below: unsafe runs donate their transitions to the
    // UnsafeRecord and bug-free captured runs to the tree merge.
    accumulate_run_coverage(report.edge_coverage, plan, result.transitions);
    if (result.resumed_from_ms > 0) {
      ++report.checkpoint_hits;
      report.checkpoint_skipped_ms += result.resumed_from_ms;
      const auto level = static_cast<std::size_t>(result.resumed_depth);
      if (report.checkpoint_hits_by_level.size() <= level) {
        report.checkpoint_hits_by_level.resize(level + 1, 0);
      }
      ++report.checkpoint_hits_by_level[level];
    } else if (checkpoints_) {
      ++report.checkpoint_misses;
    }
    if (!result.unsafe() &&
        result.duration_ms >= model_->profiling_duration_ms() + kSettleMs) {
      ++report.stalled_runs;
    }
    strategy.feedback(plan, result);
    if (result.unsafe()) {
      UnsafeRecord record;
      record.plan = plan;
      record.violation = *result.violation;
      record.fired_bugs = result.fired_bugs;
      record.transitions = std::move(result.transitions);
      record.seed = prototype_.seed;
      record.experiment_index = report.experiments;
      for (fw::BugId id : record.fired_bugs) {
        report.bug_first_found.try_emplace(id, report.experiments);
      }
      report.unsafe.push_back(std::move(record));
    } else if (captured != nullptr && !captured->empty() && checkpoints_) {
      if (deferred == nullptr) {
        checkpoints_->merge_run(plan, std::move(*captured), std::move(result.trace),
                                std::move(result.transitions));
      } else {
        deferred->push_back(PendingMerge{plan, std::move(*captured), std::move(result.trace),
                                         std::move(result.transitions)});
      }
    }
  }

  ExperimentSpec prototype_;
  CheckpointConfig checkpoint_config_;
  SimulationHarness harness_;
  ExperimentContextPool contexts_;
  BatchHarnessPool engines_;
  int batch_width_ = 0;  // 0 = auto (kAutoBatchWidth)
  std::optional<MonitorModel> model_;
  std::optional<CheckpointStore> checkpoints_;
};

}  // namespace avis::core
