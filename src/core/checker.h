// The checker loop: drives one search strategy against one (firmware
// personality, workload) pair under a budget, collecting every unsafe
// condition found. This is the outer loop all of Tables II-V run through.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

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
  // are bit-identical across worker counts and checkpoint modes, so it is
  // part of report identity at every checkpoint setting (the checkpoint_*
  // counters below are identical only between runs with the same
  // checkpoint configuration).
  CoverageMap edge_coverage;

  // Checkpointed prefix forking observability (docs/PERFORMANCE.md): how
  // many experiments restored a recorded prefix snapshot (hit) vs simulated
  // from scratch despite an available store (miss — the plan injects before
  // the first snapshot; with checkpointing disabled both counters stay 0),
  // how many snapshots the store evicted to fit its byte budget, and the
  // total simulated milliseconds the restores skipped.
  // Wall-clock accounting only: the reported experiments, budget charges
  // and unsafe records are bit-identical with checkpointing on or off.
  // Under one checkpoint configuration every checkpoint_* counter is a
  // function of the applied plan sequence: tree merges land at wave
  // boundaries at every worker count and a strategy proposes a chain's
  // parent in an earlier wave than its children, so runs at different
  // worker counts count identically (report-identity checks compare them
  // exactly).
  int checkpoint_hits = 0;
  int checkpoint_misses = 0;
  int checkpoint_evicted = 0;
  sim::SimTimeMs checkpoint_skipped_ms = 0;
  // Per-level restore counters (checkpoint trees): index 0 counts restores
  // from the fault-free root, index d >= 1 restores from a tree snapshot
  // with d injections already activated. Sums to checkpoint_hits. Sized to
  // the deepest level hit.
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

  // Slack every experiment gets past the profiled mission duration before
  // it is cut off (p_make_spec); a safe run that uses all of it counts as
  // stalled (CheckerReport::stalled_runs).
  static constexpr sim::SimTimeMs kSettleMs = 45000;
  // Plans requested per worker per wave: enough to keep every worker busy
  // while the caller thread applies results. Strategies may return fewer
  // (SABRE stops at its expansion-wave boundary to preserve the plan
  // sequence), and near the budget boundary p_adaptive_width shrinks the
  // request. A strategy's plan sequence is independent of the request size
  // (the next_batch contract), so this moves wall clock only.
  static constexpr int kWavePlansPerWorker = 8;

  // The checker loop at one worker: every plan is simulated inline on the
  // caller thread, so a plan past the discard boundary is never simulated.
  CheckerReport run(InjectionStrategy& strategy, BudgetClock& budget) {
    return run_parallel(strategy, budget, 1);
  }

  // The checker loop: strategies hand out a wave of independent plans, each
  // plan is simulated by SimulationHarness::run on a pooled context, and
  // results are applied on this thread in submission order. Above one
  // worker the plans are queued on a private pool of `workers - 1` threads
  // and run caller-runs (the shared-pool overload below): this thread is
  // the remaining worker. Budget charging, feedback() and UnsafeRecord
  // collection are therefore single-threaded, so BudgetClock needs no
  // locking and the report is a function of the plan sequence alone,
  // identical at every worker count. If the budget exhausts mid-wave, the
  // rest of the wave is cancelled: plans that have not started are dropped
  // unsimulated, and no result past the boundary is applied. Those
  // discarded plans were already consumed from the strategy, so a strategy
  // object that went through a campaign should not be resumed with a fresh
  // budget (no current caller does). See docs/PERFORMANCE.md.
  CheckerReport run_parallel(InjectionStrategy& strategy, BudgetClock& budget, int workers) {
    workers = std::max(workers, 1);
    if (workers == 1) return p_run(strategy, budget, 1, nullptr);
    util::ThreadPool pool(workers - 1);
    return p_run(strategy, budget, workers, &pool);
  }

  // The same loop on a pool shared with other callers (the campaign's one
  // pool, core/campaign.cc), caller-runs: this thread claims and simulates,
  // in submission order, every plan of its wave that no pool thread has
  // started, and blocks only when every remaining plan of the wave is
  // already running elsewhere. While every pool thread is busy elsewhere
  // this is exactly the one-worker loop; threads that free up take queued
  // plans. `workers` sizes the wave (kWavePlansPerWorker plans per worker);
  // it moves wall clock only, never the report.
  CheckerReport run_parallel(InjectionStrategy& strategy, BudgetClock& budget, int workers,
                             util::ThreadPool& shared) {
    return p_run(strategy, budget, std::max(workers, 1), &shared);
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
  // One simulated plan: its result and, when the run was recorded for the
  // checkpoint tree, the captured snapshots.
  struct PlanOutput {
    ExperimentResult result;
    std::vector<ExperimentSnapshot> captures;
  };
  using PlanTask = util::ClaimableTask<PlanOutput>;

  // The wave loop behind both run_parallel overloads, caller-runs. Without
  // a pool every plan runs inline; with one, every plan but the wave's
  // first is queued as a claimable task that this thread or a pool thread
  // runs (p_claim).
  CheckerReport p_run(InjectionStrategy& strategy, BudgetClock& budget, int workers,
                      util::ThreadPool* pool) {
    const MonitorModel& monitor = model();
    // Recorded on this thread before any plan is dispatched; simulations
    // then share the store strictly read-only. Tree merges are deferred to
    // the end of each wave (below) to keep that invariant.
    const CheckpointStore* checkpoints = p_checkpoints(monitor);
    // Per-campaign tree: every campaign over this checker starts from an
    // empty tree so its hit counters (and plan recordings) are a function
    // of the campaign alone, not of which strategies ran before it.
    if (checkpoints_) checkpoints_->clear_tree();
    const int capture_limit =
        checkpoints != nullptr && checkpoints->trees_enabled() ? strategy.chain_extension_limit()
                                                               : 0;
    // Set by the apply loop at the discard boundary; ends the campaign.
    std::atomic<bool> cancelled{false};
    // One plan, start to finish, on whichever context the pool hands out,
    // so consecutive plans reset a world in place instead of reallocating
    // it (the arena-reuse contract). Plans the strategy may later extend
    // (at most capture_limit events) are recorded for the checkpoint tree.
    // An exception skips the release and simply retires the context.
    const auto simulate = [this, &monitor, checkpoints, capture_limit,
                           &cancelled](const FaultPlan& plan) {
      PlanOutput out;
      if (cancelled.load(std::memory_order_relaxed)) return out;
      const ExperimentSpec spec = p_make_spec(plan, monitor);
      std::optional<TreeCapture> capture;
      if (!plan.events.empty() && static_cast<int>(plan.events.size()) <= capture_limit) {
        capture.emplace(plan_tree_capture(spec, checkpoints->config()));
      }
      auto context = contexts_.acquire();
      out.result = harness_.run(spec, &monitor, context.get(), checkpoints,
                                capture ? &*capture : nullptr);
      contexts_.release(std::move(context));
      if (capture) out.captures = std::move(capture->snapshots);
      return out;
    };
    CheckerReport report;
    report.strategy_name = strategy.name();
    std::vector<PendingMerge> deferred;
    while (!cancelled.load(std::memory_order_relaxed) && !budget.exhausted()) {
      std::vector<FaultPlan> plans = strategy.next_batch(
          budget, p_adaptive_width(budget, kWavePlansPerWorker * workers));
      if (plans.empty()) break;
      // One task per plan, each owning a copy of its plan: a wave of ~10
      // plans keeps every worker busy, and a task never reads this loop's
      // storage. Declared after everything the tasks reference: destroying
      // the wave (also when an exception unwinds this frame) drops the
      // tasks nobody started and waits for the ones running elsewhere.
      // A wave's first plan is never queued: this thread claims it first
      // anyway, and a one-plan wave (the BFI baselines) then costs no queue
      // traffic and wakes no thread.
      std::vector<PlanTask> wave;
      wave.reserve(plans.size());
      for (const FaultPlan& plan : plans) {
        auto task = [&simulate, plan] { return simulate(plan); };
        const bool queued = pool != nullptr && !wave.empty();
        wave.push_back(queued ? pool->submit_claimable(std::move(task))
                              : PlanTask(std::move(task)));
      }
      // Apply in submission order — the proposal order. Result 0 is always
      // applied: any plan next() returns is run and applied, even when
      // proposal-side charges (BFI's labels) crossed the budget limit while
      // producing it. Once the budget exhausts, every later result is
      // discarded; at one worker, or while every pool thread is busy
      // elsewhere, such a plan is never simulated at all.
      std::size_t ahead = 0;  // every plan before it has started
      for (std::size_t i = 0; i < plans.size(); ++i) {
        if (i > 0 && budget.exhausted()) {
          cancelled.store(true, std::memory_order_relaxed);
          break;
        }
        p_apply(report, strategy, budget, plans[i], p_claim(wave, i, ahead), deferred);
      }
      // The tree may only be mutated once no task reads it. After a cancel,
      // tasks already running finish their (discarded) simulation and the
      // rest are dropped unrun.
      wave.clear();
      // Merging at the wave boundary (not inside p_apply) is what lets the
      // next wave's children resolve their parents' recordings without a
      // simulation ever observing a mutation — at every worker count, so
      // the checkpoint counters do not depend on it.
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

  // Caller-runs: plan i's output, simulated on this thread unless another
  // thread started it first. While plan i runs elsewhere, this thread
  // simulates the wave's next plan that nobody has started (its output, or
  // its exception, waits in its task until its turn to be applied, and is
  // dropped with the wave on a cancel), and blocks on plan i only once
  // every remaining plan is running elsewhere — so it never waits on a task
  // that has not started. `ahead` only grows: every plan before it has
  // started. get() rethrows plan i's error.
  static PlanOutput p_claim(std::vector<PlanTask>& wave, std::size_t i, std::size_t& ahead) {
    for (;;) {
      if (wave[i].run_here() || wave[i].ready()) return wave[i].get();
      ahead = std::max(ahead, i + 1);
      while (ahead < wave.size() && !wave[ahead].run_here()) ++ahead;
      if (ahead == wave.size()) return wave[i].get();
    }
  }

  // One finished directed run waiting to be merged into the checkpoint
  // tree at the wave boundary (merges are deferred so simulations only ever
  // read the store).
  struct PendingMerge {
    FaultPlan plan;
    std::vector<ExperimentSnapshot> snapshots;
    std::vector<StateSample> trace;
    std::vector<ModeTransition> transitions;
  };

  // Applies one result: budget charge, counters, strategy feedback, unsafe
  // record, and — when the run was recorded for the checkpoint tree
  // (non-empty captures) — a tree merge queued onto `deferred`. Unsafe runs
  // are never merged: the strategies only extend bug-free chains.
  void p_apply(CheckerReport& report, InjectionStrategy& strategy, BudgetClock& budget,
               const FaultPlan& plan, PlanOutput out, std::vector<PendingMerge>& deferred) {
    ExperimentResult& result = out.result;
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
    } else if (!out.captures.empty() && checkpoints_) {
      deferred.push_back(PendingMerge{plan, std::move(out.captures), std::move(result.trace),
                                      std::move(result.transitions)});
    }
  }

  ExperimentSpec prototype_;
  CheckpointConfig checkpoint_config_;
  SimulationHarness harness_;
  ExperimentContextPool contexts_;
  std::optional<MonitorModel> model_;
  std::optional<CheckpointStore> checkpoints_;
};

}  // namespace avis::core
