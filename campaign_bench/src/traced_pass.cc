#include "traced_pass.h"

#include <algorithm>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "common.h"
#include "core/batch_harness.h"
#include "core/checker.h"
#include "core/harness.h"
#include "util/checked.h"
#include "util/thread_pool.h"

namespace avis::bench {

namespace {

struct AppliedPlan {
  core::FaultPlan plan;
  sim::SimTimeMs duration_ms = 0;
  bool unsafe = false;
};

// Forwards every call to the cell's real strategy, timing proposal and
// feedback and sampling CPU and wall time at each wave (one next_batch call
// to the next). Cells with one experiment worker run entirely on their own
// thread, so their CPU is that thread's; a cell with an experiment pool runs
// alone in the process, so its CPU is the process's.
class TimedStrategy final : public core::InjectionStrategy {
 public:
  TimedStrategy(core::InjectionStrategy& inner, bool process_cpu)
      : inner_(&inner), process_cpu_(process_cpu) {}

  // The checker proposes through next_batch only.
  std::optional<core::FaultPlan> next(core::BudgetClock& budget) override {
    return inner_->next(budget);
  }

  std::vector<core::FaultPlan> next_batch(core::BudgetClock& budget, int max_plans) override {
    p_close_wave();
    const double wave_wall = wall_now_s();
    const double wave_cpu = p_cpu();
    const std::int64_t t0 = wall_now_ns();
    std::vector<core::FaultPlan> plans = inner_->next_batch(budget, max_plans);
    propose_ns += wall_now_ns() - t0;
    proposed += static_cast<int>(plans.size());
    if (!plans.empty()) open_wave_ = {{wave_wall, wave_cpu}};
    return plans;
  }

  void feedback(const core::FaultPlan& plan, const core::ExperimentResult& result) override {
    const std::int64_t t0 = wall_now_ns();
    inner_->feedback(plan, result);
    feedback_ns += wall_now_ns() - t0;
    applied_plans.push_back({plan, result.duration_ms, result.unsafe()});
    charged_ms += result.duration_ms;
    // BatchHarness steps a lane's SoA blocks from its resume point until the
    // plan's first injection (or the run's end), the scalar loop after that.
    const sim::SimTimeMs batched =
        std::max<sim::SimTimeMs>(0, std::min(plan.first_injection_ms(), result.duration_ms) -
                                        result.resumed_from_ms);
    batch_ms += batched;
    scalar_ms += result.duration_ms - result.resumed_from_ms - batched;
  }

  int chain_extension_limit() const override { return inner_->chain_extension_limit(); }
  const char* name() const override { return inner_->name(); }

  // Closes the last wave once the checker returns.
  void finish() { p_close_wave(); }

  std::int64_t propose_ns = 0;
  std::int64_t feedback_ns = 0;
  int proposed = 0;
  int waves = 0;
  double wave_wall_s = 0.0;
  double wave_cpu_s = 0.0;
  std::int64_t charged_ms = 0;
  std::int64_t batch_ms = 0;
  std::int64_t scalar_ms = 0;
  std::vector<AppliedPlan> applied_plans;

 private:
  struct WaveStart {
    double wall;
    double cpu;
  };

  double p_cpu() const { return process_cpu_ ? process_cpu_s() : thread_cpu_s(); }

  void p_close_wave() {
    if (!open_wave_) return;
    wave_wall_s += wall_now_s() - open_wave_->wall;
    wave_cpu_s += p_cpu() - open_wave_->cpu;
    ++waves;
    open_wave_.reset();
  }

  core::InjectionStrategy* inner_;
  bool process_cpu_;
  std::optional<WaveStart> open_wave_;
};

// What a driven cell leaves behind for the replay: its checker (prototype,
// monitor model, checkpoint store) and the plans it applied.
struct DrivenCell {
  TracedCell stats;
  std::unique_ptr<core::Checker> checker;
  const core::MonitorModel* model = nullptr;
  const core::CheckpointStore* store = nullptr;
  std::vector<AppliedPlan> applied;
};

DrivenCell drive_cell(const core::ScenarioSpec& scenario, int workers) {
  DrivenCell cell;
  TracedCell& s = cell.stats;
  s.name = cell_name(scenario);
  s.workers = workers;
  const bool process_cpu = workers > 1;
  const auto cpu = [process_cpu] { return process_cpu ? process_cpu_s() : thread_cpu_s(); };

  const double c0 = cpu();
  const double t0 = wall_now_s();
  cell.checker =
      std::make_unique<core::Checker>(core::scenario_prototype(scenario), core::CheckpointConfig{});
  cell.model = &cell.checker->model();
  const double t1 = wall_now_s();
  cell.store = cell.checker->checkpoint_store();
  const double t2 = wall_now_s();
  s.profile_s = t1 - t0;
  s.prefix_record_s = t2 - t1;
  s.setup_cpu_s = cpu() - c0;

  std::unique_ptr<core::InjectionStrategy> strategy =
      core::make_scenario_strategy(scenario, *cell.model);
  TimedStrategy timed(*strategy, process_cpu);
  core::BudgetClock budget(scenario.budget_ms);
  const double c3 = cpu();
  const double t3 = wall_now_s();
  const core::CheckerReport report = cell.checker->run_parallel(timed, budget, workers);
  timed.finish();
  s.search_wall_s = wall_now_s() - t3;
  s.search_cpu_s = cpu() - c3;

  s.digest = outcome_digest(report);
  s.waves = timed.waves;
  s.wave_wall_s = timed.wave_wall_s;
  s.wave_cpu_s = timed.wave_cpu_s;
  s.proposed = timed.proposed;
  s.applied = report.experiments;
  s.propose_ns = timed.propose_ns;
  s.feedback_ns = timed.feedback_ns;
  s.charged_ms = charged_experiment_ms(report);
  s.skipped_ms = report.checkpoint_skipped_ms;
  s.batch_ms = timed.batch_ms;
  s.scalar_ms = timed.scalar_ms;
  s.hits = report.checkpoint_hits;
  s.misses = report.checkpoint_misses;
  s.tree_hits = tree_hits(report);
  // The wrapper sees every applied experiment exactly once.
  util::expects(static_cast<int>(timed.applied_plans.size()) == report.experiments &&
                    timed.charged_ms == s.charged_ms &&
                    s.batch_ms + s.scalar_ms == s.charged_ms - s.skipped_ms,
                "strategy wrapper missed applied experiments");
  cell.applied = std::move(timed.applied_plans);
  return cell;
}

struct ReplayOutcome {
  LayerTimes layers;
  std::int64_t engine_ns = 0;
  std::string mismatch;
};

ReplayOutcome replay(const DrivenCell& cell, const AppliedPlan& applied) {
  ReplayOutcome out;
  core::ExperimentSpec spec = cell.checker->prototype();
  spec.plan = applied.plan;
  spec.max_duration_ms = cell.model->profiling_duration_ms() + core::Checker::kSettleMs;
  const std::int64_t interval =
      cell.store != nullptr ? cell.store->config().interval_ms : core::CheckpointConfig{}.interval_ms;
  try {
    const core::ExperimentResult traced = run_traced(spec, *cell.model, interval, out.layers);
    const core::ExperimentResult reference = core::SimulationHarness{}.run(spec, cell.model);

    // The engine the checker runs every experiment through, cold and one
    // lane wide: traced.overhead_frac is taken against its time.
    const core::SimulationHarness harness;
    core::BatchHarness engine(harness);
    const std::int64_t e0 = wall_now_ns();
    const std::vector<core::ExperimentResult> batched = engine.run({spec}, cell.model);
    out.engine_ns = wall_now_ns() - e0;

    out.mismatch = compare_results(traced, reference);
    if (out.mismatch.empty()) {
      const std::string engine = compare_results(batched.at(0), reference);
      if (!engine.empty()) out.mismatch = "BatchHarness " + engine;
    }
    if (out.mismatch.empty() &&
        (traced.duration_ms != applied.duration_ms || traced.unsafe() != applied.unsafe)) {
      out.mismatch = "campaign outcome";
    }
  } catch (const std::exception& e) {
    out.mismatch = std::string("threw: ") + e.what();
  }
  if (!out.mismatch.empty()) out.mismatch = cell.stats.name + ": " + out.mismatch;
  return out;
}

}  // namespace

TracedPass run_traced_pass(const core::ScenarioGrid& grid) {
  const std::vector<core::ScenarioSpec> scenarios = grid.expand();
  const core::CampaignRunner runner(bench_campaign_options());
  const util::WorkerBudget split = runner.worker_split(scenarios.size());
  util::expects(split.campaign_workers == 1 || split.experiment_workers == 1,
                "traced pass attributes CPU per cell: cells and experiments cannot both be "
                "parallel");

  std::vector<DrivenCell> cells;
  {
    util::ThreadPool pool(split.campaign_workers);
    std::vector<std::future<DrivenCell>> futures;
    for (const core::ScenarioSpec& scenario : scenarios) {
      futures.push_back(pool.submit([&scenario, workers = split.experiment_workers] {
        // A cell that throws is reported as failed; the others still run.
        try {
          return drive_cell(scenario, workers);
        } catch (const std::exception& e) {
          DrivenCell failed;
          failed.stats.name = cell_name(scenario);
          failed.stats.workers = workers;
          failed.stats.error = e.what();
          return failed;
        }
      }));
    }
    for (auto& future : futures) cells.push_back(future.get());
  }

  TracedPass pass;
  for (const DrivenCell& cell : cells) pass.cells.push_back(cell.stats);

  // Evenly spaced sample of each cell's applied plans.
  const std::size_t per_cell =
      std::max<std::size_t>(1, (static_cast<std::size_t>(kReplayPlans) + cells.size() - 1) /
                                   cells.size());
  std::vector<std::pair<const DrivenCell*, const AppliedPlan*>> sample;
  for (const DrivenCell& cell : cells) {
    const std::size_t n = cell.applied.size();
    const std::size_t k = std::min(per_cell, n);
    for (std::size_t j = 0; j < k; ++j) sample.emplace_back(&cell, &cell.applied[j * n / k]);
  }

  {
    util::ThreadPool pool(bench_workers());
    std::vector<std::future<ReplayOutcome>> futures;
    for (const auto& [cell, applied] : sample) {
      futures.push_back(pool.submit([cell, applied] { return replay(*cell, *applied); }));
    }
    for (auto& future : futures) {
      const ReplayOutcome out = future.get();
      pass.layers.add(out.layers);
      pass.engine_ns += out.engine_ns;
      ++pass.replayed;
      if (!out.mismatch.empty()) {
        if (pass.mismatches == 0) pass.first_mismatch = out.mismatch;
        ++pass.mismatches;
      }
    }
  }

  // Resolve cost against each cell's final store (root plus tree).
  constexpr int kResolveRepeats = 200;
  std::int64_t sink = 0;
  for (const auto& [cell, applied] : sample) {
    if (cell->store == nullptr) continue;
    const std::int64_t t0 = wall_now_ns();
    for (int i = 0; i < kResolveRepeats; ++i) sink += cell->store->resolve(applied->plan).depth;
    pass.resolve_ns += wall_now_ns() - t0;
    pass.resolves += kResolveRepeats;
  }
  util::expects(sink >= 0, "resolve depth is never negative");
  return pass;
}

}  // namespace avis::bench
