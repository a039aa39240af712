// End-to-end checker throughput (google-benchmark).
//
// The paper's evaluation hinges on experiments-per-budget (§VI, Tables
// II-V): whichever checker runs the most experiments in the 2-hour window
// finds the most unsafe conditions. These benches measure (a) raw harness
// throughput — experiments/sec for a single thread — and (b) full checker
// campaigns at 1/2/4/8 workers, so the parallel execution layer's speedup
// (and any regression to it) shows up directly in the perf trajectory.
//
// Wall-clock (real time) is the measured quantity: the whole point of the
// worker pool is to trade idle cores for elapsed time. items/s in the
// output is experiments per wall second.
#include <benchmark/benchmark.h>

#include <ctime>

#include "common.h"
#include "core/batch_harness.h"
#include "core/campaign.h"
#include "core/checker.h"
#include "core/sabre.h"

using namespace avis;

namespace {

// One calibrated checker shared by every bench in this binary: profiling
// (3 golden runs) is paid once, and every campaign reuses the same monitor
// model, exactly as Checker::run does across strategies.
core::Checker& shared_checker() {
  static core::Checker checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto,
                               fw::BugRegistry::current_code_base());
  return checker;
}

// Per-campaign simulated budget. Big enough for several SABRE expansion
// waves (tens of experiments) so worker-pool ramp-up amortizes; small
// enough that a serial campaign completes in a few seconds of wall time.
constexpr sim::SimTimeMs kCampaignBudgetMs = 600 * 1000;

// User + system CPU of every thread in the process, in seconds.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

// Single-experiment hot path: fault-free monitored runs at batch width N.
// Arg(0) is SimulationHarness::run, the path every campaign experiment
// takes; widths >= 1 go through the lockstep batch engine (the reference
// the SoA blocks are measured against; no campaign path runs it). items/s
// is experiments per wall second, so the two engines compare directly off
// the 0 vs 1/4/8 rows.
static void BM_SingleExperiment(benchmark::State& state) {
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  core::Checker& checker = shared_checker();
  const core::MonitorModel& model = checker.model();
  std::vector<core::ExperimentSpec> specs(std::max<std::size_t>(width, 1));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    core::ExperimentSpec& spec = specs[i];
    spec.personality = checker.personality();
    spec.workload = checker.workload();
    spec.bugs = checker.bugs();
    spec.seed = 100 + i;
    spec.max_duration_ms = model.profiling_duration_ms() + 45000;
  }
  core::BatchHarness engine(checker.harness());
  std::int64_t experiments = 0;
  for (auto _ : state) {
    if (width == 0) {
      benchmark::DoNotOptimize(checker.harness().run(specs[0], &model));
      experiments += 1;
    } else {
      benchmark::DoNotOptimize(engine.run(specs, &model));
      experiments += static_cast<std::int64_t>(width);
    }
  }
  state.SetItemsProcessed(experiments);
}
BENCHMARK(BM_SingleExperiment)->Arg(0)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// Full SABRE campaign at N workers. Arg(1) simulates every plan inline on
// the caller thread; higher counts dispatch each plan of a wave to the
// worker pool. The
// reports are identical by construction (see tests/test_checker_parallel.cc),
// so the runs are directly comparable: items/s is experiments per wall
// second, real_time per iteration is the campaign wall time, and
// cpu_s_per_experiment is process CPU (all threads) per applied experiment,
// which shows what the wall-time speedup costs in CPU.
static void BM_CheckerCampaign(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  core::Checker& checker = shared_checker();
  const core::MonitorModel& model = checker.model();
  // Record the checkpoint prefix before timing: otherwise the first timed
  // iteration pays for it, and at --benchmark_min_time=0.01 the single
  // iteration of the /1 row would time setup instead of the campaign.
  checker.checkpoint_store();
  const auto suite = core::SimulationHarness::iris_suite();

  std::int64_t experiments = 0;
  const double cpu_start_s = process_cpu_seconds();
  for (auto _ : state) {
    core::SabreScheduler sabre(suite, model.golden_transitions());
    core::BudgetClock budget(kCampaignBudgetMs);
    const core::CheckerReport report = checker.run_parallel(sabre, budget, workers);
    experiments += report.experiments;
    benchmark::DoNotOptimize(report);
  }
  const double cpu_s = process_cpu_seconds() - cpu_start_s;
  state.SetItemsProcessed(experiments);
  state.counters["experiments/campaign"] = benchmark::Counter(
      static_cast<double>(experiments) / static_cast<double>(state.iterations()));
  state.counters["cpu_s_per_experiment"] =
      benchmark::Counter(experiments > 0 ? cpu_s / static_cast<double>(experiments) : 0.0);
}
BENCHMARK(BM_CheckerCampaign)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kSecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// Whole-campaign sharding: a 4-cell Avis grid (both personalities x both
// default workloads) run at N concurrent cells with one experiment worker
// per cell, so the campaign's one pool has N threads. At N >= 2 a thread
// whose cell is done runs the plans the unfinished cells have queued, so
// the wall time measures the whole pool (cells plus that help), not cells
// alone; N = 1 runs the cells one after another on the pool's one thread.
// experiments/campaign must not vary with N — each cell's report is
// bit-identical to its serial run (tests/test_campaign.cc).
static void BM_CampaignGrid(benchmark::State& state) {
  const int cell_workers = static_cast<int>(state.range(0));
  const auto grid = bench::evaluation_grid({"avis"}, /*budget_ms=*/kCampaignBudgetMs);
  core::CampaignOptions options;
  options.cell_workers = cell_workers;
  options.experiment_workers = 1;
  const core::CampaignRunner runner(options);

  std::int64_t experiments = 0;
  for (auto _ : state) {
    const core::CampaignResult result = runner.run(grid);
    experiments += result.total_experiments();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(experiments);
  state.counters["experiments/campaign"] = benchmark::Counter(
      static_cast<double>(experiments) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CampaignGrid)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kSecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

BENCHMARK_MAIN();
