// campaign_bench: the benchmark's binary. Each invocation does one
// job and prints one JSON line; campaign_bench/run.py orchestrates them.
//
//   campaign_bench host
//   campaign_bench setup    --workload W [--seed N] [--budget-ms MS] [--samples S]
//                           [--offset K]
//   campaign_bench campaign --workload W [--seed N] [--budget-ms MS]
//   campaign_bench trace    --workload W [--seed N] [--budget-ms MS]
//
// host      compiler, build type, NDEBUG and worker budget of this build.
// setup     per-cell calibration (Checker construction, model(),
//           checkpoint_store()), run single-threaded and timed in the
//           thread's CPU seconds, which host steal does not inflate: S
//           setups of the grid's cells in grid order, starting at cell K
//           and wrapping.
// campaign  one CampaignRunner::run of the workload's grid, untraced: wall,
//           process CPU, and each cell's outcome digest and report counters.
// trace     the traced pass (traced_pass.h).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "common.h"
#include "core/checker.h"
#include "traced_pass.h"

namespace avis::bench {
namespace {

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 100;
  sim::SimTimeMs budget_ms = 7200 * 1000;
  int samples = 1;
  int offset = 0;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing command");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("flag without value: " + std::string(flag));
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--budget-ms") {
      args.budget_ms = std::stoll(value);
    } else if (flag == "--samples") {
      args.samples = std::stoi(value);
    } else if (flag == "--offset") {
      args.offset = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown flag: " + std::string(flag));
    }
  }
  if (args.samples < 1 || args.offset < 0) {
    throw std::invalid_argument("--samples must be >= 1, --offset >= 0");
  }
  return args;
}

std::string host_json() {
#ifdef NDEBUG
  constexpr bool kNdebug = true;
#else
  constexpr bool kNdebug = false;
#endif
  return JsonLine()
      .str("compiler", AVIS_BENCH_COMPILER)
      .str("build_type", AVIS_BENCH_BUILD_TYPE)
      .boolean("ndebug", kNdebug)
      .num("workers", bench_workers())
      .done();
}

std::string setup_json(const core::ScenarioGrid& grid, int samples, int offset) {
  std::vector<std::string> cells;
  const std::vector<core::ScenarioSpec> scenarios = grid.expand();
  for (int i = 0; i < samples; ++i) {
    const core::ScenarioSpec& scenario =
        scenarios[static_cast<std::size_t>(offset + i) % scenarios.size()];
    const double t0 = thread_cpu_s();
    core::Checker checker(core::scenario_prototype(scenario), core::CheckpointConfig{});
    checker.model();
    const double t1 = thread_cpu_s();
    checker.checkpoint_store();
    const double t2 = thread_cpu_s();
    cells.push_back(JsonLine()
                        .str("name", cell_name(scenario))
                        .num("setup_s", t2 - t0)
                        .num("profile_s", t1 - t0)
                        .num("prefix_record_s", t2 - t1)
                        .done());
  }
  return JsonLine().raw("cells", json_array(cells)).done();
}

std::string campaign_json(const core::ScenarioGrid& grid) {
  const core::CampaignRunner runner(bench_campaign_options());
  const std::vector<core::CampaignCellSpec> cells = core::expand_to_cells(grid);
  const util::WorkerBudget split = runner.worker_split(cells.size());
  JsonLine out;
  out.num("cell_workers", split.campaign_workers)
      .num("experiment_workers", split.experiment_workers)
      .num("cells_attempted", static_cast<int>(cells.size()));
  const double cpu0 = process_cpu_s();
  const double wall0 = wall_now_s();
  core::CampaignResult result;
  try {
    result = runner.run(cells);
  } catch (const std::exception& e) {
    // CampaignRunner surfaces the first cell exception; the campaign's
    // cells all count as failed.
    return out.str("error", e.what()).done();
  }
  const double wall = wall_now_s() - wall0;
  const double cpu = process_cpu_s() - cpu0;
  std::vector<std::string> cell_items;
  for (const core::CampaignCellResult& cell : result.cells) {
    const core::CheckerReport& r = cell.report;
    cell_items.push_back(JsonLine()
                             .str("name", cell_name(cell.spec.scenario))
                             .str("digest", outcome_digest(r))
                             .num("experiments", r.experiments)
                             .num("unsafe", r.unsafe_count())
                             .num("wall_s", cell.wall_seconds)
                             .num("charged_ms", charged_experiment_ms(r))
                             .num("skipped_ms", r.checkpoint_skipped_ms)
                             .num("hits", r.checkpoint_hits)
                             .num("misses", r.checkpoint_misses)
                             .num("tree_hits", tree_hits(r))
                             .done());
  }
  return out.num("wall_s", wall)
      .num("cpu_s", cpu)
      .num("experiments", result.total_experiments())
      .raw("cells", json_array(cell_items))
      .done();
}

std::string stage_json(const StageTimes& s) {
  return JsonLine()
      .num("stepped_ms", s.stepped_ms)
      .num("total_ns", s.total_ns)
      .num("gcs_ns", s.gcs_ns)
      .num("estimator_ns", s.estimator_ns)
      .num("control_ns", s.control_ns)
      .num("cascade_ns", s.cascade_ns)
      .num("sim_ns", s.sim_ns)
      .num("monitor_ns", s.monitor_ns)
      .num("other_ns", s.other_ns())
      .done();
}

std::string trace_json(const core::ScenarioGrid& grid) {
  const TracedPass pass = run_traced_pass(grid);
  std::vector<std::string> cells;
  for (const TracedCell& c : pass.cells) {
    cells.push_back(JsonLine()
                        .str("name", c.name)
                        .str("digest", c.digest)
                        .str("error", c.error)
                        .num("workers", c.workers)
                        .num("profile_s", c.profile_s)
                        .num("prefix_record_s", c.prefix_record_s)
                        .num("setup_cpu_s", c.setup_cpu_s)
                        .num("search_wall_s", c.search_wall_s)
                        .num("search_cpu_s", c.search_cpu_s)
                        .num("wave_wall_s", c.wave_wall_s)
                        .num("wave_cpu_s", c.wave_cpu_s)
                        .num("waves", c.waves)
                        .num("proposed", c.proposed)
                        .num("applied", c.applied)
                        .num("propose_ns", c.propose_ns)
                        .num("feedback_ns", c.feedback_ns)
                        .num("charged_ms", c.charged_ms)
                        .num("skipped_ms", c.skipped_ms)
                        .num("batch_ms", c.batch_ms)
                        .num("scalar_ms", c.scalar_ms)
                        .num("hits", c.hits)
                        .num("misses", c.misses)
                        .num("tree_hits", c.tree_hits)
                        .done());
  }
  const LayerTimes& l = pass.layers;
  const std::string layers = JsonLine()
                                 .raw("scalar", stage_json(l.scalar))
                                 .raw("batch", stage_json(l.batch))
                                 .num("monitor_samples", l.monitor_samples)
                                 .num("hinj_reads", l.hinj_reads)
                                 .num("captures", l.captures)
                                 .num("capture_ns", l.capture_ns)
                                 .num("restore_ns", l.restore_ns)
                                 .done();
  return JsonLine()
      .raw("cells", json_array(cells))
      .raw("layers", layers)
      .num("engine_ns", pass.engine_ns)
      .num("replayed", pass.replayed)
      .num("mismatches", pass.mismatches)
      .str("first_mismatch", pass.first_mismatch)
      .num("resolve_ns", pass.resolve_ns)
      .num("resolves", pass.resolves)
      .done();
}

int run(const Args& args) {
  if (args.command == "host") {
    std::puts(host_json().c_str());
    return 0;
  }
  const core::ScenarioGrid grid = workload_grid(args.workload, args.seed, args.budget_ms);
  std::string out;
  if (args.command == "setup") {
    out = setup_json(grid, args.samples, args.offset);
  } else if (args.command == "campaign") {
    out = campaign_json(grid);
  } else if (args.command == "trace") {
    out = trace_json(grid);
  } else {
    throw std::invalid_argument("unknown command: " + args.command);
  }
  std::puts(out.c_str());
  return 0;
}

}  // namespace
}  // namespace avis::bench

int main(int argc, char** argv) {
  try {
    return avis::bench::run(avis::bench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}
