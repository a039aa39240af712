// The traced pass: drives every cell of a workload by hand through public
// calls (scenario_prototype, Checker, model(), checkpoint_store(),
// run/run_parallel) with the strategy wrapped in a timing forwarder, then
// replays a sample of each cell's applied plans cold through the traced
// loop, through SimulationHarness::run and through core::BatchHarness, and
// compares them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "traced_loop.h"

namespace avis::bench {

struct TracedCell {
  std::string name;
  std::string digest;  // empty when the cell threw
  std::string error;   // what the cell threw, if it did
  int workers = 1;  // the cell's experiment workers
  // Setup, on the cell's thread.
  double profile_s = 0.0;       // Checker::model(): three profiling runs
  double prefix_record_s = 0.0;  // Checker::checkpoint_store(): the prefix run
  double setup_cpu_s = 0.0;
  // The search: Checker::run / run_parallel.
  double search_wall_s = 0.0;
  double search_cpu_s = 0.0;
  // Per wave (one next_batch call to the next): CPU and wall, summed.
  double wave_cpu_s = 0.0;
  double wave_wall_s = 0.0;
  int waves = 0;
  int proposed = 0;
  int applied = 0;
  std::int64_t propose_ns = 0;
  std::int64_t feedback_ns = 0;
  // From the cell's report.
  std::int64_t charged_ms = 0;
  std::int64_t skipped_ms = 0;
  // The stepped ms (charged - skipped) split by the engine that stepped
  // them: BatchHarness's SoA blocks from the resume point up to the plan's
  // first injection, the scalar loop for the rest.
  std::int64_t batch_ms = 0;
  std::int64_t scalar_ms = 0;
  int hits = 0;
  int misses = 0;
  int tree_hits = 0;  // restores from a tree snapshot (depth >= 1)
};

struct TracedPass {
  std::vector<TracedCell> cells;
  LayerTimes layers;              // the traced loop over every replayed plan
  std::int64_t engine_ns = 0;     // BatchHarness::run over the same plans, one lane each
  int replayed = 0;
  int mismatches = 0;
  std::string first_mismatch;
  std::int64_t resolve_ns = 0;    // CheckpointStore::resolve over the sampled plans
  std::int64_t resolves = 0;
};

// Applied plans replayed per workload, spread evenly over its cells (at
// least one plan per cell).
inline constexpr int kReplayPlans = 48;

TracedPass run_traced_pass(const core::ScenarioGrid& grid);

}  // namespace avis::bench
