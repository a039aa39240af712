// The traced experiment loop: one cold experiment composed from outside the
// program out of each layer's public calls, with a span around every layer
// boundary. It mirrors the engine the checker runs every experiment through,
// core::BatchHarness, call for call: the plan-independent stretch before the
// first injection steps the structure-of-arrays blocks (sim::QuadcopterBatch,
// sensors::SuiteBatch, fw::EstimatorBatch, fw::CascadeBatch), and the rest
// steps the scalar world the way SimulationHarness's loop does. Its result
// must equal SimulationHarness::run on the same spec (compare_results checks
// that for every replayed plan).
#pragma once

#include <cstdint>
#include <string>

#include "core/experiment.h"
#include "core/invariant_monitor.h"

namespace avis::bench {

// Span time (ns) of one stage of the loop: the batched stretch before the
// first injection, or the scalar stretch after it.
struct StageTimes {
  std::int64_t stepped_ms = 0;    // loop iterations (one per simulated ms)
  std::int64_t total_ns = 0;      // the stage's whole time (see LayerTimes)
  std::int64_t gcs_ns = 0;        // GcsContext::pump + Workload::step
  std::int64_t estimator_ns = 0;  // scalar: StateEstimator::update (sensor reads and hinj
                                  // included); batch: EstimatorBatch::step + adopt_fused
  std::int64_t control_ns = 0;    // Firmware::step_control_phase (batch: + CascadeBatch load)
  std::int64_t cascade_ns = 0;    // ControlCascade::update (batch: + CascadeBatch store)
  std::int64_t sim_ns = 0;        // Simulator::step (batch: QuadcopterBatch unpack + step)
  std::int64_t monitor_ns = 0;    // MonitorSession::on_sample

  void add(const StageTimes& o);
  // Stage time no layer span covers: loop bookkeeping and sampling, plus
  // provisioning and finalization (scalar) or pack/unpack (batch).
  std::int64_t other_ns() const;
};

// Accumulated span time and counts over one or more traced runs.
struct LayerTimes {
  // The scalar stage's total holds provisioning, its iterations and
  // finalization; the batch stage's holds packing the blocks, its iterations
  // and unpacking them back into the scalar world. The save/load probes are
  // in neither.
  StageTimes scalar;
  StageTimes batch;
  std::int64_t monitor_samples = 0;
  std::int64_t hinj_reads = 0;    // FaultDirector::should_fail calls (scalar stage only)
  std::int64_t captures = 0;      // save() of every layer, on the checkpoint cadence
  std::int64_t capture_ns = 0;
  std::int64_t restore_ns = 0;    // load() of the same state back

  void add(const LayerTimes& o);
  std::int64_t stepped_ms() const { return scalar.stepped_ms + batch.stepped_ms; }
  std::int64_t total_ns() const { return scalar.total_ns + batch.total_ns; }
};

// Runs `spec` cold under `model` (stop-on-violation as the spec says),
// probing every layer's save()/load() at each multiple of
// `capture_interval_ms` in the scalar stage (where the checker's tree
// captures happen), and adds the spans to `times`.
core::ExperimentResult run_traced(const core::ExperimentSpec& spec,
                                  const core::MonitorModel& model,
                                  std::int64_t capture_interval_ms, LayerTimes& times);

// Empty when the two results agree on trace, transitions, violation,
// duration, fired bugs, crash cause and workload verdict; otherwise names
// the first field that differs.
std::string compare_results(const core::ExperimentResult& a, const core::ExperimentResult& b);

}  // namespace avis::bench
