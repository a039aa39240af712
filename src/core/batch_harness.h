// Batched lockstep simulation: the parity reference and benchmark subject
// for the structure-of-arrays step, not a campaign engine. No checker,
// campaign, fuzz or distributed path runs it — every campaign experiment
// runs on SimulationHarness::run. It stays because tests/test_batch.cc pins
// the SoA blocks' bit-identity to the scalar loop through it, and the
// campaign benchmark's traced loop measures the same blocks against it.
//
// A campaign's experiments share their entire spec except the fault plan,
// and a run is plan-independent strictly before the plan's earliest
// activation. BatchHarness exploits that: it takes a batch of specs, packs
// each one's freshly provisioned (or checkpoint-restored) world into
// structure-of-arrays lanes — sim::QuadcopterBatch, sensors::SuiteBatch,
// fw::EstimatorBatch, fw::CascadeBatch — and advances the lanes in coarse
// lockstep, tiles of a few hundred 1 ms steps per lane per round, each lane
// on its own clock from its own resume point. The batched step runs the
// pre-injection fast path: sensor reads and fusion straight out of the SoA
// blocks, skipping the hinj indirection and fail-over scans the scalar
// estimator pays per step. A lane leaves the batch ("diverges") at the top
// of the first step where its plan can act, and finishes on the ordinary
// scalar path (SimulationHarness::p_loop / p_finalize); it never rejoins.
// Lanes whose run ends inside the batch (workload grace, stop-on-violation)
// retire in place through the same scalar finalize.
//
// Parity contract: per-lane operation order is exactly the scalar order —
// sensor reads per instance ascending, the same RNG streams, the same
// workload/sample cadences (kWorkloadPeriodMs / kSamplePeriodMs), physics
// through the same QuadcopterDynamics — so the ExperimentResults are
// bit-identical to running each spec through SimulationHarness::run
// (tests/test_batch.cc sweeps the parity matrix).
#pragma once

#include <memory>
#include <vector>

#include "core/checkpoint.h"
#include "core/experiment.h"
#include "core/harness.h"
#include "core/invariant_monitor.h"

namespace avis::core {

class BatchHarness {
 public:
  explicit BatchHarness(const SimulationHarness& harness);
  ~BatchHarness();

  BatchHarness(const BatchHarness&) = delete;
  BatchHarness& operator=(const BatchHarness&) = delete;

  // Run `specs` in lockstep; results in spec order, each bit-identical to
  // the scalar path. All specs must share the checkpoint store's scenario
  // when one is given (same contract as SimulationHarness::run). Lane worlds
  // are pooled across calls (the arena-reuse contract), so repeated calls
  // provision by resetting retained storage, exactly like the scalar pool.
  std::vector<ExperimentResult> run(const std::vector<ExperimentSpec>& specs,
                                    const MonitorModel* monitor_model = nullptr,
                                    const CheckpointStore* checkpoints = nullptr);

 private:
  struct Lane;

  void p_run_group(const std::vector<Lane*>& group, std::vector<ExperimentResult>& results);

  const SimulationHarness* harness_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // pooled lane worlds
};

}  // namespace avis::core
