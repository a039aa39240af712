#include "core/batch_harness.h"

#include "fw/cascade_batch.h"
#include "fw/estimator_batch.h"
#include "sensors/suite_batch.h"
#include "sim/quadcopter_batch.h"
#include "util/checked.h"
#include "util/log.h"

namespace avis::core {

// Simulated milliseconds a lane runs consecutively before the group moves
// to its next lane (coarse lockstep). Large enough to amortize the cross-
// lane switch (cold caches, cold predictors) over hundreds of steps; small
// enough that a group's lanes stay within one tile of each other, keeping
// peak live state bounded the way strict lockstep does. A multiple of both
// the 20 ms workload and 100 ms sample cadences, though nothing requires
// that — every cadence check is per-lane and exact.
constexpr sim::SimTimeMs kTileMs = 400;

// One experiment's seat in the batch: its pooled world, per-run directors,
// and the scalar loop state the lane mirrors while stepping in lockstep.
// Heap-allocated (stable address) because the world's hinj server holds a
// reference to the recording director across the run.
struct BatchHarness::Lane {
  ExperimentWorld world;
  std::optional<ScheduledDirector> scheduled;
  std::optional<RecordingDirector> recording;
  RunState rs;
  const ExperimentSpec* spec = nullptr;
  const sim::Environment* env = nullptr;
  sim::SimTimeMs first_injection = 0;
  std::size_t result_slot = 0;
};

BatchHarness::BatchHarness(const SimulationHarness& harness) : harness_(&harness) {}
BatchHarness::~BatchHarness() = default;

std::vector<ExperimentResult> BatchHarness::run(const std::vector<ExperimentSpec>& specs,
                                                const MonitorModel* monitor_model,
                                                const CheckpointStore* checkpoints) {
  std::vector<ExperimentResult> results(specs.size());
  if (specs.empty()) return results;
  while (lanes_.size() < specs.size()) lanes_.push_back(std::make_unique<Lane>());

  // Provision every lane exactly as the scalar path would (including its
  // own best-fit checkpoint restore). Lanes carry independent clocks — a
  // cold lane starts at 0, a restored one at its snapshot time — so one
  // batch holds any mix of resume points; nothing requires lanes to share a
  // start, only that each lane's own step sequence is the scalar one.
  std::vector<Lane*> group;
  group.reserve(specs.size());
  for (std::size_t idx = 0; idx < specs.size(); ++idx) {
    Lane& lane = *lanes_[idx];
    const ExperimentSpec& spec = specs[idx];
    lane.spec = &spec;
    lane.result_slot = idx;
    lane.first_injection = spec.plan.first_injection_ms();
    CheckpointResume resume;
    if (checkpoints != nullptr && checkpoints->has_restore_points()) {
      checkpoints->require_matches(spec, monitor_model != nullptr);
      resume = checkpoints->resolve(spec.plan);
    }
    lane.scheduled.emplace(spec.plan);
    lane.recording.emplace(*lane.scheduled);
    lane.rs = harness_->p_provision(spec, *lane.recording, monitor_model, lane.world, resume);
    lane.env = &lane.world.simulator->environment();
    // A lane that resumes at or past its first injection (a tree restore,
    // or a root snapshot landing exactly on the injection) has no
    // plan-independent stretch for the batched fast path to cover — its
    // very first batch step would diverge it. Run it straight through the
    // scalar loop instead; the batch blocks never see it.
    if (lane.rs.start_ms >= lane.first_injection ||
        lane.rs.start_ms >= spec.max_duration_ms) {
      harness_->p_loop(spec, lane.world, *lane.recording, lane.rs, nullptr);
      results[idx] = harness_->p_finalize(spec, lane.world, *lane.recording, lane.rs);
      continue;
    }
    group.push_back(&lane);
  }

  if (!group.empty()) p_run_group(group, results);
  return results;
}

void BatchHarness::p_run_group(const std::vector<Lane*>& group,
                               std::vector<ExperimentResult>& results) {
  const int n = static_cast<int>(group.size());

  // The batch blocks, loaded from each lane's provisioned world. Everything
  // mutable per step lives here (SoA) or in the lane's own
  // firmware/workload/monitor objects (stepped scalar per lane).
  sim::QuadcopterBatch world_batch(n);
  sensors::SuiteBatch suite_batch(group[0]->world.suite->config(), n);
  fw::EstimatorBatch est_batch(n);
  fw::CascadeBatch cascade_batch(n);
  std::vector<sim::VehicleState> truth(static_cast<std::size_t>(n));
  std::vector<const sim::Environment*> envs(static_cast<std::size_t>(n));

  for (int k = 0; k < n; ++k) {
    Lane& lane = *group[static_cast<std::size_t>(k)];
    world_batch.pack(k, lane.world.simulator->save());
    suite_batch.pack(k, lane.world.suite->save());
    est_batch.pack(k, lane.world.firmware->estimator().save());
    cascade_batch.pack(k, lane.world.firmware->cascade().save());
    envs[static_cast<std::size_t>(k)] = lane.env;
  }

  // Write a lane's batch state back into its scalar world so the lane can
  // continue (divergence) or finalize (retirement) on the scalar path.
  // `sim_time` is the lane's simulator clock: `now` at the top of an
  // iteration, `now + 1` after physics ran.
  const auto leave_batch = [&](int k, sim::SimTimeMs sim_time) {
    Lane& lane = *group[static_cast<std::size_t>(k)];
    lane.world.simulator->load(world_batch.unpack(k, sim_time));
    lane.world.suite->load(suite_batch.unpack(k));
    lane.world.firmware->estimator().load(est_batch.unpack(k));
    lane.world.firmware->cascade().load(cascade_batch.unpack(k));
  };

  std::vector<int> active;
  active.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) active.push_back(k);

  // Lanes advance in coarse lockstep: rounds of kTileMs simulated
  // milliseconds, each lane stepped through its whole tile before the next
  // lane starts one. Lanes never observe each other, so cross-lane
  // execution order is free — and per-lane-consecutive stepping is the one
  // that keeps a lane's simulator/firmware working set hot in L1 across its
  // steps instead of evicting it width-1 times per simulated millisecond.
  // Each lane runs on its own clock from its own resume point (restored
  // lanes start at their snapshot time, cold lanes at 0). The per-lane
  // operation order inside a step (pump, fuse, control, physics, sample) is
  // exactly the scalar loop's, which is what bit-identity needs; the tile
  // size only moves cache behavior (bench/perf_micro.cpp's BM_BatchStep and
  // BM_SingleExperiment quantify it).
  std::vector<sim::SimTimeMs> clock(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) clock[static_cast<std::size_t>(k)] = group[static_cast<std::size_t>(k)]->rs.start_ms;

  while (!active.empty()) {
    for (std::size_t a = 0; a < active.size();) {
      const int k = active[a];
      Lane& lane = *group[static_cast<std::size_t>(k)];
      sim::VehicleState& lane_truth = truth[static_cast<std::size_t>(k)];
      const sim::SimTimeMs tile_end = clock[static_cast<std::size_t>(k)] + kTileMs;
      bool gone = false;

      for (sim::SimTimeMs now = clock[static_cast<std::size_t>(k)]; now < tile_end; ++now) {
        // Top of the step: a lane whose plan can act from here on leaves
        // the batch BEFORE stepping — the batch covers
        // [start, first_injection) and the scalar loop covers the rest,
        // re-entering at exactly this point (the same seam the checkpoint
        // restore uses). A lane at its max duration leaves the loop the way
        // the scalar `for` bound would.
        if (now >= lane.spec->max_duration_ms || now >= lane.first_injection) {
          leave_batch(k, now);
          lane.rs.start_ms = now;
          harness_->p_loop(*lane.spec, lane.world, *lane.recording, lane.rs, nullptr);
          results[lane.result_slot] =
              harness_->p_finalize(*lane.spec, lane.world, *lane.recording, lane.rs);
          gone = true;
          break;
        }

        // Step 1: workload pump at the scalar cadence.
        const bool workload_due = now == lane.rs.next_workload_ms;
        if (workload_due) lane.rs.next_workload_ms += kWorkloadPeriodMs;
        if (workload_due && !lane.rs.firmware_dead) {
          lane.rs.gcs->pump(now);
          const workload::WorkloadStatus ws = lane.rs.workload->step(*lane.rs.gcs);
          if (ws != workload::WorkloadStatus::kRunning && lane.rs.workload_done_at < 0) {
            lane.rs.workload_done_at = now;
            lane.rs.result.workload_passed = ws == workload::WorkloadStatus::kPassed;
          }
        }

        // Refresh the ground-truth work register (pre-physics state: what
        // the scalar firmware sees this step).
        world_batch.unpack_state(k, lane_truth);

        // Steps 3-4: the fused sensor/estimator pass (a dead firmware stops
        // reading sensors scalar too).
        sim::MotorCommands motors;
        if (!lane.rs.firmware_dead) {
          est_batch.step(now, suite_batch, truth.data(), envs.data(), &k, 1);

          // Step 5: control phase + cascade. The lane firmware's own
          // estimator receives this step's fused solution first, so mode
          // logic/failsafes/telemetry read exactly what a scalar update
          // would have published.
          fw::Firmware& firmware = *lane.world.firmware;
          const fw::EstimatedState fused = est_batch.fused(k);
          firmware.estimator().adopt_fused(fused, fused);
          cascade_batch.load_into(k, firmware.cascade());
          try {
            const fw::Firmware::ControlPhase phase =
                firmware.step_control_phase(now, lane_truth);
            if (phase.armed) {
              motors = firmware.cascade().update(phase.setpoint, firmware.estimator().state(),
                                                 sim::kStepSeconds);
            }
          } catch (const util::InvariantError& err) {
            lane.rs.firmware_dead = true;
            util::log_warn() << "firmware aborted: " << err.what();
          }
          cascade_batch.store_from(k, firmware.cascade());
        }

        // Step 6: physics on the work register, written back to the lanes.
        world_batch.step(k, lane_truth, motors, *envs[static_cast<std::size_t>(k)]);
        if (harness_->step_hook_) {
          harness_->step_hook_(now + 1, lane_truth, *lane.world.firmware);
        }

        // Sample/monitor + end conditions. Mirrors the tail of
        // SimulationHarness::p_loop including its break order: a stop-on-
        // violation or grace-expiry break skips the checks after it.
        bool retired = false;
        if (now == lane.rs.next_sample_ms) {
          lane.rs.next_sample_ms += kSamplePeriodMs;
          StateSample sample;
          sample.time_ms = now;
          sample.position = lane_truth.position;
          sample.acceleration = lane_truth.acceleration;
          sample.mode_id = lane.world.firmware->composite_mode().id();
          sample.on_ground = lane_truth.on_ground;
          sample.armed = lane.world.firmware->armed();
          lane.rs.result.trace.push_back(sample);

          if (lane.rs.monitor != nullptr) {
            const bool workload_failed =
                lane.rs.workload_done_at >= 0 &&
                lane.rs.workload->status() == workload::WorkloadStatus::kFailed;
            const auto violation =
                lane.rs.monitor->on_sample(sample, lane_truth.crashed, world_batch.last_crash(k),
                                           lane.rs.firmware_dead, workload_failed);
            if (violation && !lane.rs.result.violation) {
              lane.rs.result.violation = violation;
              if (lane.spec->stop_on_violation) {
                lane.rs.result.duration_ms = now + 1;
                retired = true;
              }
            }
          }
        }

        if (!retired && lane.rs.workload_done_at >= 0 &&
            now - lane.rs.workload_done_at >= kGraceMs) {
          lane.rs.result.duration_ms = now + 1;
          retired = true;
        }
        if (!retired && lane_truth.crashed && lane.rs.workload_done_at < 0) {
          lane.rs.workload_done_at = now;  // nothing more will happen; start grace
          lane.rs.result.workload_passed = false;
        }

        if (retired) {
          leave_batch(k, now + 1);
          results[lane.result_slot] =
              harness_->p_finalize(*lane.spec, lane.world, *lane.recording, lane.rs);
          gone = true;
          break;
        }
      }

      if (gone) {
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(a));
      } else {
        clock[static_cast<std::size_t>(k)] = tile_end;
        ++a;
      }
    }
  }
}

}  // namespace avis::core
