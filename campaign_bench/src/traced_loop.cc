#include "traced_loop.h"

#include <algorithm>
#include <optional>

#include "common.h"
#include "core/harness.h"
#include "fw/cascade_batch.h"
#include "fw/estimator_batch.h"
#include "fw/firmware.h"
#include "fw/sensor_bus.h"
#include "hinj/hinj.h"
#include "mavlink/channel.h"
#include "sensors/sensor_models.h"
#include "sensors/suite_batch.h"
#include "sim/quadcopter_batch.h"
#include "sim/simulator.h"
#include "util/checked.h"
#include "util/rng.h"
#include "workload/context.h"

namespace avis::bench {

namespace {

// Counts the firmware's hinj sensor reads, forwarding everything
// to the RecordingDirector the harness would install.
class CountingDirector final : public hinj::FaultDirector {
 public:
  explicit CountingDirector(hinj::FaultDirector& inner) : inner_(&inner) {}

  bool should_fail(const sensors::SensorId& sensor, std::int64_t time_ms) override {
    ++reads;
    return inner_->should_fail(sensor, time_ms);
  }
  void on_mode_update(std::uint16_t mode_id, std::string_view mode_name,
                      std::int64_t time_ms) override {
    inner_->on_mode_update(mode_id, mode_name, time_ms);
  }
  void on_heartbeat(std::int64_t time_ms) override { inner_->on_heartbeat(time_ms); }

  std::int64_t reads = 0;

 private:
  hinj::FaultDirector* inner_;
};

bool same_samples(const std::vector<core::StateSample>& a,
                  const std::vector<core::StateSample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time_ms != b[i].time_ms || !(a[i].position == b[i].position) ||
        !(a[i].acceleration == b[i].acceleration) || a[i].mode_id != b[i].mode_id ||
        a[i].on_ground != b[i].on_ground || a[i].armed != b[i].armed) {
      return false;
    }
  }
  return true;
}

bool same_transitions(const std::vector<core::ModeTransition>& a,
                      const std::vector<core::ModeTransition>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time_ms != b[i].time_ms || a[i].mode_id != b[i].mode_id ||
        a[i].mode_name != b[i].mode_name) {
      return false;
    }
  }
  return true;
}

bool same_violation(const std::optional<core::Violation>& a,
                    const std::optional<core::Violation>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->type == b->type && a->time_ms == b->time_ms && a->mode_id == b->mode_id &&
                a->details == b->details);
}

}  // namespace

void StageTimes::add(const StageTimes& o) {
  stepped_ms += o.stepped_ms;
  total_ns += o.total_ns;
  gcs_ns += o.gcs_ns;
  estimator_ns += o.estimator_ns;
  control_ns += o.control_ns;
  cascade_ns += o.cascade_ns;
  sim_ns += o.sim_ns;
  monitor_ns += o.monitor_ns;
}

std::int64_t StageTimes::other_ns() const {
  return total_ns - gcs_ns - estimator_ns - control_ns - cascade_ns - sim_ns - monitor_ns;
}

void LayerTimes::add(const LayerTimes& o) {
  scalar.add(o.scalar);
  batch.add(o.batch);
  monitor_samples += o.monitor_samples;
  hinj_reads += o.hinj_reads;
  captures += o.captures;
  capture_ns += o.capture_ns;
  restore_ns += o.restore_ns;
}

core::ExperimentResult run_traced(const core::ExperimentSpec& spec,
                                  const core::MonitorModel& model,
                                  std::int64_t capture_interval_ms, LayerTimes& times) {
  LayerTimes t;
  const std::int64_t run_start = wall_now_ns();

  // Provisioning, in SimulationHarness's cold construction order: the same
  // seed draws, the director installed before the firmware boots.
  util::Rng seed_source(spec.seed);
  sim::Simulator simulator(
      spec.environment_factory ? spec.environment_factory() : sim::Environment{},
      sim::QuadcopterParams{}, seed_source.next_u64());
  util::Rng sensor_seeds = seed_source.fork(1);
  sensors::SensorSuite suite(core::SimulationHarness::iris_suite(), sensor_seeds);
  core::ScheduledDirector scheduled(spec.plan);
  core::RecordingDirector recording(scheduled);
  CountingDirector counting(recording);
  hinj::Server server(counting);
  hinj::Client client(server);
  mavlink::Channel channel;
  channel.reset_link();
  fw::SensorBus bus(suite, client);
  fw::FirmwareConfig fw_config = spec.personality == fw::Personality::kArduPilotLike
                                     ? fw::FirmwareConfig::ardupilot()
                                     : fw::FirmwareConfig::px4();
  fw_config.bugs = spec.bugs;
  fw::Firmware firmware(std::move(fw_config), bus, client, channel.vehicle(),
                        simulator.environment());
  std::unique_ptr<workload::Workload> workload =
      spec.workload_factory ? spec.workload_factory() : workload::make_workload(spec.workload);
  util::expects(workload != nullptr, "unknown workload id");
  workload::GcsContext gcs(channel.gcs(), simulator.environment().frame());
  core::MonitorSession monitor(model);
  monitor.restart(model);

  core::ExperimentResult result;
  result.trace.reserve(static_cast<std::size_t>(spec.max_duration_ms / core::kSamplePeriodMs) + 1);
  bool firmware_dead = false;
  sim::SimTimeMs workload_done_at = -1;
  sim::SimTimeMs next_workload_ms = 0;
  sim::SimTimeMs next_sample_ms = 0;
  sim::SimTimeMs now = 0;
  bool finished = false;  // the run ended (grace or stop-on-violation)

  std::int64_t mark = 0;
  const auto span = [&mark](std::int64_t& into) {
    const std::int64_t end = wall_now_ns();
    into += end - mark;
    mark = end;
  };

  // GCS step at the workload cadence, shared by both stages.
  const auto step_gcs = [&](StageTimes& stage) {
    const bool workload_due = now == next_workload_ms;
    if (workload_due) next_workload_ms += core::kWorkloadPeriodMs;
    if (workload_due && !firmware_dead) {
      gcs.pump(now);
      const workload::WorkloadStatus ws = workload->step(gcs);
      if (ws != workload::WorkloadStatus::kRunning && workload_done_at < 0) {
        workload_done_at = now;
        result.workload_passed = ws == workload::WorkloadStatus::kPassed;
      }
      span(stage.gcs_ns);
    }
  };

  // Sample, monitor and end conditions, shared by both stages in the
  // scalar loop's break order. Returns true when the run ends at `now`.
  const auto sample_and_check = [&](StageTimes& stage, const sim::VehicleState& state,
                                    sim::CrashCause last_crash) {
    if (now == next_sample_ms) {
      next_sample_ms += core::kSamplePeriodMs;
      core::StateSample sample;
      sample.time_ms = now;
      sample.position = state.position;
      sample.acceleration = state.acceleration;
      sample.mode_id = firmware.composite_mode().id();
      sample.on_ground = state.on_ground;
      sample.armed = firmware.armed();
      result.trace.push_back(sample);

      const bool workload_failed =
          workload_done_at >= 0 && workload->status() == workload::WorkloadStatus::kFailed;
      mark = wall_now_ns();
      const auto violation =
          monitor.on_sample(sample, state.crashed, last_crash, firmware_dead, workload_failed);
      span(stage.monitor_ns);
      ++t.monitor_samples;
      if (violation && !result.violation) {
        result.violation = violation;
        if (spec.stop_on_violation) {
          result.duration_ms = now + 1;
          return true;
        }
      }
    }
    if (workload_done_at >= 0 && now - workload_done_at >= core::kGraceMs) {
      result.duration_ms = now + 1;
      return true;
    }
    if (state.crashed && workload_done_at < 0) {
      workload_done_at = now;
      result.workload_passed = false;
    }
    return false;
  };

  t.scalar.total_ns += wall_now_ns() - run_start;

  // Stage 1, as BatchHarness runs a cold lane: the plan-independent stretch
  // [0, first injection) steps the SoA blocks, one lane wide, skipping the
  // hinj indirection; the lane then leaves the batch through the blocks'
  // unpack into the scalar world.
  const sim::SimTimeMs batch_end = std::min(spec.plan.first_injection_ms(), spec.max_duration_ms);
  if (batch_end > 0) {
    const std::int64_t batch_start = wall_now_ns();
    constexpr int kLane = 0;
    sim::QuadcopterBatch world_batch(1);
    sensors::SuiteBatch suite_batch(suite.config(), 1);
    fw::EstimatorBatch est_batch(1);
    fw::CascadeBatch cascade_batch(1);
    world_batch.pack(kLane, simulator.save());
    suite_batch.pack(kLane, suite.save());
    est_batch.pack(kLane, firmware.estimator().save());
    cascade_batch.pack(kLane, firmware.cascade().save());
    const sim::Environment* env = &simulator.environment();
    sim::VehicleState truth;

    for (; now < batch_end; ++now) {
      ++t.batch.stepped_ms;
      mark = wall_now_ns();
      step_gcs(t.batch);

      world_batch.unpack_state(kLane, truth);
      span(t.batch.sim_ns);

      sim::MotorCommands motors;
      if (!firmware_dead) {
        est_batch.step(now, suite_batch, &truth, &env, &kLane, 1);
        const fw::EstimatedState fused = est_batch.fused(kLane);
        firmware.estimator().adopt_fused(fused, fused);
        span(t.batch.estimator_ns);
        cascade_batch.load_into(kLane, firmware.cascade());
        try {
          const fw::Firmware::ControlPhase phase = firmware.step_control_phase(now, truth);
          span(t.batch.control_ns);
          if (phase.armed) {
            motors = firmware.cascade().update(phase.setpoint, firmware.estimator().state(),
                                               sim::kStepSeconds);
          }
        } catch (const util::InvariantError&) {
          firmware_dead = true;
        }
        cascade_batch.store_from(kLane, firmware.cascade());
        span(t.batch.cascade_ns);
      }

      world_batch.step(kLane, truth, motors, *env);
      span(t.batch.sim_ns);

      if (sample_and_check(t.batch, truth, world_batch.last_crash(kLane))) {
        finished = true;
        ++now;  // a retired lane leaves with its clock past the step
        break;
      }
    }
    simulator.load(world_batch.unpack(kLane, now));
    suite.load(suite_batch.unpack(kLane));
    firmware.estimator().load(est_batch.unpack(kLane));
    firmware.cascade().load(cascade_batch.unpack(kLane));
    t.batch.total_ns += wall_now_ns() - batch_start;
  }

  // Stage 2: the scalar loop from where the batch left off.
  const std::int64_t scalar_start = wall_now_ns();
  std::int64_t probe_ns = 0;
  for (; !finished && now < spec.max_duration_ms; ++now) {
    ++t.scalar.stepped_ms;

    // The checkpoint probe: save every layer, then load the same state back.
    if (capture_interval_ms > 0 && now > 0 && now % capture_interval_ms == 0) {
      const std::int64_t s0 = wall_now_ns();
      const sim::Simulator::Snapshot sim_snap = simulator.save();
      const sensors::SuiteSnapshot suite_snap = suite.save();
      const fw::Firmware::Snapshot fw_snap = firmware.save();
      const mavlink::Channel::Snapshot link_snap = channel.save();
      const workload::Workload::Progress workload_snap = workload->save();
      const workload::GcsContext::Snapshot gcs_snap = gcs.save();
      const core::MonitorSession::Snapshot monitor_snap = monitor.save();
      const std::int64_t s1 = wall_now_ns();
      simulator.load(sim_snap);
      suite.load(suite_snap);
      firmware.load(fw_snap);
      channel.load(link_snap);
      workload->load(workload_snap);
      gcs.load(gcs_snap);
      monitor.restore(model, result.trace, monitor_snap);
      const std::int64_t s2 = wall_now_ns();
      ++t.captures;
      t.capture_ns += s1 - s0;
      t.restore_ns += s2 - s1;
      probe_ns += s2 - s0;
    }

    mark = wall_now_ns();
    step_gcs(t.scalar);

    // Firmware::step, split at its three layer calls.
    sim::MotorCommands motors;
    if (!firmware_dead) {
      try {
        firmware.estimator().update(now, simulator.state(), simulator.environment());
        span(t.scalar.estimator_ns);
        const fw::Firmware::ControlPhase phase = firmware.step_control_phase(now, simulator.state());
        span(t.scalar.control_ns);
        if (phase.armed) {
          motors = firmware.cascade().update(phase.setpoint, firmware.estimator().state(),
                                             sim::kStepSeconds);
          span(t.scalar.cascade_ns);
        }
      } catch (const util::InvariantError&) {
        firmware_dead = true;
        mark = wall_now_ns();
      }
    }

    simulator.step(motors);
    span(t.scalar.sim_ns);

    if (sample_and_check(t.scalar, simulator.state(), simulator.last_crash())) break;
  }

  if (result.duration_ms == 0) result.duration_ms = spec.max_duration_ms;
  result.transitions = recording.take_transitions();
  result.fired_bugs = firmware.fired_bugs();
  result.crash_cause = simulator.last_crash();

  t.hinj_reads = counting.reads;
  t.scalar.total_ns += wall_now_ns() - scalar_start - probe_ns;
  times.add(t);
  return result;
}

std::string compare_results(const core::ExperimentResult& a, const core::ExperimentResult& b) {
  if (a.duration_ms != b.duration_ms) return "duration";
  if (a.workload_passed != b.workload_passed) return "workload verdict";
  if (!same_violation(a.violation, b.violation)) return "violation";
  if (a.crash_cause != b.crash_cause) return "crash cause";
  if (a.fired_bugs != b.fired_bugs) return "fired bugs";
  if (!same_transitions(a.transitions, b.transitions)) return "transitions";
  if (!same_samples(a.trace, b.trace)) return "trace";
  return {};
}

}  // namespace avis::bench
