// Batched lockstep simulation: the SoA batch blocks must round-trip scalar
// snapshots bit-for-bit (pack then unpack is the identity, including RNG
// stream positions and latched failures), and core::BatchHarness must
// produce ExperimentResults bit-identical to SimulationHarness::run for the
// same specs — swept across the full registry surface (both personalities x
// all five workloads) under the RNG-heaviest environment (gusty) at batch
// widths 2, 4 and 8, with fault plans that diverge lanes at different times
// (including never).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/batch_harness.h"
#include "core/checkpoint.h"
#include "core/harness.h"
#include "core/scenario.h"
#include "fw/cascade_batch.h"
#include "fw/estimator_batch.h"
#include "sensors/suite_batch.h"
#include "sim/quadcopter_batch.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace avis::core {
namespace {

using sensors::SensorId;
using sensors::SensorType;

// "Bit-for-bit" for doubles is stricter than operator== (which identifies
// +0.0 with -0.0 and can never match NaNs): compare the actual bit patterns.
void expect_bits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_bits(const geo::Vec3& a, const geo::Vec3& b, const char* what) {
  expect_bits(a.x, b.x, what);
  expect_bits(a.y, b.y, what);
  expect_bits(a.z, b.z, what);
}

void expect_bits(const geo::Attitude& a, const geo::Attitude& b, const char* what) {
  expect_bits(a.roll, b.roll, what);
  expect_bits(a.pitch, b.pitch, what);
  expect_bits(a.yaw, b.yaw, what);
}

void expect_rng_equal(const util::Rng::State& a, const util::Rng::State& b, const char* what) {
  EXPECT_EQ(a.state, b.state) << what;
  EXPECT_EQ(a.has_spare, b.has_spare) << what;
  expect_bits(a.spare, b.spare, what);
}

// A mid-run world snapshot with genuinely randomized state: RNG streams
// mid-sequence (gusty wind draws every step; some with a cached Marsaglia
// spare), held sensor samples, a vehicle in flight. The store is recorded
// once and shared by every block's round-trip test.
const CheckpointStore& midrun_store() {
  static const CheckpointStore store = [] {
    ScenarioSpec scenario;
    scenario.personality = "ardupilot";
    scenario.workload = "auto";
    scenario.environment = "gusty";
    ExperimentSpec spec = scenario_prototype(scenario);
    SimulationHarness harness;
    return harness.record_prefix(spec, nullptr, {}, nullptr);
  }();
  return store;
}

std::vector<const ExperimentSnapshot*> midrun_snapshots() {
  const CheckpointStore& store = midrun_store();
  std::vector<const ExperimentSnapshot*> snaps;
  const ExperimentSnapshot* early = store.best_for(5000);
  const ExperimentSnapshot* late = store.best_for(FaultPlan::kNever);
  if (early != nullptr) snaps.push_back(early);
  if (late != nullptr && late != early) snaps.push_back(late);
  return snaps;
}

TEST(BatchBlocks, QuadcopterRoundTripIsBitExact) {
  const auto snaps = midrun_snapshots();
  ASSERT_FALSE(snaps.empty());
  sim::QuadcopterBatch batch(static_cast<int>(snaps.size()) + 1);
  for (std::size_t i = 0; i < snaps.size(); ++i)
    batch.pack(static_cast<int>(i), snaps[i]->simulator);
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const sim::Simulator::Snapshot& in = snaps[i]->simulator;
    const sim::Simulator::Snapshot out = batch.unpack(static_cast<int>(i), in.time_ms);
    EXPECT_EQ(out.time_ms, in.time_ms);
    EXPECT_EQ(out.last_crash, in.last_crash);
    expect_rng_equal(out.rng, in.rng, "wind rng");
    expect_bits(out.state.position, in.state.position, "position");
    expect_bits(out.state.velocity, in.state.velocity, "velocity");
    expect_bits(out.state.acceleration, in.state.acceleration, "acceleration");
    expect_bits(out.state.attitude, in.state.attitude, "attitude");
    expect_bits(out.state.body_rates, in.state.body_rates, "body_rates");
    for (int m = 0; m < 4; ++m)
      expect_bits(out.state.motors.value[static_cast<std::size_t>(m)],
                  in.state.motors.value[static_cast<std::size_t>(m)], "motors");
    expect_bits(out.state.battery_voltage, in.state.battery_voltage, "battery_voltage");
    expect_bits(out.state.battery_remaining, in.state.battery_remaining, "battery_remaining");
    EXPECT_EQ(out.state.on_ground, in.state.on_ground);
    EXPECT_EQ(out.state.crashed, in.state.crashed);
  }
}

template <typename Sample, typename CompareFn>
void expect_instances_equal(const std::vector<sensors::InstanceState<Sample>>& a,
                            const std::vector<sensors::InstanceState<Sample>>& b,
                            const char* family, CompareFn&& compare_held) {
  ASSERT_EQ(a.size(), b.size()) << family;
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(std::string(family) + " instance " + std::to_string(i));
    expect_rng_equal(a[i].rng, b[i].rng, "rng");
    EXPECT_EQ(a[i].has_sample, b[i].has_sample);
    EXPECT_EQ(a[i].last_sample_ms, b[i].last_sample_ms);
    EXPECT_EQ(a[i].failed, b[i].failed);
    compare_held(a[i].held, b[i].held);
  }
}

void expect_suites_equal(const sensors::SuiteSnapshot& in, const sensors::SuiteSnapshot& out) {
  expect_instances_equal(in.gyros, out.gyros, "gyro",
                         [](const sensors::GyroSample& x, const sensors::GyroSample& y) {
                           expect_bits(x.body_rates, y.body_rates, "held body_rates");
                         });
  expect_instances_equal(in.accels, out.accels, "accel",
                         [](const sensors::AccelSample& x, const sensors::AccelSample& y) {
                           expect_bits(x.specific_force, y.specific_force, "held force");
                         });
  expect_instances_equal(in.baros, out.baros, "baro",
                         [](const sensors::BaroSample& x, const sensors::BaroSample& y) {
                           expect_bits(x.pressure_altitude_m, y.pressure_altitude_m, "held alt");
                         });
  expect_instances_equal(
      in.gpses, out.gpses, "gps", [](const sensors::GpsSample& x, const sensors::GpsSample& y) {
        expect_bits(x.position.latitude_deg, y.position.latitude_deg, "held lat");
        expect_bits(x.position.longitude_deg, y.position.longitude_deg, "held lon");
        expect_bits(x.position.altitude_m, y.position.altitude_m, "held alt");
        expect_bits(x.velocity_ned, y.velocity_ned, "held vel");
        EXPECT_EQ(x.num_satellites, y.num_satellites);
        expect_bits(x.hdop, y.hdop, "held hdop");
        EXPECT_EQ(x.has_fix, y.has_fix);
      });
  expect_instances_equal(in.compasses, out.compasses, "compass",
                         [](const sensors::CompassSample& x, const sensors::CompassSample& y) {
                           expect_bits(x.heading_rad, y.heading_rad, "held heading");
                         });
  expect_instances_equal(in.batteries, out.batteries, "battery",
                         [](const sensors::BatterySample& x, const sensors::BatterySample& y) {
                           expect_bits(x.voltage, y.voltage, "held voltage");
                           expect_bits(x.remaining_fraction, y.remaining_fraction, "held frac");
                         });
}

TEST(BatchBlocks, SuiteRoundTripIsBitExactIncludingRngAndFailureLatches) {
  const auto snaps = midrun_snapshots();
  ASSERT_FALSE(snaps.empty());
  const sensors::SuiteConfig config = SimulationHarness::iris_suite();  // what the harness provisions

  for (const ExperimentSnapshot* snap : snaps) {
    sensors::SuiteSnapshot in = snap->suite;
    // Exercise the carried-but-never-stepped fields too: a latched failure
    // and an RNG stream holding a cached Marsaglia spare must both survive
    // the round trip.
    ASSERT_FALSE(in.compasses.empty());
    in.compasses[0].failed = true;
    util::Rng spareful(7);
    spareful.next_gaussian();  // odd draw count -> spare cached
    in.gyros[0].rng = spareful.save();
    ASSERT_TRUE(in.gyros[0].rng.has_spare);

    sensors::SuiteBatch batch(config, 3);
    batch.pack(1, in);  // middle lane: neighbors must stay untouched
    expect_suites_equal(in, batch.unpack(1));
  }
}

TEST(BatchBlocks, EstimatorRoundTripIsBitExact) {
  const auto snaps = midrun_snapshots();
  ASSERT_FALSE(snaps.empty());
  fw::EstimatorBatch batch(static_cast<int>(snaps.size()));
  for (std::size_t i = 0; i < snaps.size(); ++i)
    batch.pack(static_cast<int>(i), snaps[i]->firmware.estimator);
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const fw::StateEstimator::Snapshot& in = snaps[i]->firmware.estimator;
    const fw::StateEstimator::Snapshot out = batch.unpack(static_cast<int>(i));
    expect_bits(out.state.position, in.state.position, "position");
    expect_bits(out.state.velocity, in.state.velocity, "velocity");
    expect_bits(out.state.attitude, in.state.attitude, "attitude");
    expect_bits(out.state.body_rates, in.state.body_rates, "body_rates");
    expect_bits(out.state.battery_voltage, in.state.battery_voltage, "battery_voltage");
    expect_bits(out.state.battery_remaining, in.state.battery_remaining, "battery_remaining");
    // Pre-injection published == state; the unpack reconstructs it.
    expect_bits(out.published.position, in.published.position, "published position");
    expect_bits(out.published.velocity, in.published.velocity, "published velocity");
    expect_bits(out.published.attitude, in.published.attitude, "published attitude");
    expect_bits(out.prev_attitude, in.prev_attitude, "prev_attitude");
    expect_bits(out.last_gps_velocity, in.last_gps_velocity, "last_gps_velocity");
    expect_bits(out.last_gps_local, in.last_gps_local, "last_gps_local");
    EXPECT_EQ(out.have_gps_sample, in.have_gps_sample);
    EXPECT_EQ(out.have_gps_ever, in.have_gps_ever);
    EXPECT_EQ(out.dead_reckoning, in.dead_reckoning);
    EXPECT_EQ(out.frozen_alt_valid, in.frozen_alt_valid);
    expect_bits(out.frozen_alt_z, in.frozen_alt_z, "frozen_alt_z");
    for (std::size_t h = 0; h < in.health.size(); ++h) {
      EXPECT_EQ(out.health[h].total, in.health[h].total) << "health " << h;
      EXPECT_EQ(out.health[h].alive, in.health[h].alive) << "health " << h;
      EXPECT_EQ(out.health[h].primary_alive, in.health[h].primary_alive) << "health " << h;
      EXPECT_EQ(out.health[h].all_failed_at, in.health[h].all_failed_at) << "health " << h;
      EXPECT_EQ(out.health[h].primary_failed_at, in.health[h].primary_failed_at)
          << "health " << h;
    }
  }
}

TEST(BatchBlocks, CascadeRoundTripIsBitExact) {
  const auto snaps = midrun_snapshots();
  ASSERT_FALSE(snaps.empty());
  fw::CascadeBatch batch(static_cast<int>(snaps.size()));
  for (std::size_t i = 0; i < snaps.size(); ++i)
    batch.pack(static_cast<int>(i), snaps[i]->firmware.cascade);
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const fw::ControlCascade::Snapshot& in = snaps[i]->firmware.cascade;
    const fw::ControlCascade::Snapshot out = batch.unpack(static_cast<int>(i));
    expect_bits(out.rate_roll.integral, in.rate_roll.integral, "roll integral");
    expect_bits(out.rate_roll.last_error, in.rate_roll.last_error, "roll last_error");
    expect_bits(out.rate_pitch.integral, in.rate_pitch.integral, "pitch integral");
    expect_bits(out.rate_pitch.last_error, in.rate_pitch.last_error, "pitch last_error");
    expect_bits(out.rate_yaw.integral, in.rate_yaw.integral, "yaw integral");
    expect_bits(out.rate_yaw.last_error, in.rate_yaw.last_error, "yaw last_error");
    expect_bits(out.last_vel_error, in.last_vel_error, "last_vel_error");
  }
}

// Full-field equality of two experiment results (the same contract as
// tests/test_checkpoint.cc: "bit-identical" is the bar).
void expect_results_identical(const ExperimentResult& scalar, const ExperimentResult& batched,
                              const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(scalar.workload_passed, batched.workload_passed);
  EXPECT_EQ(scalar.duration_ms, batched.duration_ms);
  EXPECT_EQ(scalar.fired_bugs, batched.fired_bugs);
  EXPECT_EQ(scalar.crash_cause, batched.crash_cause);
  EXPECT_EQ(scalar.resumed_from_ms, batched.resumed_from_ms);
  ASSERT_EQ(scalar.violation.has_value(), batched.violation.has_value());
  if (scalar.violation) {
    EXPECT_EQ(scalar.violation->type, batched.violation->type);
    EXPECT_EQ(scalar.violation->time_ms, batched.violation->time_ms);
    EXPECT_EQ(scalar.violation->mode_id, batched.violation->mode_id);
    EXPECT_EQ(scalar.violation->details, batched.violation->details);
  }
  ASSERT_EQ(scalar.transitions.size(), batched.transitions.size());
  for (std::size_t i = 0; i < scalar.transitions.size(); ++i) {
    EXPECT_EQ(scalar.transitions[i].time_ms, batched.transitions[i].time_ms) << "t " << i;
    EXPECT_EQ(scalar.transitions[i].mode_id, batched.transitions[i].mode_id) << "t " << i;
    EXPECT_EQ(scalar.transitions[i].mode_name, batched.transitions[i].mode_name) << "t " << i;
  }
  ASSERT_EQ(scalar.trace.size(), batched.trace.size());
  for (std::size_t i = 0; i < scalar.trace.size(); ++i) {
    EXPECT_EQ(scalar.trace[i].time_ms, batched.trace[i].time_ms) << "i=" << i;
    EXPECT_EQ(scalar.trace[i].position, batched.trace[i].position) << "i=" << i;
    EXPECT_EQ(scalar.trace[i].acceleration, batched.trace[i].acceleration) << "i=" << i;
    EXPECT_EQ(scalar.trace[i].mode_id, batched.trace[i].mode_id) << "i=" << i;
    EXPECT_EQ(scalar.trace[i].on_ground, batched.trace[i].on_ground) << "i=" << i;
    EXPECT_EQ(scalar.trace[i].armed, batched.trace[i].armed) << "i=" << i;
  }
}

// The eight plans a parity combo runs: an empty plan (the lane never
// diverges — it retires inside the batch), a near-immediate injection
// (diverges on the first few iterations), and a spread of mid-run single
// and multi-event plans across sensor types, so one batch mixes lanes that
// leave at six different times with lanes that never leave.
std::vector<FaultPlan> parity_plans() {
  std::vector<FaultPlan> plans(8);
  plans[1].add(500, {SensorType::kCompass, 0});
  plans[2].add(12000, {SensorType::kCompass, 0});
  plans[3].add(18000, {SensorType::kGps, 0});
  plans[3].add(26000, {SensorType::kBarometer, 0});
  plans[4].add(30000, {SensorType::kCompass, 1});
  plans[5].add(8000, {SensorType::kGyroscope, 1});
  plans[6].add(22000, {SensorType::kAccelerometer, 0});
  plans[7].add(5000, {SensorType::kGps, 0});
  return plans;
}

// The headline contract: the batch path is report-identical to the scalar
// path across the registry surface — both personalities x all five
// workloads x gusty — at widths 2, 4 and 8. Scalar baselines are computed
// once per spec; each width's batch takes a prefix of the spec list, so
// every width mixes never-diverging, early-diverging and late-diverging
// lanes.
TEST(BatchParity, BatchedRunsAreBitIdenticalAcrossTheRegistrySurface) {
  SimulationHarness harness;
  ExperimentContext context;
  BatchHarness engine(harness);

  const std::vector<std::string> personalities = {"ardupilot", "px4"};
  const std::vector<std::string> workloads = {"auto", "box-manual", "fence-mission",
                                              "wind-gust-box", "survey"};
  const std::vector<FaultPlan> plans = parity_plans();

  for (const std::string& personality : personalities) {
    for (const std::string& workload : workloads) {
      const std::string label = personality + "/" + workload + "/gusty";
      SCOPED_TRACE(label);
      ScenarioSpec scenario;
      scenario.personality = personality;
      scenario.workload = workload;
      scenario.environment = "gusty";
      const ExperimentSpec prototype = scenario_prototype(scenario);

      std::vector<ExperimentSpec> specs(plans.size(), prototype);
      std::vector<ExperimentResult> scalar(plans.size());
      for (std::size_t i = 0; i < plans.size(); ++i) {
        specs[i].plan = plans[i];
        scalar[i] = harness.run(specs[i], nullptr, &context);
      }

      for (const std::size_t width : {2u, 4u, 8u}) {
        const std::vector<ExperimentSpec> slice(specs.begin(),
                                                specs.begin() + static_cast<std::ptrdiff_t>(width));
        const std::vector<ExperimentResult> batched = engine.run(slice);
        ASSERT_EQ(batched.size(), width);
        for (std::size_t i = 0; i < width; ++i) {
          expect_results_identical(scalar[i], batched[i],
                                   label + "/w" + std::to_string(width) + "/" +
                                       std::to_string(i));
        }
      }
    }
  }
}

// Monitored batch runs: violations (with stop-on-violation truncation) must
// fire at the same millisecond whether the lane diverged before the
// violation or the violation window was reached scalar-side after an early
// divergence. The compass fault in the APM-16967 window produces a real
// monitored violation.
TEST(BatchParity, MonitoredViolationsMatchScalarTiming) {
  auto& checker = avis::testing::cached_checker(fw::Personality::kArduPilotLike,
                                                workload::WorkloadId::kFenceMission);
  const MonitorModel& model = checker.model();
  SimulationHarness harness;
  ExperimentContext context;
  BatchHarness engine(harness);

  ExperimentSpec prototype;
  prototype.personality = fw::Personality::kArduPilotLike;
  prototype.workload = workload::WorkloadId::kFenceMission;
  prototype.seed = 100;
  prototype.max_duration_ms = model.profiling_duration_ms() + 45000;

  std::vector<ExperimentSpec> specs(3, prototype);
  specs[0].plan.add(avis::testing::transition_time(model, "auto-wp2"),
                    {SensorType::kCompass, 0});
  specs[1].plan.add(500, {SensorType::kCompass, 0});
  // specs[2]: empty plan (golden; the lane retires inside the batch).

  std::vector<ExperimentResult> scalar;
  for (const ExperimentSpec& spec : specs) scalar.push_back(harness.run(spec, &model, &context));
  ASSERT_TRUE(scalar[0].violation.has_value());

  const std::vector<ExperimentResult> batched = engine.run(specs, &model);
  ASSERT_EQ(batched.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    expect_results_identical(scalar[i], batched[i], "monitored/" + std::to_string(i));
}

// Checkpointed batch runs: lanes resuming from different snapshots (and one
// from cold) land in different lockstep groups; each must match the scalar
// checkpoint-restored run exactly, including resumed_from_ms.
TEST(BatchParity, CheckpointResumedBatchesMatchScalarRestores) {
  SimulationHarness harness;
  ExperimentContext context;
  BatchHarness engine(harness);

  ScenarioSpec scenario;
  scenario.personality = "ardupilot";
  scenario.workload = "auto";
  scenario.environment = "gusty";
  const ExperimentSpec prototype = scenario_prototype(scenario);
  const CheckpointStore store = harness.record_prefix(prototype, nullptr, {}, &context);
  ASSERT_GT(store.size(), 1u);

  std::vector<ExperimentSpec> specs(4, prototype);
  specs[0].plan.add(12000, {SensorType::kCompass, 0});   // mid snapshot
  specs[1].plan.add(18000, {SensorType::kGps, 0});       // later snapshot
  specs[2].plan.add(500, {SensorType::kCompass, 0});     // before first snapshot: cold
  specs[3].plan.add(12500, {SensorType::kBarometer, 0}); // shares specs[0]'s snapshot

  std::vector<ExperimentResult> scalar;
  for (const ExperimentSpec& spec : specs)
    scalar.push_back(harness.run(spec, nullptr, &context, &store));
  EXPECT_GT(scalar[0].resumed_from_ms, 0);
  EXPECT_EQ(scalar[2].resumed_from_ms, 0);

  const std::vector<ExperimentResult> batched = engine.run(specs, nullptr, &store);
  ASSERT_EQ(batched.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    expect_results_identical(scalar[i], batched[i], "checkpointed/" + std::to_string(i));
}

// Width 1 is a degenerate batch, not a special case: a single-lane batch
// must still be report-identical.
TEST(BatchParity, WidthOneRoutesThroughTheBatchEngineIdentically) {
  SimulationHarness harness;
  ExperimentContext context;
  BatchHarness engine(harness);

  ScenarioSpec scenario;
  scenario.personality = "px4";
  scenario.workload = "survey";
  scenario.environment = "gusty";
  ExperimentSpec spec = scenario_prototype(scenario);
  spec.plan.add(15000, {SensorType::kGps, 0});

  const ExperimentResult scalar = harness.run(spec, nullptr, &context);
  const std::vector<ExperimentResult> batched = engine.run({spec});
  ASSERT_EQ(batched.size(), 1u);
  expect_results_identical(scalar, batched[0], "width-1");
}

}  // namespace
}  // namespace avis::core
