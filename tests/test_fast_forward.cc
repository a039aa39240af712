// Absorbing-tail fast-forward: a run whose landed, disarmed vehicle is
// written out instead of stepped must be bit-identical to the same run
// stepped every millisecond. A no-op step hook is the oracle — a hook
// observes every millisecond, so a hooked harness never fast-forwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <string>

#include "core/checkpoint.h"
#include "core/harness.h"
#include "core/scenario.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace avis::core {
namespace {

using sensors::SensorId;
using sensors::SensorType;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const geo::Vec3& a, const geo::Vec3& b) {
  return same_bits(a.x, b.x) && same_bits(a.y, b.y) && same_bits(a.z, b.z);
}

// Every ExperimentResult field except fast_forwarded_from_ms; the trace
// bit for bit.
void expect_identical(const ExperimentResult& stepped, const ExperimentResult& fast,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(stepped.workload_passed, fast.workload_passed);
  EXPECT_EQ(stepped.duration_ms, fast.duration_ms);
  EXPECT_EQ(stepped.fired_bugs, fast.fired_bugs);
  EXPECT_EQ(stepped.crash_cause, fast.crash_cause);
  EXPECT_EQ(stepped.resumed_from_ms, fast.resumed_from_ms);
  EXPECT_EQ(stepped.resumed_depth, fast.resumed_depth);
  ASSERT_EQ(stepped.violation.has_value(), fast.violation.has_value());
  if (stepped.violation) {
    EXPECT_EQ(stepped.violation->type, fast.violation->type);
    EXPECT_EQ(stepped.violation->time_ms, fast.violation->time_ms);
    EXPECT_EQ(stepped.violation->mode_id, fast.violation->mode_id);
    EXPECT_EQ(stepped.violation->details, fast.violation->details);
  }
  ASSERT_EQ(stepped.transitions.size(), fast.transitions.size());
  for (std::size_t i = 0; i < stepped.transitions.size(); ++i) {
    EXPECT_EQ(stepped.transitions[i].time_ms, fast.transitions[i].time_ms) << "t " << i;
    EXPECT_EQ(stepped.transitions[i].mode_id, fast.transitions[i].mode_id) << "t " << i;
    EXPECT_EQ(stepped.transitions[i].mode_name, fast.transitions[i].mode_name) << "t " << i;
  }
  ASSERT_EQ(stepped.trace.size(), fast.trace.size());
  for (std::size_t i = 0; i < stepped.trace.size(); ++i) {
    const StateSample& a = stepped.trace[i];
    const StateSample& b = fast.trace[i];
    ASSERT_TRUE(a.time_ms == b.time_ms && same_bits(a.position, b.position) &&
                same_bits(a.acceleration, b.acceleration) && a.mode_id == b.mode_id &&
                a.on_ground == b.on_ground && a.armed == b.armed)
        << "sample " << i << " at t=" << a.time_ms;
  }
}

SimulationHarness stepped_harness() {
  SimulationHarness harness;
  harness.set_step_hook([](sim::SimTimeMs, const sim::VehicleState&, const fw::Firmware&) {});
  return harness;
}

fw::BugRegistry all_bugs() {
  fw::BugRegistry bugs;
  for (fw::BugId id : fw::kAllBugs) bugs.enable(id);
  return bugs;
}

// One to three injections spread over the flight, on any sensor instance.
FaultPlan random_plan(util::Rng& rng) {
  util::Rng seeds(1);
  const std::vector<SensorId> ids =
      sensors::SensorSuite(SimulationHarness::iris_suite(), seeds).all_ids();
  FaultPlan plan;
  const int events = 1 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < events; ++i) {
    plan.add(3000 + static_cast<sim::SimTimeMs>(rng.next_below(40000)),
             ids[rng.next_below(ids.size())]);
  }
  return plan;
}

// The parity matrix: 2 personalities x 3 workloads x stop_on_violation
// on/off x 20 random plans (half with all 15 bugs enabled), each run with
// and without the oracle hook on one shared arena.
TEST(FastForward, MatchesTheSteppedLoopAcrossPersonalitiesWorkloadsAndBugs) {
  const SimulationHarness fast;
  const SimulationHarness stepped = stepped_harness();
  ExperimentContext context;
  util::Rng rng(2024);
  int runs = 0;
  int fast_forwarded = 0;
  for (fw::Personality personality : {fw::Personality::kArduPilotLike, fw::Personality::kPx4Like}) {
    for (workload::WorkloadId workload : {workload::WorkloadId::kAuto,
                                          workload::WorkloadId::kBoxManual,
                                          workload::WorkloadId::kFenceMission}) {
      const MonitorModel& model = testing::cached_checker(personality, workload).model();
      for (bool stop : {true, false}) {
        for (int i = 0; i < 20; ++i) {
          ExperimentSpec spec;
          spec.personality = personality;
          spec.workload = workload;
          spec.bugs = i % 2 == 0 ? all_bugs() : fw::BugRegistry::current_code_base();
          spec.plan = random_plan(rng);
          spec.seed = 100 + static_cast<std::uint64_t>(i);
          spec.stop_on_violation = stop;
          const std::string label = std::string(workload::to_string(workload)) + "/" +
                                    (personality == fw::Personality::kPx4Like ? "px4" : "apm") +
                                    (stop ? "/stop " : "/full ") + spec.plan.to_string();
          const ExperimentResult a = fast.run(spec, &model, &context);
          const ExperimentResult b = stepped.run(spec, &model, &context);
          EXPECT_EQ(b.fast_forwarded_from_ms, -1) << label;
          expect_identical(b, a, label);
          ++runs;
          if (a.fast_forwarded_from_ms >= 0) {
            ++fast_forwarded;
            EXPECT_LT(a.fast_forwarded_from_ms, a.duration_ms) << label;
          }
        }
      }
    }
  }
  // Not vacuous: the matrix exercises the fast path.
  EXPECT_GT(fast_forwarded, runs / 10) << fast_forwarded << " of " << runs;
}

// Checkpoint-restored runs fast-forward the same way, and run_recording
// grows the same checkpoint tree either way.
TEST(FastForward, RestoredRunsAndTreeGrowthMatchTheSteppedLoop) {
  const SimulationHarness fast;
  const SimulationHarness stepped = stepped_harness();
  ExperimentContext context;
  for (workload::WorkloadId workload :
       {workload::WorkloadId::kBoxManual, workload::WorkloadId::kFenceMission}) {
    const fw::Personality personality = fw::Personality::kArduPilotLike;
    const MonitorModel& model = testing::cached_checker(personality, workload).model();
    ExperimentSpec prototype;
    prototype.personality = personality;
    prototype.workload = workload;
    CheckpointConfig config;
    CheckpointStore fast_store = fast.record_prefix(prototype, &model, config, &context);
    CheckpointStore stepped_store = stepped.record_prefix(prototype, &model, config, &context);

    util::Rng rng(7);
    int fast_forwarded = 0;
    int restored = 0;
    for (int i = 0; i < 12; ++i) {
      ExperimentSpec spec = prototype;
      spec.plan = random_plan(rng);
      const std::string label = std::string(workload::to_string(workload)) + " " +
                                spec.plan.to_string();
      // Plain restores from the root (and whatever tree has grown so far).
      const ExperimentResult a = fast.run(spec, &model, &context, &fast_store);
      const ExperimentResult b = stepped.run(spec, &model, &context, &stepped_store);
      expect_identical(b, a, "restore " + label);
      if (a.resumed_from_ms > 0) ++restored;
      if (a.fast_forwarded_from_ms >= 0) ++fast_forwarded;
      // Tree growth, then a child forking from the grown tree.
      const ExperimentResult ra = fast.run_recording(spec, &model, &context, fast_store);
      const ExperimentResult rb = stepped.run_recording(spec, &model, &context, stepped_store);
      expect_identical(rb, ra, "recording " + label);
      EXPECT_EQ(fast_store.tree_size(), stepped_store.tree_size()) << label;
      EXPECT_EQ(fast_store.tree_bytes(), stepped_store.tree_bytes()) << label;
      ExperimentSpec child = spec;
      child.plan.add(spec.plan.events.back().time_ms + 4000, SensorId{SensorType::kCompass, 0});
      const ExperimentResult ca = fast.run(child, &model, &context, &fast_store);
      const ExperimentResult cb = stepped.run(child, &model, &context, &stepped_store);
      expect_identical(cb, ca, "child " + label);
      if (ca.fast_forwarded_from_ms >= 0) ++fast_forwarded;
    }
    EXPECT_GT(restored, 0);
    EXPECT_GT(fast_forwarded, 0);
  }
}

// Gusts make the physics draw from the RNG and push the landed vehicle
// around every step: the sim predicate declines and nothing fast-forwards.
TEST(FastForward, GustyWindGustBoxNeverFastForwards) {
  const SimulationHarness fast;
  const SimulationHarness stepped = stepped_harness();
  ExperimentContext context;
  ScenarioSpec scenario;
  scenario.personality = "ardupilot";
  scenario.workload = "wind-gust-box";
  scenario.environment = "gusty";
  const ExperimentSpec prototype = scenario_prototype(scenario);
  util::Rng rng(11);
  for (int i = 0; i < 6; ++i) {
    ExperimentSpec spec = prototype;
    spec.plan = i == 0 ? FaultPlan{} : random_plan(rng);
    const ExperimentResult a = fast.run(spec, nullptr, &context);
    const ExperimentResult b = stepped.run(spec, nullptr, &context);
    EXPECT_EQ(a.fast_forwarded_from_ms, -1) << spec.plan.to_string();
    expect_identical(b, a, spec.plan.to_string());
  }
}

// APM-16682 switches the landed vehicle's published altitude to raw GPS
// (2.8 m 1-sigma) plus a 12 m bias. On the ground that still crosses the
// takeoff step's 19.4 m goal now and then, so the ceiling must refuse a
// proof, and the run must match the stepped loop.
TEST(FastForward, Apm16682GpsAltitudeOnTheGroundDeclines) {
  const SimulationHarness fast;
  SimulationHarness stepped;
  ExperimentContext context;
  ExperimentSpec spec;
  spec.personality = fw::Personality::kArduPilotLike;
  spec.workload = workload::WorkloadId::kBoxManual;
  // The battery failsafe lands the vehicle; the primary accelerometer dies
  // just before touchdown, so APM-16682 fires too low to crash.
  spec.plan.add(5000, SensorId{SensorType::kBattery, 0});
  spec.plan.add(21500, SensorId{SensorType::kAccelerometer, 0});
  spec.seed = 100;

  // The stepped oracle also watches for the flip: a vehicle on the ground
  // whose published altitude reaches the takeoff step's goal.
  bool flipped = false;
  stepped.set_step_hook([&flipped](sim::SimTimeMs, const sim::VehicleState& truth,
                                   const fw::Firmware& firmware) {
    if (truth.on_ground && firmware.estimate().altitude() >= workload::kCruiseAltitude - 0.6) {
      flipped = true;
    }
  });
  const ExperimentResult a = fast.run(spec, nullptr, &context);
  const std::optional<double> ceiling =
      context.world().firmware->estimator().ground_altitude_ceiling();
  const ExperimentResult b = stepped.run(spec, nullptr, &context);

  ASSERT_NE(std::find(b.fired_bugs.begin(), b.fired_bugs.end(), fw::BugId::kApm16682),
            b.fired_bugs.end());
  EXPECT_EQ(b.crash_cause, sim::CrashCause::kNone);
  EXPECT_TRUE(flipped);
  EXPECT_FALSE(ceiling.has_value());
  expect_identical(b, a, spec.plan.to_string());
}

}  // namespace
}  // namespace avis::core
