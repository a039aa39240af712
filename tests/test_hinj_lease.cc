// hinj read leases end to end: a scheduled run answers most sensor reads
// from the client's lease table instead of a round trip to the director.
// The contract under test is that this changes nothing observable — every
// leased run is bit-identical, field by field, to the same spec run through
// a director that grants no lease (one round trip per read) — and that
// leases never outlive the director binding that granted them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/harness.h"
#include "test_helpers.h"

namespace avis::core {
namespace {

using avis::testing::cached_checker;
using sensors::SensorId;
using sensors::SensorType;

// Forwards every decision to `inner` and counts the round trips that reach
// it. Without `forward_leases` it grants no lease, so the client takes the
// wire on every read: the pre-lease reference path.
class CountingDirector final : public hinj::FaultDirector {
 public:
  CountingDirector(hinj::FaultDirector& inner, bool forward_leases)
      : inner_(&inner), forward_leases_(forward_leases) {}
  bool should_fail(const SensorId& sensor, std::int64_t time_ms) override {
    ++round_trips;
    return inner_->should_fail(sensor, time_ms);
  }
  std::int64_t pass_until(const SensorId& sensor, std::int64_t time_ms) override {
    return forward_leases_ ? inner_->pass_until(sensor, time_ms) : time_ms;
  }
  void on_mode_update(std::uint16_t mode_id, std::string_view mode_name,
                      std::int64_t time_ms) override {
    inner_->on_mode_update(mode_id, mode_name, time_ms);
  }
  void on_heartbeat(std::int64_t time_ms) override { inner_->on_heartbeat(time_ms); }

  std::int64_t round_trips = 0;

 private:
  hinj::FaultDirector* inner_;
  bool forward_leases_;
};

void expect_results_identical(const ExperimentResult& reference, const ExperimentResult& leased,
                              const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(reference.workload_passed, leased.workload_passed);
  EXPECT_EQ(reference.duration_ms, leased.duration_ms);
  EXPECT_EQ(reference.fired_bugs, leased.fired_bugs);
  EXPECT_EQ(reference.crash_cause, leased.crash_cause);
  ASSERT_EQ(reference.violation.has_value(), leased.violation.has_value());
  if (reference.violation) {
    EXPECT_EQ(reference.violation->type, leased.violation->type);
    EXPECT_EQ(reference.violation->time_ms, leased.violation->time_ms);
    EXPECT_EQ(reference.violation->mode_id, leased.violation->mode_id);
    EXPECT_EQ(reference.violation->details, leased.violation->details);
  }
  ASSERT_EQ(reference.transitions.size(), leased.transitions.size());
  for (std::size_t i = 0; i < reference.transitions.size(); ++i) {
    EXPECT_EQ(reference.transitions[i].time_ms, leased.transitions[i].time_ms) << "t " << i;
    EXPECT_EQ(reference.transitions[i].mode_id, leased.transitions[i].mode_id) << "t " << i;
    EXPECT_EQ(reference.transitions[i].mode_name, leased.transitions[i].mode_name) << "t " << i;
  }
  ASSERT_EQ(reference.trace.size(), leased.trace.size());
  for (std::size_t i = 0; i < reference.trace.size(); ++i) {
    EXPECT_EQ(reference.trace[i].time_ms, leased.trace[i].time_ms) << "i=" << i;
    EXPECT_EQ(reference.trace[i].position, leased.trace[i].position) << "i=" << i;
    EXPECT_EQ(reference.trace[i].acceleration, leased.trace[i].acceleration) << "i=" << i;
    EXPECT_EQ(reference.trace[i].mode_id, leased.trace[i].mode_id) << "i=" << i;
    EXPECT_EQ(reference.trace[i].on_ground, leased.trace[i].on_ground) << "i=" << i;
    EXPECT_EQ(reference.trace[i].armed, leased.trace[i].armed) << "i=" << i;
  }
}

FaultPlan plan_of(std::initializer_list<std::pair<sim::SimTimeMs, SensorId>> events) {
  FaultPlan plan;
  for (const auto& [t, id] : events) plan.add(t, id);
  return plan;
}

ExperimentSpec fence_spec(FaultPlan plan) {
  ExperimentSpec spec;
  spec.personality = fw::Personality::kArduPilotLike;
  spec.workload = workload::WorkloadId::kFenceMission;
  spec.seed = 100;
  spec.plan = std::move(plan);
  return spec;
}

// The reference: the spec's own schedule, one round trip per read.
ExperimentResult run_without_leases(const SimulationHarness& harness, const ExperimentSpec& spec,
                                    const MonitorModel* model) {
  ScheduledDirector scheduled(spec.plan);
  CountingDirector no_lease(scheduled, /*forward_leases=*/false);
  return harness.run_with_director(spec, no_lease, model);
}

int suite_instances() {
  const sensors::SuiteConfig config = SimulationHarness::iris_suite();
  int total = 0;
  for (SensorType t : sensors::kAllSensorTypes) total += config.count(t);
  return total;
}

TEST(HinjLease, LeasedRunsEqualPerReadRoundTripsForEveryPlanShape) {
  const MonitorModel& model =
      cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kFenceMission)
          .model();
  SimulationHarness harness;
  ExperimentContext context;

  struct Case {
    const char* name;
    FaultPlan plan;
  };
  const std::vector<Case> cases = {
      {"empty", FaultPlan{}},
      {"at t=0", plan_of({{0, {SensorType::kCompass, 0}}})},
      // Two sensors activate in the same ms: both reads of that step must
      // fail, in the estimator's read order.
      {"same ms", plan_of({{15000, {SensorType::kGyroscope, 1}},
                           {15000, {SensorType::kAccelerometer, 0}}})},
      {"same sensor twice", plan_of({{10000, {SensorType::kGps, 0}},
                                     {20000, {SensorType::kGps, 0}}})},
      {"backup only", plan_of({{12000, {SensorType::kCompass, 1}}})},
      // The iris suite has compasses #0-#2: #3 is never read, and the
      // primary's failure must still land on time.
      {"absent instance", plan_of({{8000, {SensorType::kCompass, 3}},
                                   {16000, {SensorType::kBarometer, 0}}})},
  };
  for (const Case& c : cases) {
    const ExperimentSpec spec = fence_spec(c.plan);
    const ExperimentResult reference = run_without_leases(harness, spec, &model);
    expect_results_identical(reference, harness.run(spec, &model), std::string(c.name) + " cold");
    expect_results_identical(reference, harness.run(spec, &model, &context),
                             std::string(c.name) + " pooled");
  }
}

TEST(HinjLease, CheckpointRestoredChainEqualsItsColdRun) {
  // The parent's run leases gps#0 for good (its plan never fails it) on the
  // same context; the child restores from the parent's snapshot, boots
  // under the parked director, binds its own and must still see gps#0 fail
  // at 20 s.
  const MonitorModel& model =
      cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kFenceMission)
          .model();
  SimulationHarness harness;
  ExperimentContext context;
  ExperimentSpec spec = fence_spec(FaultPlan{});
  CheckpointStore store = harness.record_prefix(spec, &model, CheckpointConfig{}, &context);

  spec.plan = plan_of({{12000, {SensorType::kCompass, 1}}});
  const ExperimentResult parent = harness.run_recording(spec, &model, &context, store);
  ASSERT_FALSE(parent.unsafe());
  ASSERT_GT(store.tree_size(), 0u);

  spec.plan = plan_of({{12000, {SensorType::kCompass, 1}}, {20000, {SensorType::kGps, 0}}});
  const ExperimentResult child = harness.run(spec, &model, &context, &store);
  EXPECT_GE(child.resumed_depth, 1);
  expect_results_identical(run_without_leases(harness, spec, &model), child, "tree-restored");
}

TEST(HinjLease, ReusedContextRevokesThePreviousRunsLeases) {
  // Run 1 leases gps#0 up to 40 s; run 2 in the same context must fail it
  // at 5 s, exactly like a cold run of its own spec.
  SimulationHarness harness;
  ExperimentContext context;
  harness.run(fence_spec(plan_of({{40000, {SensorType::kGps, 0}}})), nullptr, &context);

  const ExperimentSpec second = fence_spec(plan_of({{5000, {SensorType::kGps, 0}}}));
  expect_results_identical(run_without_leases(harness, second, nullptr),
                           harness.run(second, nullptr, &context), "second run");
}

TEST(HinjLease, ScheduledRunMakesOneRoundTripPerInstancePlusOnePerActivation) {
  // Without leases the fence mission makes a round trip for every live
  // sensor on every step (~8.4 per simulated ms); with them, each instance
  // asks once and again at its activation, where it fails and latches.
  SimulationHarness harness;
  const ExperimentSpec spec = fence_spec(
      plan_of({{12000, {SensorType::kCompass, 1}}, {20000, {SensorType::kGps, 0}}}));

  ScheduledDirector scheduled(spec.plan);
  CountingDirector leased(scheduled, /*forward_leases=*/true);
  const ExperimentResult result = harness.run_with_director(spec, leased, nullptr);
  EXPECT_LE(leased.round_trips, suite_instances() + static_cast<int>(spec.plan.size()));

  CountingDirector unleased(scheduled, /*forward_leases=*/false);
  harness.run_with_director(spec, unleased, nullptr);
  EXPECT_GE(unleased.round_trips, result.duration_ms)
      << "the no-lease reference should ask on every step";
}

}  // namespace
}  // namespace avis::core
