#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

#include "core/harness.h"
#include "sim/environment.h"
#include "sim/quadcopter.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace avis::sim {
namespace {

MotorCommands uniform(double throttle) {
  MotorCommands m;
  for (double& v : m.value) v = throttle;
  return m;
}

class QuadcopterTest : public ::testing::Test {
 protected:
  Environment env_;
  QuadcopterDynamics dynamics_;
  VehicleState state_;
  util::Rng rng_{1};

  CrashCause step_n(const MotorCommands& motors, int n) {
    CrashCause last = CrashCause::kNone;
    for (int i = 0; i < n; ++i) {
      const CrashCause c = dynamics_.step(state_, motors, env_, kStepSeconds, rng_);
      if (c != CrashCause::kNone) last = c;
    }
    return last;
  }
};

TEST_F(QuadcopterTest, RestsOnGroundWithMotorsOff) {
  step_n({}, 1000);
  EXPECT_TRUE(state_.on_ground);
  EXPECT_FALSE(state_.crashed);
  EXPECT_NEAR(state_.position.z, 0.0, 1e-9);
}

TEST_F(QuadcopterTest, HoverThrottleApproximatelyBalances) {
  // hover = m*g / (4*Fmax) = 1.5*9.80665 / 29.6
  const double hover = 1.5 * 9.80665 / (4.0 * dynamics_.params().max_motor_thrust_n);
  state_.position.z = -10.0;
  state_.on_ground = false;
  step_n(uniform(hover), 2000);
  // Slight drift is fine; it must not gain or lose more than a metre in 2 s.
  EXPECT_NEAR(state_.altitude(), 10.0, 1.0);
}

TEST_F(QuadcopterTest, ClimbsUnderExcessThrust) {
  step_n(uniform(0.8), 1500);
  EXPECT_GT(state_.altitude(), 3.0);
  EXPECT_FALSE(state_.on_ground);
}

TEST_F(QuadcopterTest, MotorLagSmoothsCommands) {
  state_.position.z = -10.0;
  state_.on_ground = false;
  dynamics_.step(state_, uniform(1.0), env_, kStepSeconds, rng_);
  // After one 1 ms step the motors must not have reached the command.
  EXPECT_LT(state_.motors.value[0], 0.2);
}

TEST_F(QuadcopterTest, GentleDescentLandsWithoutCrash) {
  state_.position.z = -3.0;
  state_.on_ground = false;
  state_.velocity.z = 1.0;  // descending 1 m/s
  const double near_hover = 0.46;
  step_n(uniform(near_hover), 6000);
  EXPECT_TRUE(state_.on_ground);
  EXPECT_FALSE(state_.crashed);
}

TEST_F(QuadcopterTest, FastDescentIsAHardLanding) {
  state_.position.z = -8.0;
  state_.on_ground = false;
  state_.velocity.z = 3.5;  // descending fast, motors off
  const CrashCause cause = step_n({}, 4000);
  EXPECT_TRUE(state_.crashed);
  EXPECT_EQ(cause, CrashCause::kHardLanding);
}

TEST_F(QuadcopterTest, TiltedContactTipsOver) {
  // Gentle contact (below the hard-landing limit) but heavily tilted.
  state_.position.z = -0.15;
  state_.on_ground = false;
  state_.velocity.z = 0.3;
  state_.attitude.roll = 1.2;  // ~69 degrees
  const CrashCause cause = step_n({}, 2000);
  EXPECT_TRUE(state_.crashed);
  EXPECT_EQ(cause, CrashCause::kTippedOver);
}

TEST_F(QuadcopterTest, LateralImpactDetected) {
  // Gentle vertical contact, level attitude, but sliding fast sideways.
  state_.position.z = -0.15;
  state_.on_ground = false;
  state_.velocity = {6.0, 0.0, 0.2};
  const CrashCause cause = step_n({}, 2000);
  EXPECT_TRUE(state_.crashed);
  EXPECT_EQ(cause, CrashCause::kLateralImpact);
}

TEST_F(QuadcopterTest, CrashedVehicleStaysPut) {
  state_.position.z = -5.0;
  state_.on_ground = false;
  state_.velocity.z = 4.0;
  step_n({}, 3000);
  ASSERT_TRUE(state_.crashed);
  const geo::Vec3 resting = state_.position;
  step_n(uniform(1.0), 1000);  // full throttle does nothing to a wreck
  EXPECT_EQ(state_.position, resting);
}

TEST_F(QuadcopterTest, BatteryDrainsFasterAtHighThrust) {
  VehicleState high = state_;
  VehicleState low = state_;
  high.position.z = low.position.z = -50.0;
  high.on_ground = low.on_ground = false;
  util::Rng rng_a{1};
  util::Rng rng_b{1};
  for (int i = 0; i < 2000; ++i) {
    dynamics_.step(high, uniform(0.9), env_, kStepSeconds, rng_a);
    dynamics_.step(low, uniform(0.3), env_, kStepSeconds, rng_b);
  }
  EXPECT_LT(high.battery_remaining, low.battery_remaining);
  EXPECT_LT(high.battery_voltage, low.battery_voltage);
}

TEST_F(QuadcopterTest, YawTorqueFromDifferentialPairs) {
  state_.position.z = -10.0;
  state_.on_ground = false;
  MotorCommands m;
  m.value = {0.6, 0.6, 0.4, 0.4};  // CCW pair faster -> positive yaw torque
  step_n(m, 300);
  EXPECT_GT(state_.body_rates.z, 0.05);
}

TEST_F(QuadcopterTest, RollTorqueFromLeftRightSplit) {
  state_.position.z = -10.0;
  state_.on_ground = false;
  MotorCommands m;
  m.value = {0.4, 0.6, 0.6, 0.4};  // left motors (1=BL, 2=FL) faster -> +roll
  step_n(m, 200);
  EXPECT_GT(state_.body_rates.x, 0.05);
}

std::vector<double> doubles_of(const VehicleState& s) {
  return {s.position.x,       s.position.y,        s.position.z,        s.velocity.x,
          s.velocity.y,       s.velocity.z,        s.acceleration.x,    s.acceleration.y,
          s.acceleration.z,   s.attitude.roll,     s.attitude.pitch,    s.attitude.yaw,
          s.body_rates.x,     s.body_rates.y,      s.body_rates.z,      s.motors.value[0],
          s.motors.value[1],  s.motors.value[2],   s.motors.value[3],   s.battery_voltage,
          s.battery_remaining};
}

// A landed vehicle whose motors were spinning decays toward zero command for
// the rest of the run. The decay must end at exactly 0.0 and never pass
// through a subnormal state value, or every later step pays for subnormal
// arithmetic.
TEST_F(QuadcopterTest, MotorSpinDownEndsAtZeroWithoutSubnormals) {
  // Idle on the ground just under hover throttle, with a yaw split so the
  // body rates are nonzero too.
  const double hover = 1.5 * 9.80665 / (4.0 * dynamics_.params().max_motor_thrust_n);
  MotorCommands idle;
  idle.value = {0.95 * hover, 0.95 * hover, 0.9 * hover, 0.9 * hover};
  step_n(idle, 2000);
  ASSERT_TRUE(state_.on_ground);
  ASSERT_FALSE(state_.crashed);
  ASSERT_GT(state_.body_rates.z, 0.0);

  for (int i = 0; i < 30000; ++i) {  // 30 simulated seconds of zero command
    dynamics_.step(state_, {}, env_, kStepSeconds, rng_);
    for (double v : doubles_of(state_)) {
      ASSERT_NE(std::fpclassify(v), FP_SUBNORMAL) << "step " << i << ": " << v;
    }
  }
  for (double m : state_.motors.value) EXPECT_EQ(m, 0.0);
  EXPECT_TRUE(state_.on_ground);
}

// power_w drops the thrust term below kNegligibleThrustRatio; the result must
// equal the power-law formula bit for bit all the way down through the
// subnormal ratios, for any physical hover power.
TEST(QuadcopterPower, NegligibleThrustShortcutMatchesFormula) {
  for (double hover_power_w : {180.0, 2.0e4, 1.0e19}) {
    QuadcopterParams params;
    params.hover_power_w = hover_power_w;
    const QuadcopterDynamics dynamics(params);
    const double hover_thrust = params.mass_kg * params.gravity;
    int checked = 0;
    // Ratios 2^-81 (~4e-25) down to the smallest subnormal, four per octave.
    for (int exponent = -81; exponent >= -1074; --exponent) {
      for (double mantissa : {1.0, 1.25, 1.5, 1.75}) {
        const double thrust = std::ldexp(mantissa, exponent) * hover_thrust;
        const double ratio = thrust / hover_thrust;
        ASSERT_LT(ratio, QuadcopterDynamics::kNegligibleThrustRatio);
        const double formula =
            hover_power_w * (ratio * std::sqrt(ratio)) + QuadcopterDynamics::kAvionicsPowerW;
        ASSERT_EQ(dynamics.power_w(thrust), formula)
            << "hover " << hover_power_w << " ratio " << ratio;
        ++checked;
      }
    }
    EXPECT_EQ(checked, 994 * 4);
    EXPECT_EQ(dynamics.power_w(0.0), QuadcopterDynamics::kAvionicsPowerW);
  }
}

// Whole-run guard: reads and clears the x86-64 MXCSR denormal-operand sticky
// flag after every harness step, over long runs that land and disarm early
// and then wait out a workload timeout. A few short streaks are harmless (a
// decaying value passing through the subnormal range); a run that keeps
// touching subnormals for more than one simulated second has a decay that
// sticks there, in physics, sensing, estimator or control.
TEST(SubnormalGuard, LongLandedRunsDoNotDwellOnSubnormals) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "reads the x86-64 MXCSR denormal-operand flag";
#else
  constexpr unsigned kDenormalOperand = 0x2;  // MXCSR DE
  constexpr int kMaxStreakSteps = 1000;       // 1 simulated second
  core::SimulationHarness harness;
  int streak = 0;
  int longest = 0;
  harness.set_step_hook([&](SimTimeMs, const VehicleState&, const fw::Firmware&) {
    const unsigned csr = _mm_getcsr();
    _mm_setcsr(csr & ~kDenormalOperand);
    streak = (csr & kDenormalOperand) != 0 ? streak + 1 : 0;
    longest = std::max(longest, streak);
  });
  for (fw::Personality personality : {fw::Personality::kArduPilotLike, fw::Personality::kPx4Like}) {
    for (workload::WorkloadId workload :
         {workload::WorkloadId::kAuto, workload::WorkloadId::kBoxManual,
          workload::WorkloadId::kFenceMission}) {
      for (sensors::SensorType type : {sensors::SensorType::kBattery, sensors::SensorType::kGps,
                                       sensors::SensorType::kBarometer}) {
        core::ExperimentSpec spec;
        spec.personality = personality;
        spec.workload = workload;
        spec.stop_on_violation = false;
        spec.plan.add(5000, {type, 0});  // just after arming
        streak = 0;
        longest = 0;
        _mm_setcsr(_mm_getcsr() & ~kDenormalOperand);
        const core::ExperimentResult result = harness.run(spec);
        EXPECT_LE(longest, kMaxStreakSteps)
            << fw::to_string(personality) << "/" << workload::to_string(workload) << "/"
            << sensors::to_string(type) << " (" << result.duration_ms << " ms run)";
      }
    }
  }
#endif
}

TEST(Environment, ObstacleContainment) {
  Obstacle box{{0, 0, -10}, {5, 5, 0}};
  EXPECT_TRUE(box.contains({2, 2, -5}));
  EXPECT_FALSE(box.contains({6, 2, -5}));
  Environment env;
  env.add_obstacle(box);
  EXPECT_TRUE(env.hits_obstacle({1, 1, -1}));
  EXPECT_FALSE(env.hits_obstacle({-1, 1, -1}));
}

TEST(Environment, FenceViolation) {
  Fence fence;
  fence.min_north = -5;
  fence.max_north = 30;
  fence.min_east = -5;
  fence.max_east = 30;
  fence.max_altitude = 40;
  EXPECT_FALSE(fence.violates({10, 10, -20}));
  EXPECT_TRUE(fence.violates({31, 10, -20}));
  EXPECT_TRUE(fence.violates({10, -6, -20}));
  EXPECT_TRUE(fence.violates({10, 10, -41}));
}

TEST(Environment, ObstacleCollisionCrashes) {
  Environment env;
  env.add_obstacle(Obstacle{{0.5, -2, -6}, {8, 2, 0}});
  QuadcopterDynamics dynamics;
  VehicleState state;
  state.position = {-2.0, 0.0, -4.0};
  state.on_ground = false;
  state.velocity = {4.0, 0.0, 0.0};
  util::Rng rng(1);
  CrashCause cause = CrashCause::kNone;
  for (int i = 0; i < 3000 && cause == CrashCause::kNone; ++i) {
    cause = dynamics.step(state, {}, env, kStepSeconds, rng);
    if (state.on_ground) break;
  }
  EXPECT_EQ(cause, CrashCause::kObstacle);
}

TEST(Simulator, AdvancesTimeAndNotifiesObservers) {
  Simulator simulator(Environment{}, QuadcopterParams{}, 7);
  int events = 0;
  simulator.add_observer([&](const StepEvent& e) {
    ++events;
    EXPECT_NE(e.state, nullptr);
  });
  for (int i = 0; i < 50; ++i) simulator.step({});
  EXPECT_EQ(simulator.now_ms(), 50);
  EXPECT_DOUBLE_EQ(simulator.now_seconds(), 0.05);
  EXPECT_EQ(events, 50);
}

TEST(Simulator, DeterministicForSameSeed) {
  Simulator a(Environment{}, QuadcopterParams{}, 3);
  Simulator b(Environment{}, QuadcopterParams{}, 3);
  MotorCommands m;
  m.value = {0.7, 0.6, 0.65, 0.62};
  for (int i = 0; i < 2000; ++i) {
    a.step(m);
    b.step(m);
  }
  EXPECT_EQ(a.state().position, b.state().position);
  EXPECT_EQ(a.state().velocity, b.state().velocity);
}

}  // namespace
}  // namespace avis::sim
