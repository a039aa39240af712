#include "sim/quadcopter.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace avis::sim {

namespace {
double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }
}  // namespace

CrashCause QuadcopterDynamics::step(VehicleState& state, const MotorCommands& commanded,
                                    const Environment& env, double dt,
                                    util::Rng& rng) const {
  if (state.crashed) {
    // A crashed vehicle stays where it fell; motors are assumed destroyed.
    state.velocity = {};
    state.acceleration = {};
    state.body_rates = {};
    return CrashCause::kNone;
  }

  // First-order motor lag toward the commanded values.
  //
  // With a zero command the lag decays geometrically (x0.952 per 1 ms step),
  // leaves the normal range ~14.4 s after the last command and, left alone,
  // sticks at the smallest subnormal (4.94e-323) because alpha * m rounds to
  // zero. Every later step would then do arithmetic on subnormal operands,
  // several times slower than on normal numbers, and a landed, disarmed
  // vehicle waiting out a workload timeout spends most of its run there. So a
  // motor value below DBL_MIN is flushed to exactly 0.0. No observable bit
  // changes, because a thrust below 4 * max_motor_thrust_n * DBL_MIN is
  // absorbed wherever it goes:
  //   - in force.z it is far below half an ulp of the weight;
  //   - on the ground, ground support zeroes acceleration and velocity;
  //   - its torques are far below half an ulp of angular_drag * body_rates
  //     (the rates lose at most 0.3% per step and stay normal, ~1e-55 at the
  //     longest run), or vanish once multiplied by dt;
  //   - in power_w it is below kNegligibleThrustRatio.
  const double alpha = dt / (params_.motor_time_constant_s + dt);
  for (int i = 0; i < 4; ++i) {
    const double target = clamp01(commanded.value[i]);
    double& motor = state.motors.value[i];
    motor += alpha * (target - motor);
    if (std::abs(motor) < std::numeric_limits<double>::min()) motor = 0.0;
  }

  // Thrust and torques from the quad-X mixer geometry.
  const auto& m = state.motors.value;
  const double f0 = m[0] * params_.max_motor_thrust_n;  // front-right (CCW)
  const double f1 = m[1] * params_.max_motor_thrust_n;  // back-left   (CCW)
  const double f2 = m[2] * params_.max_motor_thrust_n;  // front-left  (CW)
  const double f3 = m[3] * params_.max_motor_thrust_n;  // back-right  (CW)
  const double thrust = f0 + f1 + f2 + f3;

  const double l = params_.arm_length_m * 0.70710678;  // X-frame moment arm
  const double torque_roll = l * ((f1 + f2) - (f0 + f3));   // left-up positive
  const double torque_pitch = l * ((f0 + f2) - (f1 + f3));  // nose-up positive
  const double torque_yaw = params_.yaw_torque_coeff * ((f0 + f1) - (f2 + f3));

  // Rotational dynamics with aerodynamic damping.
  geo::Vec3 angular_accel{
      (torque_roll - params_.angular_drag * state.body_rates.x) / params_.inertia_roll,
      (torque_pitch - params_.angular_drag * state.body_rates.y) / params_.inertia_pitch,
      (torque_yaw - params_.angular_drag * state.body_rates.z) / params_.inertia_yaw,
  };
  state.body_rates += angular_accel * dt;
  state.attitude.integrate_rates(state.body_rates, dt);

  // Translational dynamics. Thrust acts along body -z (up when level).
  const geo::Vec3 thrust_world = state.attitude.body_to_world({0.0, 0.0, -thrust});
  geo::Vec3 wind = env.wind().mean;
  if (env.wind().gust_stddev > 0.0) {
    wind += geo::Vec3{rng.gaussian(env.wind().gust_stddev), rng.gaussian(env.wind().gust_stddev),
                      rng.gaussian(env.wind().gust_stddev)};
  }
  const geo::Vec3 air_velocity = state.velocity - wind;
  const geo::Vec3 drag = air_velocity * (-params_.linear_drag);

  geo::Vec3 force = thrust_world + drag;
  force.z += params_.mass_kg * params_.gravity;  // NED: +z is down

  state.acceleration = force / params_.mass_kg;

  // Ground support: if resting on the ground and net force is downward,
  // the ground provides the normal force.
  const bool touching = state.position.z >= Environment::ground_z() - 1e-9;
  if (touching && state.acceleration.z > 0.0 && state.velocity.z >= -1e-6) {
    state.acceleration = {0.0, 0.0, 0.0};
    state.velocity = {};
    state.position.z = Environment::ground_z();
    state.on_ground = true;
    // Tipping over while on the ground (e.g. actuating asymmetrically after
    // touchdown, as in APM-16021's final phase) is a crash.
    if (state.attitude.tilt() > params_.max_contact_tilt_rad) {
      state.crashed = true;
      return CrashCause::kTippedOver;
    }
    p_drain_battery(state, thrust, dt);
    return CrashCause::kNone;
  }

  // Free-flight integration (semi-implicit Euler).
  state.velocity += state.acceleration * dt;
  state.position += state.velocity * dt;
  state.on_ground = false;

  // Obstacle collision.
  if (env.hits_obstacle(state.position)) {
    state.crashed = true;
    state.velocity = {};
    return CrashCause::kObstacle;
  }

  // Ground contact this step?
  if (state.position.z >= Environment::ground_z()) {
    state.position.z = Environment::ground_z();
    state.on_ground = true;
    const double descent = state.velocity.z;        // +z down: positive = descending
    const double lateral = state.ground_speed();
    const double tilt = state.attitude.tilt();
    state.velocity = {};
    if (descent > params_.max_landing_speed) {
      state.crashed = true;
      return CrashCause::kHardLanding;
    }
    if (tilt > params_.max_contact_tilt_rad) {
      state.crashed = true;
      return CrashCause::kTippedOver;
    }
    if (lateral > params_.max_contact_lateral) {
      state.crashed = true;
      return CrashCause::kLateralImpact;
    }
  }

  p_drain_battery(state, thrust, dt);
  return CrashCause::kNone;
}

double QuadcopterDynamics::power_w(double thrust_n) const {
  // Power scales with thrust^1.5 (momentum theory), normalized to hover.
  const double hover_thrust = params_.mass_kg * params_.gravity;
  const double ratio = hover_thrust > 0.0 ? std::max(thrust_n / hover_thrust, 0.0) : 0.0;
  // Below kNegligibleThrustRatio the thrust term is dropped. The shortcut is
  // bit-exact: there hover_power_w * ratio^1.5 < hover_power_w * 1e-36, which
  // is under half an ulp of kAvionicsPowerW (4.4e-16) for any hover_power_w
  // below 1e20 W, so the sum rounds to kAvionicsPowerW anyway. It closes the
  // window (ratio below ~2.8e-206) where ratio * sqrt(ratio) underflows into
  // subnormals while the motors spin down.
  if (ratio < kNegligibleThrustRatio) return kAvionicsPowerW;
  // r^1.5 as r*sqrt(r): pow() is by far the most expensive libm call in the
  // per-millisecond step and this identity keeps it out of the hot loop.
  return params_.hover_power_w * (ratio * std::sqrt(ratio)) + kAvionicsPowerW;
}

void QuadcopterDynamics::p_drain_battery(VehicleState& state, double thrust_n,
                                         double dt) const {
  const double drained = power_w(thrust_n) * dt / params_.battery_capacity_j;
  state.battery_remaining = std::max(0.0, state.battery_remaining - drained);
  state.battery_voltage = params_.empty_voltage + (params_.full_voltage - params_.empty_voltage) *
                                                      state.battery_remaining;
}

}  // namespace avis::sim
