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

bool QuadcopterDynamics::grounded_for_good(const VehicleState& state, const Environment& env,
                                           double dt) const {
  const auto is_pos_zero = [](double v) { return v == 0.0 && !std::signbit(v); };
  const auto is_pos_zero_vec = [&](const geo::Vec3& v) {
    return is_pos_zero(v.x) && is_pos_zero(v.y) && is_pos_zero(v.z);
  };
  if (state.crashed || !state.on_ground || env.wind().gust_stddev > 0.0) return false;
  // The ground-support branch's fingerprint; any other step leaves a
  // nonzero acceleration or a position off the ground plane.
  if (!is_pos_zero(state.position.z) || Environment::ground_z() != 0.0 ||
      !is_pos_zero_vec(state.velocity) || !is_pos_zero_vec(state.acceleration)) {
    return false;
  }

  // Lift-off: with zero velocity the drag is the mean wind's alone, and the
  // thrust's vertical component never exceeds the (shrinking) thrust.
  const double thrust = state.motors.total() * params_.max_motor_thrust_n;
  const double drag_z = (0.0 - env.wind().mean.z) * (-params_.linear_drag);
  const double support = params_.mass_kg * params_.gravity + drag_z;
  if (!(thrust >= 0.0 && thrust < 0.5 * support)) return false;

  // Tip-over: under a zero command each motor decays by (1 - alpha) per
  // step, so the thrust still to come sums to at most thrust / alpha (1%
  // headroom for rounding). An axis rate obeys
  //   w' = (1 - d) w + dt * torque / I,   d = dt * angular_drag / I,
  // so the sum of |w| over all later steps is at most
  //   (|w| + dt * torque_coeff * thrust_sum / I) / d.
  // Euler kinematics move roll by dt * (|wx| + |tan pitch| (|wy| + |wz|))
  // and pitch by dt * (|wy| + |wz|) per step; tilt, the norm of the two,
  // moves by at most their sum, and |tan pitch| <= tan(max tilt) for as
  // long as the tilt stays below it (which is what the bound keeps).
  const double max_tilt = params_.max_contact_tilt_rad;
  if (!(max_tilt > 0.0 && max_tilt < 1.5)) return false;
  const double alpha = dt / (params_.motor_time_constant_s + dt);
  const double thrust_sum = 1.01 * thrust / alpha;
  const double arm = params_.arm_length_m * 0.70710678;
  const auto rate_sum = [&](double rate, double torque_coeff, double inertia) {
    const double d = dt * params_.angular_drag / inertia;
    if (!(d > 0.0 && d < 1.0)) return std::numeric_limits<double>::infinity();
    return (std::abs(rate) + dt * torque_coeff * thrust_sum / inertia) / d;
  };
  const double sx = rate_sum(state.body_rates.x, arm, params_.inertia_roll);
  const double sy = rate_sum(state.body_rates.y, arm, params_.inertia_pitch);
  const double sz = rate_sum(state.body_rates.z, params_.yaw_torque_coeff, params_.inertia_yaw);
  const double rotation = dt * (sx + (1.0 + std::tan(max_tilt)) * (sy + sz));
  if (!std::isfinite(rotation)) return false;
  return state.attitude.tilt() + 1.01 * rotation + 1e-9 < max_tilt;
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
