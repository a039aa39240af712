// Quadcopter rigid-body dynamics (3DR Iris class vehicle).
//
// A simplified but physically grounded model: four motors with first-order
// lag produce thrust along the body -z axis and roll/pitch/yaw torques;
// translational dynamics include gravity, aerodynamic drag and wind; ground
// contact is modelled as an inelastic constraint with a crash classifier.
// The parameter defaults approximate the 3DR Iris used in all of the paper's
// experiments (1.5 kg, ~2:1 thrust-to-weight).
#pragma once

#include "geo/vec3.h"
#include "sim/environment.h"
#include "sim/vehicle_state.h"
#include "util/rng.h"

namespace avis::sim {

struct QuadcopterParams {
  double mass_kg = 1.5;
  double arm_length_m = 0.25;
  double max_motor_thrust_n = 7.4;    // per motor; 4 * 7.4 ≈ 2x weight
  double motor_time_constant_s = 0.02;
  double yaw_torque_coeff = 0.016;    // N*m of yaw torque per N of thrust
  double inertia_roll = 0.020;        // kg*m^2
  double inertia_pitch = 0.020;
  double inertia_yaw = 0.035;
  double linear_drag = 0.25;          // N per (m/s)
  double angular_drag = 0.06;         // N*m per (rad/s)
  double gravity = 9.80665;

  // Crash classifier thresholds (paper: "rapidly (de)accelerates but has the
  // same position as another simulated object, e.g. the ground").
  double max_landing_speed = 2.3;     // m/s descent at contact
  double max_contact_tilt_rad = 1.05; // ~60 degrees
  double max_contact_lateral = 3.0;   // m/s horizontal at contact

  // Battery: simple capacity model so the battery sensor has real data.
  double battery_capacity_j = 60000.0;
  double hover_power_w = 180.0;
  double full_voltage = 12.6;
  double empty_voltage = 10.5;
};

// Advances the vehicle state one time-step. Stateless apart from parameters:
// all mutable state lives in VehicleState so the simulator is trivially
// copyable for profiling-run comparisons.
class QuadcopterDynamics {
 public:
  explicit QuadcopterDynamics(QuadcopterParams params = {}) : params_(params) {}

  const QuadcopterParams& params() const { return params_; }

  // Steps dynamics with the commanded motor outputs. `commanded` is what the
  // firmware's mixer requested this step; motor lag is applied internally.
  // On ground contact the crash classifier decides between a normal landing
  // and a crash; a crashed vehicle no longer responds to motor commands.
  CrashCause step(VehicleState& state, const MotorCommands& commanded,
                  const Environment& env, double dt, util::Rng& rng) const;

  // True when `state` is absorbing under a zero motor command: every later
  // step(dt) with all-zero commands takes the ground-support branch again and
  // leaves position, velocity, acceleration and the on_ground/crashed flags
  // bit-identical. Holds when the last step took that branch (velocity and
  // acceleration exactly +0, on the flat ground), the vehicle has not
  // crashed, and the wind has no gusts (a gust is an RNG draw and a
  // changing drag). The decaying motors (thrust shrinks by 1 - alpha per
  // step) must be under half the support force, so they can never lift the
  // vehicle off whatever its attitude; and a closed-form bound on the
  // rotation the residual torques can still produce keeps the tilt below
  // max_contact_tilt_rad, so the vehicle never tips over.
  bool grounded_for_good(const VehicleState& state, const Environment& env, double dt) const;

  // Electrical power drawn at total thrust `thrust_n`: the rotors'
  // hover_power_w * (thrust / hover thrust)^1.5 plus a constant avionics load.
  double power_w(double thrust_n) const;

  static constexpr double kAvionicsPowerW = 5.0;
  // Thrust/hover ratios below this draw exactly kAvionicsPowerW (see power_w).
  static constexpr double kNegligibleThrustRatio = 1e-24;

 private:
  void p_drain_battery(VehicleState& state, double thrust_n, double dt) const;

  QuadcopterParams params_;
};

}  // namespace avis::sim
