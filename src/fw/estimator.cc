#include "fw/estimator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "fw/estimator_gains.h"
#include "util/rng.h"

namespace avis::fw {

namespace {
// Correction gains (1/s) shared with the batched lanes; see
// fw/estimator_gains.h for the tuning rationale.
using namespace estimator_gains;

// The vertical channel of update() with a live barometer, in altitude terms
// (h = -position.z, c = -velocity.z), for one step with inputs u (upward
// acceleration from the accelerometer), b (barometer altitude) and g (GPS
// climb rate):
//   c += dt u;  h += dt c;  e = b - h;  h += kBaroPos dt e;  c += kBaroVel dt e
//   c += kGpsVelZ dt (g - c)            (only while a GPS is alive)
struct Vertical {
  double h = 0.0;
  double c = 0.0;

  void step(double u, double b, double g, bool gps) {
    c += kDt * u;
    h += kDt * c;
    const double e = b - h;
    h += kBaroPosGain * kDt * e;
    c += kBaroVelGain * kDt * e;
    if (gps) c += kGpsVelZGain * kDt * (g - c);
  }
};

// The loop's altitude responses, summed over every later step: the extremes
// of the free response from a unit altitude and a unit climb rate, and the
// positive and negative parts of each input's impulse response. The loop is
// stable (poles inside the unit circle, slowest time constant ~1.4 s), so
// the sums are cut once every response has decayed below 1e-30 of its
// start; the dropped tail is far inside the ceiling's rounding margin.
struct VerticalEnvelope {
  double h_max = 1.0, h_min = 1.0;  // free response to h0 = 1
  double c_max = 0.0, c_min = 0.0;  // free response to c0 = 1
  double u_pos = 0.0, u_neg = 0.0;
  double b_pos = 0.0, b_neg = 0.0;
  double g_pos = 0.0, g_neg = 0.0;

  explicit VerticalEnvelope(bool gps) {
    Vertical from_h{1.0, 0.0}, from_c{0.0, 1.0}, from_u, from_b, from_g;
    from_u.step(1.0, 0.0, 0.0, gps);
    from_b.step(0.0, 1.0, 0.0, gps);
    from_g.step(0.0, 0.0, 1.0, gps);
    const auto add = [](double v, double& pos, double& neg) {
      if (v > 0.0) pos += v; else neg -= v;
    };
    for (int n = 0; n < 2'000'000; ++n) {
      from_h.step(0.0, 0.0, 0.0, gps);
      from_c.step(0.0, 0.0, 0.0, gps);
      h_max = std::max(h_max, from_h.h);
      h_min = std::min(h_min, from_h.h);
      c_max = std::max(c_max, from_c.h);
      c_min = std::min(c_min, from_c.h);
      add(from_u.h, u_pos, u_neg);
      add(from_b.h, b_pos, b_neg);
      add(from_g.h, g_pos, g_neg);
      double residue = 0.0;
      for (const Vertical* v : {&from_h, &from_c, &from_u, &from_b, &from_g}) {
        residue = std::max({residue, std::abs(v->h), std::abs(v->c)});
      }
      if (residue < 1e-30) break;
      from_u.step(0.0, 0.0, 0.0, gps);
      from_b.step(0.0, 0.0, 0.0, gps);
      from_g.step(0.0, 0.0, 0.0, gps);
    }
  }
};

// Upper bound of sum_m r_m x_m over any x_m in [lo, hi], given the positive
// and negative parts of r: every term is at most pos-part * max(hi, 0) plus
// neg-part * max(-lo, 0), however the partial sums interleave.
double response_bound(double pos, double neg, double lo, double hi) {
  return pos * std::max(hi, 0.0) + neg * std::max(-lo, 0.0);
}

// Absolute rounding allowance on the ceiling. Each update rounds h and c by
// a few ulps of values below ~20 (~1e-14); through the loop's response sums
// (~1e3) that accumulates to ~1e-11 m, five orders of magnitude below this.
constexpr double kCeilingMarginM = 1e-6;
}  // namespace

StateEstimator::StateEstimator(const FirmwareConfig& config, SensorBus& bus)
    : config_(&config), bus_(&bus) {
  const auto& sc = bus.config();
  health_[static_cast<std::size_t>(sensors::SensorType::kGyroscope)].total = sc.gyroscopes;
  health_[static_cast<std::size_t>(sensors::SensorType::kAccelerometer)].total =
      sc.accelerometers;
  health_[static_cast<std::size_t>(sensors::SensorType::kBarometer)].total = sc.barometers;
  health_[static_cast<std::size_t>(sensors::SensorType::kGps)].total = sc.gpses;
  health_[static_cast<std::size_t>(sensors::SensorType::kCompass)].total = sc.compasses;
  health_[static_cast<std::size_t>(sensors::SensorType::kBattery)].total = sc.batteries;
  for (auto& h : health_) h.alive = h.total;
}

void StateEstimator::update(sim::SimTimeMs now, const sim::VehicleState& truth,
                            const sim::Environment& env) {
  // ---- Gyroscopes: primary with fail-over; propagate attitude. ----
  {
    sensors::GyroSample gyro;
    bool got = false;
    auto& h = health_[static_cast<std::size_t>(sensors::SensorType::kGyroscope)];
    int alive = 0;
    bool primary_alive = false;
    for (int i = 0; i < h.total; ++i) {
      sensors::GyroSample s;
      if (bus_->read_gyro(i, now, truth, env, s) == sensors::ReadStatus::kOk) {
        ++alive;
        if (i == 0) primary_alive = true;
        if (!got) {
          gyro = s;
          got = true;
        }
      }
    }
    h.alive = alive;
    h.primary_alive = primary_alive;
    if (alive == 0 && h.all_failed_at < 0) h.all_failed_at = now;

    if (quirks_.stale_rates) {
      // Bug data path: the rate consumer keeps reading the dead primary's
      // last output; the live backup (if any) is never switched in. The
      // attitude solution silently runs away.
    } else if (got) {
      state_.body_rates = gyro.body_rates;
    } else {
      // Honest degradation: without gyros the firmware cannot know its
      // rates; report zero rather than integrate garbage.
      state_.body_rates = {};
    }
    state_.body_rates.z += quirks_.yaw_rate_bias;
    state_.attitude.integrate_rates(state_.body_rates, kDt);
  }

  // ---- Accelerometers: tilt correction + velocity propagation. ----
  geo::Vec3 world_accel{};  // gravity-compensated world acceleration
  bool have_accel = false;
  {
    sensors::AccelSample accel;
    auto& h = health_[static_cast<std::size_t>(sensors::SensorType::kAccelerometer)];
    int alive = 0;
    bool primary_alive = false;
    for (int i = 0; i < h.total; ++i) {
      sensors::AccelSample s;
      if (bus_->read_accel(i, now, truth, env, s) == sensors::ReadStatus::kOk) {
        ++alive;
        if (i == 0) primary_alive = true;
        if (!have_accel) {
          accel = s;
          have_accel = true;
        }
      }
    }
    h.alive = alive;
    h.primary_alive = primary_alive;
    if (alive == 0 && h.all_failed_at < 0) h.all_failed_at = now;

    if (have_accel) {
      const geo::Vec3& f = accel.specific_force;
      // Tilt correction when the specific force is close to 1 g (not
      // accelerating hard): gravity tells us which way is down.
      const double f_mag = f.norm();
      // With gyros dead (derived-rates fallback) the accelerometer is the
      // only attitude reference left: correct hard and accept the noise.
      const double tilt_gain = quirks_.derived_rates ? 6.0 : kTiltGain;
      const double tilt_gate = quirks_.derived_rates ? 3.5 : kTiltGateMs2;
      if (std::abs(f_mag - kGravity) < tilt_gate) {
        const double roll_meas = std::atan2(-f.y, -f.z);
        const double pitch_meas = std::atan2(f.x, std::sqrt(f.y * f.y + f.z * f.z));
        state_.attitude.roll +=
            tilt_gain * kDt * geo::wrap_angle(roll_meas - state_.attitude.roll);
        state_.attitude.pitch +=
            tilt_gain * kDt * geo::wrap_angle(pitch_meas - state_.attitude.pitch);
      }
      world_accel = state_.attitude.body_to_world(f) + geo::Vec3{0.0, 0.0, kGravity};
    }
  }

  // Velocity/position propagation. Without accelerometers the filter holds
  // velocity and leans fully on baro/GPS corrections.
  if (have_accel) {
    state_.velocity += world_accel * kDt;
  }
  state_.position += state_.velocity * kDt;

  // ---- Barometer: vertical correction. ----
  {
    sensors::BaroSample baro;
    bool got = false;
    auto& h = health_[static_cast<std::size_t>(sensors::SensorType::kBarometer)];
    int alive = 0;
    bool primary_alive = false;
    for (int i = 0; i < h.total; ++i) {
      sensors::BaroSample s;
      if (bus_->read_baro(i, now, truth, env, s) == sensors::ReadStatus::kOk) {
        ++alive;
        if (i == 0) primary_alive = true;
        if (!got) {
          baro = s;
          got = true;
        }
      }
    }
    h.alive = alive;
    h.primary_alive = primary_alive;
    if (alive == 0 && h.all_failed_at < 0) h.all_failed_at = now;

    if (got) {
      const double alt_err = baro.pressure_altitude_m - (-state_.position.z);
      state_.position.z -= kBaroPosGain * kDt * alt_err;
      state_.velocity.z -= kBaroVelGain * kDt * alt_err;
    }
  }

  // ---- GPS: horizontal correction; vertical fallback when baro is dead. ---
  {
    sensors::GpsSample gps;
    bool got = false;
    auto& h = health_[static_cast<std::size_t>(sensors::SensorType::kGps)];
    int alive = 0;
    bool primary_alive = false;
    for (int i = 0; i < h.total; ++i) {
      sensors::GpsSample s;
      if (bus_->read_gps(i, now, truth, env, s) == sensors::ReadStatus::kOk) {
        ++alive;
        if (i == 0) primary_alive = true;
        if (!got && s.has_fix) {
          gps = s;
          got = true;
        }
      }
    }
    h.alive = alive;
    h.primary_alive = primary_alive;
    if (alive == 0 && h.all_failed_at < 0) h.all_failed_at = now;

    if (got) {
      have_gps_ever_ = true;
      const geo::Vec3 gps_local = env.frame().to_local(gps.position);
      last_gps_local_ = gps_local;
      have_gps_sample_ = true;
      state_.position.x += kGpsPosGain * kDt * (gps_local.x - state_.position.x);
      state_.position.y += kGpsPosGain * kDt * (gps_local.y - state_.position.y);
      state_.velocity.x += kGpsVelGain * kDt * (gps.velocity_ned.x - state_.velocity.x);
      state_.velocity.y += kGpsVelGain * kDt * (gps.velocity_ned.y - state_.velocity.y);
      // Weak vertical-velocity fusion: without it the climb-rate estimate
      // dead-reckons on accelerometer bias whenever the barometer is gone.
      state_.velocity.z += kGpsVelZGain * kDt * (gps.velocity_ned.z - state_.velocity.z);
      last_gps_velocity_ = gps.velocity_ned;
      dead_reckoning_ = false;

      const auto& baro_h = health_[static_cast<std::size_t>(sensors::SensorType::kBarometer)];
      if (!baro_h.any_alive()) {
        // Fig. 1's hazard: GPS vertical resolution is coarse, but it is all
        // that is left once the barometer family dies.
        state_.position.z += kGpsAltGain * kDt * (gps_local.z - state_.position.z);
      }
    } else {
      if (quirks_.hold_stale_gps_velocity) {
        // APM-16020: the glitch handler keeps feeding the last GPS velocity
        // into the filter, so the position solution confidently drifts.
        state_.velocity.x += kGpsVelGain * kDt * (last_gps_velocity_.x - state_.velocity.x);
        state_.velocity.y += kGpsVelGain * kDt * (last_gps_velocity_.y - state_.velocity.y);
        dead_reckoning_ = false;
      } else if (have_gps_ever_) {
        dead_reckoning_ = true;
      }
    }
  }

  // ---- Compass: heading correction. ----
  {
    sensors::CompassSample compass;
    bool got = false;
    auto& h = health_[static_cast<std::size_t>(sensors::SensorType::kCompass)];
    int alive = 0;
    bool primary_alive = false;
    for (int i = 0; i < h.total; ++i) {
      sensors::CompassSample s;
      if (bus_->read_compass(i, now, truth, env, s) == sensors::ReadStatus::kOk) {
        ++alive;
        if (i == 0) primary_alive = true;
        if (!got) {
          compass = s;
          got = true;
        }
      }
    }
    h.alive = alive;
    h.primary_alive = primary_alive;
    if (alive == 0 && h.all_failed_at < 0) h.all_failed_at = now;

    if (got && !quirks_.freeze_heading) {
      state_.attitude.yaw +=
          kYawGain * kDt * geo::wrap_angle(compass.heading_rad - state_.attitude.yaw);
      state_.attitude.yaw = geo::wrap_angle(state_.attitude.yaw);
    }
  }

  // ---- Battery. ----
  {
    sensors::BatterySample bat;
    auto& h = health_[static_cast<std::size_t>(sensors::SensorType::kBattery)];
    int alive = 0;
    bool primary_alive = false;
    bool got = false;
    for (int i = 0; i < h.total; ++i) {
      sensors::BatterySample s;
      if (bus_->read_battery(i, now, truth, env, s) == sensors::ReadStatus::kOk) {
        ++alive;
        if (i == 0) primary_alive = true;
        if (!got) {
          bat = s;
          got = true;
        }
      }
    }
    h.alive = alive;
    h.primary_alive = primary_alive;
    if (alive == 0 && h.all_failed_at < 0) h.all_failed_at = now;

    if (got) {
      state_.battery_voltage = bat.voltage;
      state_.battery_remaining = bat.remaining_fraction;
    }
    // A dead battery monitor keeps reporting its last values — the firmware
    // cannot tell remaining charge at all (PX4-13291's precondition).
  }

  // Track when each family's primary instance died (bug windows key on it).
  for (auto& h : health_) {
    if (!h.primary_alive && h.primary_failed_at < 0) h.primary_failed_at = now;
  }

  // ---- Fallback / quirk rate paths. ----
  if (quirks_.derived_rates) {
    // PX4's degraded path: body rates reconstructed by differentiating the
    // (accel-corrected) attitude. Noisy and laggy, but stable enough to fly.
    state_.body_rates = {
        geo::wrap_angle(state_.attitude.roll - prev_attitude_.roll) / kDt,
        geo::wrap_angle(state_.attitude.pitch - prev_attitude_.pitch) / kDt,
        geo::wrap_angle(state_.attitude.yaw - prev_attitude_.yaw) / kDt,
    };
  }
  prev_attitude_ = state_.attitude;

  // ---- Publish, applying quirk distortions to the output copy only. ----
  published_ = state_;
  if (quirks_.gps_altitude_only && have_gps_sample_) {
    // "GPS-driven flight": the vertical channel is raw GPS, coarse and slow.
    published_.position.z = last_gps_local_.z;
    published_.velocity.z = 0.0;
  }
  if (quirks_.freeze_altitude) {
    // Output channel frozen: the rest of the firmware keeps seeing the
    // altitude from the moment the quirk engaged.
    if (!frozen_alt_valid_) {
      frozen_alt_z_ = state_.position.z;
      frozen_alt_valid_ = true;
    }
    published_.position.z = frozen_alt_z_;
    published_.velocity.z = 0.0;
  } else {
    frozen_alt_valid_ = false;
  }
  if (quirks_.altitude_bias != 0.0) {
    published_.position.z -= quirks_.altitude_bias;  // NED: reads higher than real
  }

  // Debug tripwire: a NaN/inf here poisons every downstream consumer (and,
  // in a batch run, would silently corrupt a lane until it diverges).
  assert(std::isfinite(published_.position.x) && std::isfinite(published_.position.y) &&
         std::isfinite(published_.position.z) && std::isfinite(published_.velocity.x) &&
         std::isfinite(published_.velocity.y) && std::isfinite(published_.velocity.z) &&
         std::isfinite(published_.attitude.roll) && std::isfinite(published_.attitude.pitch) &&
         std::isfinite(published_.attitude.yaw));
}

std::optional<double> StateEstimator::ground_altitude_ceiling() const {
  // The published altitude is -(z - altitude_bias); a frozen channel holds
  // its z for good.
  if (quirks_.freeze_altitude) {
    if (!frozen_alt_valid_) return std::nullopt;
    return -(frozen_alt_z_ - quirks_.altitude_bias);
  }
  if (quirks_.gps_altitude_only) return std::nullopt;
  if (!health(sensors::SensorType::kBarometer).any_alive()) return std::nullopt;

  const bool gps = health(sensors::SensorType::kGps).any_alive();
  static const VerticalEnvelope with_gps(true);
  static const VerticalEnvelope without_gps(false);
  const VerticalEnvelope& env = gps ? with_gps : without_gps;

  // Input ranges on the ground. The accelerometer reads R^T (0, 0, -g) plus
  // a per-axis bias and noise, so |f| <= g + sqrt(3) (bias + 12.01 sigma),
  // and u = -(R_est f)_z - g lies in [-|f| - g, |f| - g] whatever attitude
  // the estimate holds. The barometer reads 0 + noise; the GPS climb rate
  // is 0 + noise.
  const double sigma = util::Rng::kMaxAbsGaussian;
  double u_lo = 0.0, u_hi = 0.0;
  if (health(sensors::SensorType::kAccelerometer).any_alive()) {
    const double f_max = kGravity + std::sqrt(3.0) * (sensors::Accelerometer::kDefaultBias +
                                                      sigma * sensors::Accelerometer::kDefaultNoise);
    u_hi = f_max - kGravity;
    u_lo = -f_max - kGravity;
  }
  const double b_hi = sigma * sensors::Barometer::kDefaultNoise;
  const double g_hi = gps ? sigma * sensors::Gps::kVelocityVNoise : 0.0;
  // A held sample is re-read until the next native sample (up to 20 ms for
  // the barometer, 200 ms for the GPS) and may predate the landing, so the
  // ones live instances hold now must already lie inside those ranges.
  const sensors::SensorSuite& suite = bus_->suite();
  for (int i = 0; i < suite.config().barometers; ++i) {
    const sensors::BaroSample* held = suite.baro(i).held();
    if (!suite.baro(i).failed() && held != nullptr && !(std::abs(held->pressure_altitude_m) <= b_hi)) {
      return std::nullopt;
    }
  }
  for (int i = 0; i < suite.config().gpses; ++i) {
    const sensors::GpsSample* held = suite.gps(i).held();
    if (!suite.gps(i).failed() && held != nullptr && !(std::abs(held->velocity_ned.z) <= g_hi)) {
      return std::nullopt;
    }
  }

  const double h0 = -state_.position.z;
  const double c0 = -state_.velocity.z;
  const double free_response =
      std::max(h0 * env.h_max, h0 * env.h_min) + std::max(c0 * env.c_max, c0 * env.c_min);
  const double forced = response_bound(env.u_pos, env.u_neg, u_lo, u_hi) +
                        response_bound(env.b_pos, env.b_neg, -b_hi, b_hi) +
                        response_bound(env.g_pos, env.g_neg, -g_hi, g_hi);
  const double ceiling = free_response + forced + quirks_.altitude_bias + kCeilingMarginM;
  if (!std::isfinite(ceiling)) return std::nullopt;
  return ceiling;
}

void StateEstimator::reset_state_estimate() {
  // Models an EKF in-flight reset: attitude and velocity snap to zero and
  // must re-converge; at low altitude there is no time for that.
  state_.attitude = {};
  state_.velocity = {};
  state_.body_rates = {};
}

}  // namespace avis::fw
