#include "fw/firmware.h"

#include <algorithm>
#include <cmath>

#include "util/log.h"

namespace avis::fw {

namespace {
constexpr double kDt = sim::kStepSeconds;

// Land-mode pacing (ArduPilot LAND has an initial pause, then a descent-rate
// ramp; both matter for the APM-4679 land-flap bug).
constexpr sim::SimTimeMs kLandPauseMs = 1000;
constexpr sim::SimTimeMs kLandRampMs = 900;
constexpr double kLandFastAltitude = 10.0;  // above this, descend fast

geo::Vec3 limit_xy(geo::Vec3 v, double max_xy) {
  const double h = std::sqrt(v.x * v.x + v.y * v.y);
  if (h > max_xy && h > 0.0) {
    v.x *= max_xy / h;
    v.y *= max_xy / h;
  }
  return v;
}
}  // namespace

Firmware::Firmware(FirmwareConfig config, SensorBus& bus, hinj::Client& hinj_client,
                   mavlink::Endpoint& link, const sim::Environment& env)
    : config_(std::move(config)),
      bus_(&bus),
      hinj_(&hinj_client),
      link_(&link),
      env_(&env),
      estimator_(bus),
      cascade_(config_.gains) {
  // The enabled-set and personality are fixed for the life of the firmware;
  // fold both into a flat mask so the per-step bug hooks pay an array load
  // instead of a hash probe.
  for (BugId id : kAllBugs) {
    bug_armed_mask_[static_cast<std::size_t>(id)] =
        config_.bugs.enabled(id) && bug_info(id).personality == config_.personality;
  }
  // Report the boot mode so the engine's mode trace starts at t=0.
  hinj_->update_mode(composite_mode().id(), composite_mode().name(), 0);
}

Firmware::Snapshot Firmware::save() const {
  Snapshot s;
  s.estimator = estimator_.save();
  s.cascade = cascade_.save();
  s.mission = mission_;
  s.mode = mode_;
  s.submode = submode_;
  s.prev_mode = prev_mode_;
  s.mode_entry_ms = mode_entry_ms_;
  s.armed = armed_;
  s.mission_active = mission_active_;
  s.mission_complete = mission_complete_;
  s.takeoff_target_alt = takeoff_target_alt_;
  s.takeoff_xy = takeoff_xy_;
  s.guided_target = guided_target_;
  s.hold_position = hold_position_;
  s.holding = holding_;
  s.hold_yaw = hold_yaw_;
  s.last_stick_change_ms = last_stick_change_ms_;
  s.land_xy = land_xy_;
  s.land_xy_valid = land_xy_valid_;
  s.land_low_since = land_low_since_;
  s.land_commanded_descent = land_commanded_descent_;
  s.rtl_phase = static_cast<int>(rtl_phase_);
  s.rtl_target_alt = rtl_target_alt_;
  s.sticks = sticks_;
  s.wp_ordinal = wp_ordinal_;
  s.family_handled = family_handled_;
  s.battery_dead_since = battery_dead_since_;
  s.position_valid = position_valid_;
  s.bug_state = bug_state_;
  s.fired_bugs = fired_bugs_;
  s.land_descent_ramp_start = land_descent_ramp_start_;
  s.last_telemetry_ms = last_telemetry_ms_;
  s.last_heartbeat_ms = last_heartbeat_ms_;
  s.last_reported_mission_index = last_reported_mission_index_;
  return s;
}

void Firmware::load(const Snapshot& s) {
  estimator_.load(s.estimator);
  cascade_.load(s.cascade);
  mission_ = s.mission;
  mode_ = s.mode;
  submode_ = s.submode;
  prev_mode_ = s.prev_mode;
  mode_entry_ms_ = s.mode_entry_ms;
  armed_ = s.armed;
  mission_active_ = s.mission_active;
  mission_complete_ = s.mission_complete;
  takeoff_target_alt_ = s.takeoff_target_alt;
  takeoff_xy_ = s.takeoff_xy;
  guided_target_ = s.guided_target;
  hold_position_ = s.hold_position;
  holding_ = s.holding;
  hold_yaw_ = s.hold_yaw;
  last_stick_change_ms_ = s.last_stick_change_ms;
  land_xy_ = s.land_xy;
  land_xy_valid_ = s.land_xy_valid;
  land_low_since_ = s.land_low_since;
  land_commanded_descent_ = s.land_commanded_descent;
  rtl_phase_ = static_cast<RtlPhase>(s.rtl_phase);
  rtl_target_alt_ = s.rtl_target_alt;
  sticks_ = s.sticks;
  wp_ordinal_ = s.wp_ordinal;
  family_handled_ = s.family_handled;
  battery_dead_since_ = s.battery_dead_since;
  position_valid_ = s.position_valid;
  bug_state_ = s.bug_state;
  fired_bugs_ = s.fired_bugs;
  land_descent_ramp_start_ = s.land_descent_ramp_start;
  last_telemetry_ms_ = s.last_telemetry_ms;
  last_heartbeat_ms_ = s.last_heartbeat_ms;
  last_reported_mission_index_ = s.last_reported_mission_index;
}

sim::MotorCommands Firmware::step(sim::SimTimeMs now, const sim::VehicleState& truth) {
  estimator_.update(now, truth, *env_);
  const ControlPhase phase = step_control_phase(now, truth);
  if (!phase.armed) {
    return {};
  }
  return cascade_.update(phase.setpoint, estimator_.state(), kDt);
}

Firmware::ControlPhase Firmware::step_control_phase(sim::SimTimeMs now,
                                                    const sim::VehicleState& truth) {
  p_handle_mavlink(now);
  if (armed_) {
    p_failsafes(now);
  }
  const Setpoint sp = p_mode_setpoint(now);
  p_send_telemetry(now, truth);
  if (!armed_) {
    cascade_.reset();
  }
  return {sp, armed_};
}

// --------------------------------------------------------------------------
// MAVLink handling
// --------------------------------------------------------------------------

void Firmware::p_handle_mavlink(sim::SimTimeMs now) {
  while (auto msg = link_->receive()) {
    if (const auto* cmd = std::get_if<mavlink::CommandLong>(&*msg)) {
      p_handle_command(*cmd, now);
    } else if (const auto* set_mode = std::get_if<mavlink::SetMode>(&*msg)) {
      const Mode requested = static_cast<Mode>(set_mode->custom_mode >> 8);
      switch (requested) {
        case Mode::kAuto:
          if (armed_ && mission_.has_mission()) {
            mission_.restart();
            mission_active_ = true;
            wp_ordinal_ = 0;
            p_begin_mission_item(now);
          }
          break;
        case Mode::kPositionHold:
          if (armed_ && mode_ != Mode::kPreFlight) {
            holding_ = false;
            p_set_mode(Mode::kPositionHold, 0, now, "pilot");
          }
          break;
        case Mode::kLand:
          if (armed_) {
            land_xy_ = estimator_.state().position;
            land_xy_valid_ = position_valid_;
            p_set_mode(Mode::kLand, 0, now, "pilot");
          }
          break;
        case Mode::kReturnToLaunch:
          if (armed_ && mode_ != Mode::kPreFlight) {
            p_set_mode(Mode::kReturnToLaunch, 0, now, "pilot");
          }
          break;
        case Mode::kGuided:
          if (armed_ && mode_ != Mode::kPreFlight) {
            guided_target_ = estimator_.state().position;
            p_set_mode(Mode::kGuided, 0, now, "pilot");
          }
          break;
        default:
          p_status("mode change rejected", 4);
          break;
      }
    } else if (const auto* count = std::get_if<mavlink::MissionCount>(&*msg)) {
      for (auto& reply : mission_.on_mission_count(*count)) link_->send(reply);
    } else if (const auto* item = std::get_if<mavlink::MissionItem>(&*msg)) {
      for (auto& reply : mission_.on_mission_item(*item)) link_->send(reply);
    } else if (const auto* rc = std::get_if<mavlink::RcOverride>(&*msg)) {
      sticks_ = *rc;
    } else if (const auto* fence = std::get_if<mavlink::FenceEnable>(&*msg)) {
      if (fence->enable) {
        sim::Fence f;
        f.min_north = fence->min_north;
        f.max_north = fence->max_north;
        f.min_east = fence->min_east;
        f.max_east = fence->max_east;
        f.max_altitude = fence->max_altitude;
        mission_.set_fence(f);
      } else {
        mission_.clear_fence();
      }
    }
    // Heartbeats and telemetry echoes are ignored.
  }
}

void Firmware::p_handle_command(const mavlink::CommandLong& cmd, sim::SimTimeMs now) {
  mavlink::CommandAck ack;
  ack.command = cmd.command;
  ack.result = mavlink::CommandResult::kAccepted;

  switch (cmd.command) {
    case mavlink::Command::kComponentArmDisarm: {
      const bool want_armed = cmd.param1 > 0.5;
      if (want_armed) {
        if (mode_ != Mode::kPreFlight || !p_prearm_ok()) {
          ack.result = mavlink::CommandResult::kDenied;
          p_status("arming denied: pre-arm checks failed", 3);
        } else {
          armed_ = true;
          p_status("armed");
        }
      } else {
        armed_ = false;
        p_set_mode(Mode::kPreFlight, 0, now, "pilot disarm");
      }
      break;
    }
    case mavlink::Command::kNavTakeoff: {
      if (!armed_ || mode_ != Mode::kPreFlight) {
        ack.result = mavlink::CommandResult::kDenied;
      } else {
        takeoff_target_alt_ = cmd.param7 > 0.0 ? cmd.param7 : 10.0;
        takeoff_xy_ = estimator_.state().position;
        hold_yaw_ = estimator_.state().attitude.yaw;
        p_set_mode(Mode::kTakeoff, 0, now, "pilot takeoff");
      }
      break;
    }
    case mavlink::Command::kNavLand: {
      if (!armed_) {
        ack.result = mavlink::CommandResult::kDenied;
      } else {
        land_xy_ = estimator_.state().position;
        land_xy_valid_ = position_valid_;
        p_set_mode(Mode::kLand, 0, now, "pilot land");
      }
      break;
    }
    case mavlink::Command::kNavReturnToLaunch: {
      if (!armed_ || mode_ == Mode::kPreFlight) {
        ack.result = mavlink::CommandResult::kDenied;
      } else {
        p_set_mode(Mode::kReturnToLaunch, 0, now, "pilot rtl");
      }
      break;
    }
    default:
      ack.result = mavlink::CommandResult::kDenied;
      break;
  }
  link_->send(ack);
}

void Firmware::p_status(const std::string& text, std::uint8_t severity) {
  mavlink::StatusText st;
  st.severity = severity;
  st.text = text;
  link_->send(st);
}

void Firmware::p_send_telemetry(sim::SimTimeMs now, const sim::VehicleState& truth) {
  (void)truth;
  if (now - last_heartbeat_ms_ >= 500) {
    last_heartbeat_ms_ = now;
    mavlink::Heartbeat hb;
    hb.system_status = armed_ ? 4 : 3;
    hb.custom_mode = composite_mode().id();
    hb.armed = armed_;
    link_->send(hb);
    hinj_->heartbeat(now);
  }
  if (now - last_telemetry_ms_ >= 100) {
    last_telemetry_ms_ = now;
    const EstimatedState& est = estimator_.state();
    mavlink::GlobalPositionInt gp;
    gp.time_ms = now;
    gp.position = env_->frame().to_geodetic(est.position);
    gp.relative_alt_m = est.altitude();
    gp.velocity_ned = est.velocity;
    gp.heading_rad = est.attitude.yaw;
    link_->send(gp);
  }
  if (mission_active_ && mission_.current_index() != last_reported_mission_index_) {
    last_reported_mission_index_ = mission_.current_index();
    mavlink::MissionCurrent mc;
    mc.seq = static_cast<std::uint16_t>(mission_.current_index());
    link_->send(mc);
  }
}

// --------------------------------------------------------------------------
// Mode machine
// --------------------------------------------------------------------------

void Firmware::p_set_mode(Mode m, std::uint8_t submode, sim::SimTimeMs now,
                          const char* reason) {
  prev_mode_ = mode_;
  mode_ = m;
  submode_ = submode;
  mode_entry_ms_ = now;
  if (m == Mode::kLand || m == Mode::kEmergencyLand) {
    land_descent_ramp_start_ = now;
    land_low_since_ = -1;
  }
  if (m == Mode::kReturnToLaunch) {
    rtl_phase_ = RtlPhase::kClimb;
    rtl_target_alt_ = std::max(config_.failsafe.rtl_altitude, estimator_.state().altitude());
  }
  cascade_.reset();
  // The paper's single instrumented call site: every mode change is
  // reported to the engine through hinj_update_mode(). The name crosses the
  // wire as a length-prefixed field the engine decodes as a view; only
  // directors that record the trace copy it.
  const CompositeMode cm = composite_mode();
  hinj_->update_mode(cm.id(), cm.name(), now);
  p_status(std::string("mode: ") + personality_mode_name(config_.personality, m) + " (" +
           reason + ")");
}

void Firmware::p_begin_mission_item(sim::SimTimeMs now) {
  const mavlink::MissionItem* item = mission_.current();
  if (item == nullptr) {
    mission_active_ = false;
    mission_complete_ = true;
    if (mode_ != Mode::kLand && mode_ != Mode::kPreFlight) {
      land_xy_ = estimator_.state().position;
      land_xy_valid_ = position_valid_;
      p_set_mode(Mode::kLand, 0, now, "mission complete");
    }
    return;
  }
  switch (item->command) {
    case mavlink::Command::kNavTakeoff:
      takeoff_target_alt_ = item->position.altitude_m - env_->frame().home().altitude_m;
      takeoff_xy_ = estimator_.state().position;
      hold_yaw_ = estimator_.state().attitude.yaw;
      p_set_mode(Mode::kTakeoff, 0, now, "mission takeoff");
      break;
    case mavlink::Command::kNavWaypoint:
      ++wp_ordinal_;
      p_set_mode(Mode::kAuto, static_cast<std::uint8_t>(wp_ordinal_), now, "mission waypoint");
      break;
    case mavlink::Command::kNavReturnToLaunch:
      p_set_mode(Mode::kReturnToLaunch, 0, now, "mission rtl");
      break;
    case mavlink::Command::kNavLand:
      land_xy_ = env_->frame().to_local(item->position);
      land_xy_.z = 0.0;
      land_xy_valid_ = position_valid_;
      p_set_mode(Mode::kLand, 0, now, "mission land");
      break;
    default:
      p_advance_mission(now);
      break;
  }
}

void Firmware::p_advance_mission(sim::SimTimeMs now) {
  mavlink::MissionItemReached reached;
  reached.seq = static_cast<std::uint16_t>(mission_.current_index());
  link_->send(reached);
  if (mission_.advance()) {
    p_begin_mission_item(now);
  } else {
    mission_active_ = false;
    mission_complete_ = true;
    if (mode_ != Mode::kLand) {
      land_xy_ = estimator_.state().position;
      land_xy_valid_ = position_valid_;
      p_set_mode(Mode::kLand, 0, now, "mission complete");
    }
  }
}

Setpoint Firmware::p_mode_setpoint(sim::SimTimeMs now) {
  Setpoint sp;
  if (!armed_ || mode_ == Mode::kPreFlight) {
    sp.kind = Setpoint::Kind::kMotorsOff;
    return sp;
  }
  const EstimatedState& est = estimator_.state();

  switch (mode_) {
    case Mode::kPreFlight:
      sp.kind = Setpoint::Kind::kMotorsOff;
      break;

    case Mode::kTakeoff: {
      // Climb at a fixed rate over the launch point until the target
      // altitude is reached, then hand over to the next flight mode.
      double climb = config_.takeoff_climb_rate;
      if (p_fired(BugId::kPx417192) || p_fired(BugId::kPx417181)) {
        climb = 0.0;  // takeoff aborted but vehicle left armed and idling
      }
      if (p_fired(BugId::kApm4455)) {
        climb *= 2.6;  // mis-set climb rate after mid-climb baro loss
      }
      // Taper the climb approaching the target so the hand-over to the next
      // mode does not overshoot.
      if (climb > 0.0) {
        climb = std::min(climb, 0.9 * (takeoff_target_alt_ - est.altitude()) + 0.3);
        climb = std::max(climb, 0.0);
      }
      sp.kind = Setpoint::Kind::kVelocity;
      sp.velocity = limit_xy((takeoff_xy_ - est.position) * config_.gains.pos_p, 1.5);
      sp.velocity.z = -climb;
      double yaw_target = hold_yaw_;
      if (p_fired(BugId::kApm5428)) {
        // Heading lock dropped: the yaw reference spins.
        yaw_target = geo::wrap_angle(
            hold_yaw_ + 0.9 * static_cast<double>(now - mode_entry_ms_) / 1000.0);
      }
      sp.yaw = yaw_target;
      if (est.altitude() >= takeoff_target_alt_ - config_.takeoff_accept_error && climb > 0.0) {
        if (mission_active_) {
          p_advance_mission(now);
        } else {
          guided_target_ = est.position;
          p_set_mode(Mode::kGuided, 0, now, "takeoff complete");
        }
      }
      break;
    }

    case Mode::kAuto: {
      const mavlink::MissionItem* item = mission_.current();
      if (item == nullptr) {
        p_advance_mission(now);
        break;
      }
      geo::Vec3 target = env_->frame().to_local(item->position);
      if (p_fired(BugId::kPx417046)) {
        // RTL engagement was rejected; the navigator keeps chasing the last
        // leg's velocity forever (fly-away).
        sp.kind = Setpoint::Kind::kVelocity;
        sp.velocity = limit_xy((target - est.position), 1.0) * config_.gains.max_speed_xy;
        sp.velocity.z = 0.0;
        break;
      }
      sp.kind = Setpoint::Kind::kPosition;
      sp.position = target;
      const geo::Vec3 to_wp = target - est.position;
      if (std::sqrt(to_wp.x * to_wp.x + to_wp.y * to_wp.y) > 1.0) {
        sp.yaw = std::atan2(to_wp.y, to_wp.x);
      }
      // Geofence: breaching the fence triggers the fence failsafe (RTL),
      // which is how the fence workload's golden run is meant to end its box.
      if (mission_.fence_violated(est.position)) {
        p_status("fence breach: RTL", 3);
        mission_active_ = false;
        p_set_mode(Mode::kReturnToLaunch, 0, now, "fence failsafe");
        break;
      }
      const double dist = (target - est.position).norm();
      if (dist < config_.waypoint_accept_radius) {
        p_advance_mission(now);
      }
      break;
    }

    case Mode::kGuided:
      sp.kind = Setpoint::Kind::kPosition;
      sp.position = guided_target_;
      break;

    case Mode::kPositionHold: {
      const bool sticks_idle = std::abs(sticks_.roll) < 0.05 && std::abs(sticks_.pitch) < 0.05 &&
                               std::abs(sticks_.throttle) < 0.05;
      if (sticks_idle) {
        if (!holding_) {
          hold_position_ = est.position;
          hold_yaw_ = est.attitude.yaw;
          holding_ = true;
          last_stick_change_ms_ = now;
        }
        sp.kind = Setpoint::Kind::kPosition;
        sp.position = hold_position_;
        sp.yaw = hold_yaw_;
      } else {
        if (holding_) last_stick_change_ms_ = now;
        holding_ = false;
        // Sticks map to body-yaw-frame velocity demands.
        const double cy = std::cos(est.attitude.yaw);
        const double sy = std::sin(est.attitude.yaw);
        const double vx_body = sticks_.pitch * 4.0;   // forward
        const double vy_body = sticks_.roll * 4.0;    // right
        sp.kind = Setpoint::Kind::kVelocity;
        sp.velocity.x = vx_body * cy - vy_body * sy;
        sp.velocity.y = vx_body * sy + vy_body * cy;
        sp.velocity.z = -sticks_.throttle * 2.0;
        hold_yaw_ = geo::wrap_angle(hold_yaw_ + sticks_.yaw * 1.2 * kDt);
        sp.yaw = hold_yaw_;
      }
      break;
    }

    case Mode::kReturnToLaunch: {
      switch (rtl_phase_) {
        case RtlPhase::kClimb:
          sp.kind = Setpoint::Kind::kPosition;
          sp.position = est.position;
          sp.position.z = -rtl_target_alt_;
          if (est.altitude() >= rtl_target_alt_ - 0.5) rtl_phase_ = RtlPhase::kReturn;
          break;
        case RtlPhase::kReturn: {
          if (p_fired(BugId::kPx413291)) {
            // Battery failsafe engaged RTL without a position check; with no
            // local position the vehicle just keeps its last velocity.
            sp.kind = Setpoint::Kind::kVelocity;
            sp.velocity = limit_xy(est.velocity, config_.gains.max_speed_xy);
            if (sp.velocity.norm() < 1.0) {
              const double yaw = est.attitude.yaw;
              sp.velocity = {4.0 * std::cos(yaw), 4.0 * std::sin(yaw), 0.0};
            }
            sp.velocity.z = 0.0;
            break;
          }
          sp.kind = Setpoint::Kind::kPosition;
          sp.position = {0.0, 0.0, -rtl_target_alt_};
          const geo::Vec3 to_home = sp.position - est.position;
          if (std::sqrt(to_home.x * to_home.x + to_home.y * to_home.y) > 1.0) {
            sp.yaw = std::atan2(to_home.y, to_home.x);
          }
          const double home_dist =
              std::sqrt(est.position.x * est.position.x + est.position.y * est.position.y);
          if (home_dist < 2.0) {
            rtl_phase_ = RtlPhase::kDescend;
            land_xy_ = {0.0, 0.0, 0.0};
            land_xy_valid_ = position_valid_;
            p_set_mode(Mode::kLand, 0, now, "rtl complete");
          }
          break;
        }
        case RtlPhase::kDescend:
          // Unreachable: kDescend immediately becomes Land mode.
          sp.kind = Setpoint::Kind::kVelocity;
          sp.velocity = {0.0, 0.0, config_.failsafe.land_speed};
          break;
      }
      break;
    }

    case Mode::kLand: {
      // Descent-rate schedule: pause, then ramp, fast when high, slow final.
      const sim::SimTimeMs since_ramp = now - land_descent_ramp_start_;
      double descent = 0.0;
      if (since_ramp > kLandPauseMs) {
        const double ramp =
            std::min(1.0, static_cast<double>(since_ramp - kLandPauseMs) /
                              static_cast<double>(kLandRampMs));
        double target_speed = est.altitude() > kLandFastAltitude
                                  ? config_.failsafe.land_speed_fast
                                  : config_.failsafe.land_speed;
        // Degraded-reference landings descend conservatively. The APM-16021
        // and APM-16682 bugs are precisely this check being skipped: the
        // firmware trusts its (wrong) altitude and keeps the fast schedule.
        const bool degraded = p_family_dead(sensors::SensorType::kAccelerometer) ||
                              p_family_dead(sensors::SensorType::kBarometer);
        if (degraded && !p_fired(BugId::kApm16021) && !p_fired(BugId::kApm16682)) {
          target_speed = config_.failsafe.land_speed;
        }
        descent = ramp * target_speed;
      }
      land_commanded_descent_ = descent;
      if (land_xy_valid_) {
        sp.kind = Setpoint::Kind::kVelocity;
        sp.velocity = limit_xy((land_xy_ - est.position) * config_.gains.pos_p, 1.0);
        sp.velocity.z = descent;
      } else {
        // No trustworthy position: hold a level attitude and descend. A
        // zero-velocity target would chase the dead-reckoned velocity
        // estimate, actively dragging the vehicle away from the scene.
        sp.kind = Setpoint::Kind::kAttitude;
        sp.attitude = {};
        sp.climb_rate = -descent;
      }
      p_detect_touchdown(now);
      break;
    }

    case Mode::kEmergencyLand:
      if (estimator_.quirks().derived_rates) {
        // Degraded-but-usable attitude solution: hold level and descend.
        sp.kind = Setpoint::Kind::kAttitude;
        sp.attitude = {};
        sp.climb_rate = -0.8;
        land_commanded_descent_ = 0.8;
      } else {
        // No usable rate feedback at all: open-loop reduced thrust.
        sp.kind = Setpoint::Kind::kEmergencyDescend;
        land_commanded_descent_ = 1.5;
      }
      p_detect_touchdown(now);
      break;

    default:
      sp.kind = Setpoint::Kind::kVelocity;
      sp.velocity = {};
      break;
  }
  return sp;
}

void Firmware::p_detect_touchdown(sim::SimTimeMs now) {
  const EstimatedState& est = estimator_.state();
  // Primary detector: altitude reference says we are down and not moving.
  const bool low = est.altitude() < 0.25 && std::abs(est.climb_rate()) < 0.25;
  // Secondary detector (coarse altitude reference, e.g. GPS-only): descent
  // is commanded but the vehicle is not moving vertically near the ground —
  // it must be resting on something.
  const bool stalled = est.altitude() < 2.0 && land_commanded_descent_ > 0.3 &&
                       std::abs(est.climb_rate()) < 0.12;
  if (low || stalled) {
    if (land_low_since_ < 0) land_low_since_ = now;
    if (now - land_low_since_ > (low ? 400 : 900)) {
      armed_ = false;
      p_status("landing complete, disarmed");
      p_set_mode(Mode::kPreFlight, 0, now, "landed");
    }
  } else {
    land_low_since_ = -1;
  }
}

// --------------------------------------------------------------------------
// Failsafes and seeded bugs
// --------------------------------------------------------------------------

bool Firmware::p_family_dead(sensors::SensorType t) const {
  return !estimator_.health(t).any_alive();
}

sim::SimTimeMs Firmware::p_family_death_time(sensors::SensorType t) const {
  return estimator_.health(t).all_failed_at;
}

bool Firmware::p_primary_dead(sensors::SensorType t) const {
  return !estimator_.health(t).primary_alive;
}

sim::SimTimeMs Firmware::p_primary_death_time(sensors::SensorType t) const {
  return estimator_.health(t).primary_failed_at;
}

bool Firmware::p_bug_armed(BugId id) const {
  return bug_armed_mask_[static_cast<std::size_t>(id)] && !p_fired(id);
}

void Firmware::p_fire(BugId id, sim::SimTimeMs now, const char* note) {
  auto& st = bug_state_[static_cast<std::size_t>(id)];
  st.fired = true;
  st.fired_at = now;
  fired_bugs_.push_back(id);
  util::log_debug() << "bug " << bug_info(id).report_name << " fired at t=" << now << "ms ("
                    << note << ")";
}

bool Firmware::p_prearm_ok() const {
  // Real firmware refuses to arm with *any* unhealthy sensor ("PreArm:
  // Compass not healthy"), not merely a dead family.
  using sensors::SensorType;
  for (SensorType t : sensors::kAllSensorTypes) {
    const SourceHealth& h = estimator_.health(t);
    if (h.alive != h.total) return false;
  }
  return true;
}

void Firmware::p_failsafes(sim::SimTimeMs now) {
  p_bug_hooks(now);

  using sensors::SensorType;
  auto handled = [&](SensorType t) -> bool& {
    return family_handled_[static_cast<std::size_t>(t)];
  };
  auto debounced_dead = [&](SensorType t) {
    return p_family_dead(t) &&
           now - p_family_death_time(t) >= config_.failsafe.health_debounce_ms;
  };
  const bool airborne = mode_ != Mode::kPreFlight && estimator_.state().altitude() > 0.3;

  // A family is marked handled only when a failsafe action is actually
  // taken; a failure detected on the ground stays pending until the vehicle
  // is airborne (or never acts if it stays down — the pre-arm check and the
  // takeoff logic own that case).
  const bool landing_already = mode_ == Mode::kLand || mode_ == Mode::kEmergencyLand;

  // Gyroscopes: nothing flies without rate feedback. Unlike the other
  // families this acts even from inside a normal landing — descending on a
  // broken rate loop is not survivable.
  if (debounced_dead(SensorType::kGyroscope) && !handled(SensorType::kGyroscope)) {
    if (config_.personality == Personality::kArduPilotLike) {
      if (mode_ != Mode::kEmergencyLand) {
        handled(SensorType::kGyroscope) = true;
        // Rates are reconstructed from the accel-corrected attitude so the
        // emergency descent can still keep the frame level.
        estimator_.quirks().derived_rates = true;
        p_status("gyro failure: emergency landing", 2);
        p_set_mode(Mode::kEmergencyLand, 0, now, "gyro failsafe");
      }
    } else {
      // PX4 reconstructs rates from the attitude solution and lands.
      handled(SensorType::kGyroscope) = true;
      estimator_.quirks().derived_rates = true;
      p_status("gyro failure: descending", 2);
      if (!landing_already) {
        land_xy_ = estimator_.state().position;
        land_xy_valid_ = position_valid_;
        p_set_mode(Mode::kLand, 0, now, "gyro failsafe");
      }
    }
  }

  // Accelerometers: vertical estimation degrades; land while baro holds.
  if (debounced_dead(SensorType::kAccelerometer) && !handled(SensorType::kAccelerometer) &&
      airborne && !landing_already) {
    handled(SensorType::kAccelerometer) = true;
    p_status("accelerometer failure: landing", 2);
    land_xy_ = estimator_.state().position;
    land_xy_valid_ = position_valid_;
    p_set_mode(Mode::kLand, 0, now, "accel failsafe");
  }

  // Barometer: no trustworthy altitude reference; land on GPS altitude.
  if (debounced_dead(SensorType::kBarometer) && !handled(SensorType::kBarometer) && airborne &&
      !landing_already) {
    handled(SensorType::kBarometer) = true;
    p_status("barometer failure: landing", 2);
    land_xy_ = estimator_.state().position;
    land_xy_valid_ = position_valid_;
    p_set_mode(Mode::kLand, 0, now, "baro failsafe");
  }

  // GPS: no position; land in place. If a landing is already under way its
  // horizontal hold must stop chasing the now-dead-reckoned position.
  if (debounced_dead(SensorType::kGps)) {
    position_valid_ = false;
    land_xy_valid_ = false;
    if (!handled(SensorType::kGps) && airborne && !landing_already) {
      handled(SensorType::kGps) = true;
      p_status("GPS failure: landing without position", 2);
      p_set_mode(Mode::kLand, 0, now, "gps failsafe");
    }
  }

  // Battery monitor: unknown charge is treated as critical after a delay.
  if (p_family_dead(SensorType::kBattery)) {
    if (battery_dead_since_ < 0) battery_dead_since_ = now;
    if (now - battery_dead_since_ > 2000 && !handled(SensorType::kBattery) && airborne &&
        !landing_already) {
      handled(SensorType::kBattery) = true;
      p_status("battery monitor failure: landing", 2);
      land_xy_ = estimator_.state().position;
      land_xy_valid_ = position_valid_;
      p_set_mode(Mode::kLand, 0, now, "battery failsafe");
    }
  }

  // Battery genuinely low (readable): return home.
  if (!p_family_dead(SensorType::kBattery) &&
      estimator_.state().battery_remaining < config_.failsafe.battery_low_fraction &&
      airborne && mode_ != Mode::kReturnToLaunch && mode_ != Mode::kLand &&
      mode_ != Mode::kEmergencyLand && !handled(SensorType::kBattery)) {
    handled(SensorType::kBattery) = true;
    p_status("battery low: RTL", 3);
    p_set_mode(Mode::kReturnToLaunch, 0, now, "battery low");
  }

  // Compass: primary loss fails over to backups inside the estimator; a
  // fully dead family continues on gyro-integrated heading.
}

void Firmware::p_bug_hooks(sim::SimTimeMs now) {
  using sensors::SensorType;
  const EstimatedState& est = estimator_.state();
  auto handled = [&](SensorType t) -> bool& {
    return family_handled_[static_cast<std::size_t>(t)];
  };
  auto died_in_window = [&](SensorType t, sim::SimTimeMs window_start,
                            sim::SimTimeMs window_end) {
    const sim::SimTimeMs d = p_family_death_time(t);
    return p_family_dead(t) && d >= window_start && (window_end < 0 || d <= window_end);
  };
  // IMU and compass bugs are broken fail-overs: they key on the *primary*
  // instance dying inside the window, regardless of surviving backups.
  auto primary_died_in_window = [&](SensorType t, sim::SimTimeMs window_start,
                                    sim::SimTimeMs window_end) {
    const sim::SimTimeMs d = p_primary_death_time(t);
    return p_primary_dead(t) && d >= window_start && (window_end < 0 || d <= window_end);
  };

  // ---- APM-16020: GPS failure right after entering AUTO (fly-away). ----
  if (p_bug_armed(BugId::kApm16020) && mode_ == Mode::kAuto && prev_mode_ == Mode::kTakeoff &&
      died_in_window(SensorType::kGps, mode_entry_ms_ - 200, mode_entry_ms_ + 2500)) {
    p_fire(BugId::kApm16020, now, "stale GPS velocity held after loss in early AUTO");
    estimator_.quirks().hold_stale_gps_velocity = true;
    handled(SensorType::kGps) = true;  // the (buggy) glitch handler owns it
  }

  // ---- APM-16021: accelerometer failure late in takeoff (crash). ----
  // Recency matters: the paper's Fig. 9 fault hits at 18 m of a 20 m climb.
  // A primary lost early in the climb fails over correctly.
  if (p_bug_armed(BugId::kApm16021) && mode_ == Mode::kTakeoff &&
      est.altitude() > 0.55 * takeoff_target_alt_ &&
      primary_died_in_window(SensorType::kAccelerometer, mode_entry_ms_, -1) &&
      now - p_primary_death_time(SensorType::kAccelerometer) < 400) {
    p_fire(BugId::kApm16021, now, "inertial altitude under-read during climb");
    // Phase 1: the state model under-reads altitude, so the climb overshoots.
    estimator_.quirks().altitude_bias = -5.0;
    handled(SensorType::kAccelerometer) = true;
  }
  if (p_fired(BugId::kApm16021)) {
    auto& st = bug_state_[static_cast<std::size_t>(BugId::kApm16021)];
    if (st.phase == 0 && mode_ != Mode::kTakeoff) {
      // Phase 2: overshoot detected; firmware lands, but the state model now
      // predicts a high altitude, so the fast-descent schedule is kept all
      // the way into the ground (Fig. 9, events 3-5).
      st.phase = 1;
      estimator_.quirks().altitude_bias = 12.0;
      land_xy_ = est.position;
      land_xy_valid_ = position_valid_;
      p_set_mode(Mode::kLand, 0, now, "overshoot response");
    }
  }

  // ---- APM-16027: barometer failure entering takeoff (fly-away). ----
  if (p_bug_armed(BugId::kApm16027) && mode_ == Mode::kTakeoff &&
      died_in_window(SensorType::kBarometer, -1 * 1000, mode_entry_ms_ + 1200) &&
      p_family_dead(SensorType::kBarometer)) {
    p_fire(BugId::kApm16027, now, "takeoff altitude reference frozen");
    estimator_.quirks().freeze_altitude = true;
    handled(SensorType::kBarometer) = true;
  }

  // ---- APM-16967: compass failure between waypoints (crash). ----
  // The navigation controller re-reads the dead primary while it is
  // re-computing the course — the turn onto a new waypoint leg, or the
  // moment a manual position-hold leg starts/ends. Outside these windows the
  // fail-over path works.
  const bool in_turn_window =
      (mode_ == Mode::kAuto && submode_ >= 1 && now - mode_entry_ms_ < 1100) ||
      (mode_ == Mode::kPositionHold && now - last_stick_change_ms_ < 600);
  if (p_bug_armed(BugId::kApm16967) && in_turn_window &&
      primary_died_in_window(SensorType::kCompass, mode_entry_ms_ - 300, -1) &&
      now - p_primary_death_time(SensorType::kCompass) < 1100) {
    p_fire(BugId::kApm16967, now, "old compass state read; heading lost");
    estimator_.quirks().freeze_heading = true;  // fail-over never happens
  }
  if (p_fired(BugId::kApm16967)) {
    auto& st = bug_state_[static_cast<std::size_t>(BugId::kApm16967)];
    if (st.phase == 0 && now - st.fired_at > 2500) {
      st.phase = 1;  // heading loss noticed -> emergency land
      land_xy_ = est.position;
      land_xy_valid_ = position_valid_;
      p_set_mode(Mode::kLand, 0, now, "heading lost");
    } else if (st.phase == 1 && est.altitude() < 3.5) {
      st.phase = 2;  // state-estimate reset near the end of the landing
      estimator_.reset_state_estimate();
      estimator_.quirks().stale_rates = true;
      p_status("EKF reset", 2);
    }
  }

  // ---- APM-16682 (Fig. 1): accel failure during landing (crash). ----
  // The failure must start while the landing is already in progress (Table
  // II: "Return To Launch -> Land"); a pre-landing IMU loss takes the
  // correct accel-failsafe path instead. The broken fail-over goes unnoticed
  // until the final metres, where the firmware switches to GPS-driven
  // altitude without checking that the vehicle is far too low for the GPS's
  // coarse vertical resolution.
  if (p_bug_armed(BugId::kApm16682) && mode_ == Mode::kLand && est.altitude() < 3.0 &&
      primary_died_in_window(SensorType::kAccelerometer, mode_entry_ms_, -1)) {
    p_fire(BugId::kApm16682, now, "GPS-driven altitude during final landing");
    // The fail-safe switches to GPS-driven flight without checking that the
    // vehicle is too low for the GPS's coarse vertical resolution (Fig. 1).
    // The coarse fix reads high, so the fast-descent schedule stays engaged
    // all the way into the ground.
    estimator_.quirks().gps_altitude_only = true;
    estimator_.quirks().altitude_bias = 12.0;
    handled(SensorType::kAccelerometer) = true;
  }

  // ---- APM-16953: gyro failure entering land (crash). ----
  if (p_bug_armed(BugId::kApm16953) && mode_ == Mode::kLand &&
      primary_died_in_window(SensorType::kGyroscope, mode_entry_ms_ - 300,
                             mode_entry_ms_ + 2500)) {
    p_fire(BugId::kApm16953, now, "stale rate feedback during landing");
    estimator_.quirks().stale_rates = true;
    handled(SensorType::kGyroscope) = true;  // emergency-land never engages
  }

  // ---- PX4-17046: gyro failure at RTL engagement (fly-away). ----
  if (p_bug_armed(BugId::kPx417046) &&
      ((mode_ == Mode::kReturnToLaunch && now - mode_entry_ms_ < 1000) ||
       (mode_ == Mode::kAuto && submode_ >= 3)) &&
      primary_died_in_window(SensorType::kGyroscope, mode_entry_ms_ - 500, -1)) {
    p_fire(BugId::kPx417046, now, "RTL rejected; last leg velocity held");
    estimator_.quirks().derived_rates = true;  // the honest fallback does engage
    handled(SensorType::kGyroscope) = true;
    if (mode_ == Mode::kReturnToLaunch) {
      // Commander bounces back to the mission with no position target.
      p_set_mode(Mode::kAuto, static_cast<std::uint8_t>(std::max(wp_ordinal_, 1)), now,
                 "rtl rejected");
    }
    mission_active_ = true;
  }

  // ---- PX4-17057: gyro failure during takeoff spool-up (crash). ----
  if (p_bug_armed(BugId::kPx417057) && mode_ == Mode::kTakeoff &&
      now - mode_entry_ms_ < 1800 &&
      primary_died_in_window(SensorType::kGyroscope, mode_entry_ms_ - 1500, -1)) {
    p_fire(BugId::kPx417057, now, "rate fallback not engaged during takeoff");
    estimator_.quirks().stale_rates = true;
    handled(SensorType::kGyroscope) = true;
  }

  // ---- PX4-17192: compass failure before/at takeoff (takeoff failure). ---
  if (p_bug_armed(BugId::kPx417192) && mode_ == Mode::kTakeoff &&
      now - mode_entry_ms_ < 1500 && p_primary_dead(SensorType::kCompass)) {
    p_fire(BugId::kPx417192, now, "takeoff aborted on compass loss; vehicle left armed");
    // No fail-over attempt; the climb is zeroed in p_mode_setpoint.
  }

  // ---- PX4-17181: baro failure before/at takeoff (takeoff failure). ----
  if (p_bug_armed(BugId::kPx417181) && mode_ == Mode::kTakeoff &&
      now - mode_entry_ms_ < 1500 && p_family_dead(SensorType::kBarometer)) {
    p_fire(BugId::kPx417181, now, "takeoff climb zeroed on baro loss; vehicle left armed");
    handled(SensorType::kBarometer) = true;
  }

  // ---- APM-4455 (known): baro failure as the climb completes (runaway). --
  // The climb-rate setter re-reads the dead barometer while computing the
  // level-off; distinct window from APM-16027, which needs the loss at the
  // start of the takeoff.
  if (p_bug_armed(BugId::kApm4455) && mode_ == Mode::kTakeoff &&
      est.altitude() > 0.60 * takeoff_target_alt_ &&
      p_family_dead(SensorType::kBarometer) &&
      p_family_death_time(SensorType::kBarometer) >= mode_entry_ms_ + 1200) {
    p_fire(BugId::kApm4455, now, "climb rate mis-set after mid-climb baro loss");
    estimator_.quirks().freeze_altitude = true;
    handled(SensorType::kBarometer) = true;
  }

  // ---- APM-4679 (known): GPS failure during landing (land flapping). ----
  if (p_bug_armed(BugId::kApm4679) && mode_ == Mode::kLand &&
      p_family_dead(SensorType::kGps) &&
      p_family_death_time(SensorType::kGps) >= land_descent_ramp_start_) {
    p_fire(BugId::kApm4679, now, "glitch handler re-enters LAND from LAND");
    handled(SensorType::kGps) = true;
    position_valid_ = false;
    land_xy_valid_ = false;
  }
  if (p_fired(BugId::kApm4679) && mode_ == Mode::kLand) {
    auto& st = bug_state_[static_cast<std::size_t>(BugId::kApm4679)];
    if (now - st.fired_at > 800 * (st.phase + 1)) {
      ++st.phase;
      p_set_mode(Mode::kLand, 0, now, "gps glitch re-land");  // restarts pause+ramp
    }
  }

  // ---- APM-5428 (known): compass failure during takeoff yaw-align. ----
  // The yaw aligner keeps integrating against the dead primary: the heading
  // solution picks up a phantom rotation and the horizontal controller maps
  // its commands into an increasingly wrong frame.
  if (p_bug_armed(BugId::kApm5428) && mode_ == Mode::kTakeoff &&
      p_primary_dead(SensorType::kCompass)) {
    p_fire(BugId::kApm5428, now, "heading lock dropped during yaw align");
    estimator_.quirks().freeze_heading = true;
    estimator_.quirks().yaw_rate_bias = 0.4;
  }

  // ---- APM-9349 (known): accel clip during a waypoint turn. ----
  if (p_bug_armed(BugId::kApm9349) && mode_ == Mode::kAuto && submode_ >= 1 &&
      now - mode_entry_ms_ < 1500 &&
      primary_died_in_window(SensorType::kAccelerometer, mode_entry_ms_ - 200, -1)) {
    p_fire(BugId::kApm9349, now, "velocity estimate corrupted by clipped accel");
    handled(SensorType::kAccelerometer) = true;
  }
  if (p_fired(BugId::kApm9349)) {
    // The clipped samples keep re-entering the filter: the velocity estimate
    // is repeatedly kicked, the controller brakes and lunges, and after a
    // couple of seconds the firmware declares its velocity solution failed
    // and lands — still on the corrupted vertical estimate, which reads
    // "climbing" while the vehicle sinks.
    auto& st = bug_state_[static_cast<std::size_t>(BugId::kApm9349)];
    if (now - st.fired_at < 2200 && now % 150 == 0) {
      const double yaw = est.attitude.yaw;
      estimator_.corrupt_velocity({3.0 * std::cos(yaw), 3.0 * std::sin(yaw), 0.0});
    }
    if (st.phase == 0 && now - st.fired_at >= 2200) {
      st.phase = 1;
      land_xy_valid_ = false;
      p_set_mode(Mode::kLand, 0, now, "velocity solution failed");
    }
    if (st.phase == 1 && (mode_ == Mode::kLand || mode_ == Mode::kEmergencyLand) &&
        now % 150 == 0) {
      estimator_.corrupt_velocity({0.0, 0.0, -0.5});  // reads as climbing
    }
  }

  // ---- PX4-13291 (known): battery failsafe without local position. ----
  if (p_bug_armed(BugId::kPx413291) && p_family_dead(SensorType::kBattery) &&
      p_family_dead(SensorType::kGps) && mode_ != Mode::kPreFlight &&
      est.altitude() > 1.0) {
    p_fire(BugId::kPx413291, now, "battery failsafe RTL engaged with no position");
    handled(SensorType::kBattery) = true;
    handled(SensorType::kGps) = true;
    position_valid_ = false;
    p_set_mode(Mode::kReturnToLaunch, 0, now, "battery failsafe");
    rtl_phase_ = RtlPhase::kReturn;  // no altitude reference discipline either
  }
}

}  // namespace avis::fw
