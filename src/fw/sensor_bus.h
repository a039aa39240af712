// Instrumented sensor drivers (paper §V-B).
//
// "We insert a libhinj API call in the read() procedure of each sensor
// driver. The API call queries the scheduler to determine if the read should
// fail. ... If the sensor should be failed, the API overwrites the sensor
// reading and the instrumented code executes the firmware's error-handling
// code."
//
// SensorBus is the firmware's only window onto the sensor suite: every read
// goes through the hinj client first, and an engine-directed failure latches
// the instance (clean failures never recover within a run).
#pragma once

#include "hinj/hinj.h"
#include "sensors/sensor_models.h"
#include "sim/simulator.h"

namespace avis::fw {

class SensorBus {
 public:
  SensorBus(sensors::SensorSuite& suite, hinj::Client& hinj_client)
      : suite_(&suite), hinj_(&hinj_client) {}

  // Per-type reads; `instance` selects primary (0) or a backup.
  sensors::ReadStatus read_gyro(int instance, sim::SimTimeMs now,
                                const sim::VehicleState& truth, const sim::Environment& env,
                                sensors::GyroSample& out) {
    return p_read(suite_->gyro(instance), now, truth, env, out);
  }

  sensors::ReadStatus read_accel(int instance, sim::SimTimeMs now,
                                 const sim::VehicleState& truth, const sim::Environment& env,
                                 sensors::AccelSample& out) {
    return p_read(suite_->accel(instance), now, truth, env, out);
  }

  sensors::ReadStatus read_baro(int instance, sim::SimTimeMs now,
                                const sim::VehicleState& truth, const sim::Environment& env,
                                sensors::BaroSample& out) {
    return p_read(suite_->baro(instance), now, truth, env, out);
  }

  sensors::ReadStatus read_gps(int instance, sim::SimTimeMs now,
                               const sim::VehicleState& truth, const sim::Environment& env,
                               sensors::GpsSample& out) {
    return p_read(suite_->gps(instance), now, truth, env, out);
  }

  sensors::ReadStatus read_compass(int instance, sim::SimTimeMs now,
                                   const sim::VehicleState& truth, const sim::Environment& env,
                                   sensors::CompassSample& out) {
    return p_read(suite_->compass(instance), now, truth, env, out);
  }

  sensors::ReadStatus read_battery(int instance, sim::SimTimeMs now,
                                   const sim::VehicleState& truth, const sim::Environment& env,
                                   sensors::BatterySample& out) {
    return p_read(suite_->battery(instance), now, truth, env, out);
  }

  const sensors::SuiteConfig& config() const { return suite_->config(); }
  const sensors::SensorSuite& suite() const { return *suite_; }

 private:
  template <typename SensorT, typename Sample>
  sensors::ReadStatus p_read(SensorT& sensor, sim::SimTimeMs now,
                             const sim::VehicleState& truth, const sim::Environment& env,
                             Sample& out) {
    // Instrumentation point: ask the engine whether this read fails. This
    // runs for every live sensor on every 1 kHz step, so it rides the hinj
    // client's fixed-size zero-allocation frame path; an already-failed
    // instance stops asking (clean failures never recover within a run).
    if (!sensor.failed() && hinj_->sensor_read(sensor.id(), now)) {
      sensor.fail();
    }
    return sensor.read(now, truth, env, out);
  }

  sensors::SensorSuite* suite_;
  hinj::Client* hinj_;
};

}  // namespace avis::fw
