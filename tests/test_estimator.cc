#include <gtest/gtest.h>

#include "fw/estimator.h"
#include "fw/sensor_bus.h"
#include "hinj/hinj.h"
#include "sensors/sensor_models.h"
#include "sim/simulator.h"

namespace avis::fw {
namespace {

// Drives the estimator against a scripted ground-truth trajectory.
class EstimatorTest : public ::testing::Test {
 protected:
  EstimatorTest()
      : seeds_(11),
        suite_(p_suite(), seeds_),
        server_(director_),
        client_(server_),
        bus_(suite_, client_),
        estimator_(bus_) {}

  static sensors::SuiteConfig p_suite() {
    sensors::SuiteConfig config;
    config.gyroscopes = 2;
    config.accelerometers = 2;
    config.compasses = 3;
    return config;
  }

  // Advance `ms` of hover at the given altitude.
  void hover(double altitude_m, sim::SimTimeMs ms) {
    truth_.position = {0.0, 0.0, -altitude_m};
    truth_.velocity = {};
    truth_.acceleration = {};
    truth_.body_rates = {};
    for (sim::SimTimeMs i = 0; i < ms; ++i) {
      estimator_.update(now_++, truth_, env_);
    }
  }

  // Advance with constant climb rate.
  void climb(double rate, sim::SimTimeMs ms) {
    truth_.velocity = {0.0, 0.0, -rate};
    truth_.acceleration = {};
    for (sim::SimTimeMs i = 0; i < ms; ++i) {
      truth_.position.z -= rate * sim::kStepSeconds;
      estimator_.update(now_++, truth_, env_);
    }
  }

  util::Rng seeds_;
  sensors::SensorSuite suite_;
  hinj::NullDirector director_;
  hinj::Server server_;
  hinj::Client client_;
  SensorBus bus_;
  StateEstimator estimator_;
  sim::Environment env_;
  sim::VehicleState truth_;
  sim::SimTimeMs now_ = 0;
};

TEST_F(EstimatorTest, ConvergesToHoverAltitude) {
  hover(15.0, 3000);
  EXPECT_NEAR(estimator_.state().altitude(), 15.0, 0.5);
  EXPECT_NEAR(estimator_.state().climb_rate(), 0.0, 0.25);
}

TEST_F(EstimatorTest, TracksClimb) {
  hover(5.0, 2000);
  climb(2.0, 2000);
  EXPECT_NEAR(estimator_.state().climb_rate(), 2.0, 0.4);
  EXPECT_NEAR(estimator_.state().altitude(), truth_.altitude(), 1.0);
}

TEST_F(EstimatorTest, TracksHeading) {
  truth_.attitude.yaw = 0.8;
  hover(10.0, 3000);
  EXPECT_NEAR(estimator_.state().attitude.yaw, 0.8, 0.08);
}

TEST_F(EstimatorTest, HealthStartsAllAlive) {
  hover(1.0, 10);
  const auto& h = estimator_.health(sensors::SensorType::kGyroscope);
  EXPECT_EQ(h.total, 2);
  EXPECT_EQ(h.alive, 2);
  EXPECT_TRUE(h.primary_alive);
  EXPECT_EQ(h.all_failed_at, -1);
  EXPECT_EQ(h.primary_failed_at, -1);
}

TEST_F(EstimatorTest, PrimaryFailoverKeepsEstimating) {
  hover(10.0, 2000);
  suite_.fail({sensors::SensorType::kGyroscope, 0});
  suite_.fail({sensors::SensorType::kCompass, 0});
  truth_.body_rates = {0.0, 0.0, 0.3};
  for (int i = 0; i < 2000; ++i) {
    truth_.attitude.yaw += 0.3 * sim::kStepSeconds;
    estimator_.update(now_++, truth_, env_);
  }
  // Backups keep heading/rate estimation alive.
  EXPECT_NEAR(estimator_.state().body_rates.z, 0.3, 0.05);
  EXPECT_NEAR(estimator_.state().attitude.yaw, truth_.attitude.yaw, 0.12);
  const auto& h = estimator_.health(sensors::SensorType::kGyroscope);
  EXPECT_FALSE(h.primary_alive);
  EXPECT_GE(h.primary_failed_at, 0);
  EXPECT_TRUE(h.any_alive());
}

TEST_F(EstimatorTest, FamilyDeathRecordsTimestamp) {
  hover(10.0, 500);
  suite_.fail({sensors::SensorType::kBarometer, 0});
  hover(10.0, 100);
  const auto& h = estimator_.health(sensors::SensorType::kBarometer);
  EXPECT_FALSE(h.any_alive());
  EXPECT_GE(h.all_failed_at, 500);
}

TEST_F(EstimatorTest, BaroDeathFallsBackToGpsAltitude) {
  hover(20.0, 2000);
  suite_.fail({sensors::SensorType::kBarometer, 0});
  hover(20.0, 4000);
  // Coarse but bounded: GPS vertical keeps the estimate near truth.
  EXPECT_NEAR(estimator_.state().altitude(), 20.0, 4.0);
}

TEST_F(EstimatorTest, GpsDeathSetsDeadReckoning) {
  hover(10.0, 2000);
  EXPECT_FALSE(estimator_.dead_reckoning());
  suite_.fail({sensors::SensorType::kGps, 0});
  hover(10.0, 500);
  EXPECT_TRUE(estimator_.dead_reckoning());
}

TEST_F(EstimatorTest, QuirkHoldStaleGpsVelocityMasksLoss) {
  hover(10.0, 2000);
  estimator_.quirks().hold_stale_gps_velocity = true;
  suite_.fail({sensors::SensorType::kGps, 0});
  hover(10.0, 500);
  EXPECT_FALSE(estimator_.dead_reckoning());  // the bug hides the loss
}

TEST_F(EstimatorTest, QuirkFreezeAltitude) {
  hover(10.0, 2000);
  estimator_.quirks().freeze_altitude = true;
  climb(2.0, 2000);
  // Published altitude stays frozen near 10 while truth climbs.
  EXPECT_NEAR(estimator_.state().altitude(), 10.0, 0.8);
  EXPECT_GT(truth_.altitude(), 13.0);
  EXPECT_NEAR(estimator_.state().climb_rate(), 0.0, 1e-9);
}

TEST_F(EstimatorTest, QuirkAltitudeBias) {
  hover(10.0, 2000);
  estimator_.quirks().altitude_bias = 5.0;
  hover(10.0, 1000);
  EXPECT_NEAR(estimator_.state().altitude(), 15.0, 0.8);
  // The bias must not feed back into the filter: removing it restores truth.
  estimator_.quirks().altitude_bias = 0.0;
  hover(10.0, 200);
  EXPECT_NEAR(estimator_.state().altitude(), 10.0, 0.8);
}

TEST_F(EstimatorTest, QuirkFreezeHeading) {
  truth_.attitude.yaw = 0.0;
  hover(10.0, 2000);
  estimator_.quirks().freeze_heading = true;
  truth_.body_rates.z = 0.5;
  for (int i = 0; i < 2000; ++i) {
    truth_.attitude.yaw = geo::wrap_angle(truth_.attitude.yaw + 0.5 * sim::kStepSeconds);
    estimator_.update(now_++, truth_, env_);
  }
  // Gyro still integrates; but the compass correction is frozen out. With
  // gyro alive the estimate still follows — freeze_heading matters once the
  // consumer holds stale data. Verify compass correction is bypassed by
  // checking the estimate drifts from truth once gyros also go stale.
  estimator_.quirks().stale_rates = true;
  truth_.body_rates.z = 0.0;
  const double yaw_before = estimator_.state().attitude.yaw;
  for (int i = 0; i < 1500; ++i) estimator_.update(now_++, truth_, env_);
  // Stale rate 0.5 rad/s keeps spinning the estimate.
  EXPECT_GT(std::abs(geo::wrap_angle(estimator_.state().attitude.yaw - yaw_before)), 0.4);
}

TEST_F(EstimatorTest, QuirkStaleRatesHoldsLastValue) {
  hover(10.0, 200);
  truth_.body_rates = {0.0, 0.4, 0.0};
  for (int i = 0; i < 200; ++i) estimator_.update(now_++, truth_, env_);
  estimator_.quirks().stale_rates = true;
  truth_.body_rates = {};
  for (int i = 0; i < 200; ++i) estimator_.update(now_++, truth_, env_);
  EXPECT_NEAR(estimator_.state().body_rates.y, 0.4, 0.05);
}

TEST_F(EstimatorTest, QuirkGpsAltitudeOnly) {
  hover(2.0, 3000);
  estimator_.quirks().gps_altitude_only = true;
  hover(2.0, 1000);
  // Published vertical velocity is zeroed; altitude comes from raw GPS.
  EXPECT_DOUBLE_EQ(estimator_.state().velocity.z, 0.0);
}

TEST_F(EstimatorTest, ResetStateEstimateZeroesAttitude) {
  truth_.velocity = {3.0, 0.0, 0.0};
  hover(10.0, 2000);
  truth_.velocity = {3.0, 0.0, 0.0};
  estimator_.reset_state_estimate();
  // One update publishes the reset state; velocity restarts near zero.
  estimator_.update(now_++, truth_, env_);
  EXPECT_LT(estimator_.state().velocity.norm(), 0.5);
}

TEST_F(EstimatorTest, CorruptVelocityShiftsEstimate) {
  hover(10.0, 2000);
  const double before = estimator_.state().velocity.x;
  estimator_.corrupt_velocity({8.0, 0.0, 0.0});
  hover(10.0, 1);
  EXPECT_GT(estimator_.state().velocity.x, before + 6.0);
}

TEST_F(EstimatorTest, BatteryPassThrough) {
  truth_.battery_voltage = 11.2;
  truth_.battery_remaining = 0.4;
  hover(5.0, 500);
  EXPECT_NEAR(estimator_.state().battery_voltage, 11.2, 0.2);
  EXPECT_NEAR(estimator_.state().battery_remaining, 0.4, 0.01);
}

}  // namespace
}  // namespace avis::fw
