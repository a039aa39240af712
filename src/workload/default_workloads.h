// The default workloads (paper §V-A).
//
//  * AutoWorkload  — the Fig. 8 example: upload a takeoff+land mission,
//    arm, enter auto mode, wait for the climb and the landing.
//  * BoxManualWorkload — "a manual mode that holds the vehicle's position":
//    ascend to 20 m, fly the perimeter of a 20 m x 20 m box on RC sticks in
//    position-hold, land at the launch point.
//  * FenceMissionWorkload — "waypoints and a fence": ascend to 20 m, fly a
//    box whose last leg crosses a fenced region; the fence failsafe returns
//    the vehicle home, where it lands.
//
// All three run unchanged on both firmware personalities — the portability
// problem the framework exists to solve.
#pragma once

#include <memory>

#include "workload/workload.h"

namespace avis::workload {

inline constexpr double kCruiseAltitude = 20.0;

class AutoWorkload final : public Workload {
 public:
  AutoWorkload() : Workload("auto") {
    script_.wait_time(3000);
    script_.add("upload", [](GcsContext& ctx) {
      std::vector<mavlink::MissionItem> items;
      items.push_back(ctx.item_at(mavlink::Command::kNavTakeoff,
                                  {0.0, 0.0, -kCruiseAltitude}));
      items.push_back(ctx.item_at(mavlink::Command::kNavLand, {0.0, 0.0, 0.0}));
      ctx.upload_mission(std::move(items));
    },
    [](GcsContext& ctx) { return ctx.mission_uploaded(); }, 10000);
    script_.arm_system_completely();
    script_.enter_auto_mode();
    script_.wait_altitude_at_least(kCruiseAltitude - 0.6);
    script_.wait_altitude_at_most(0.4);
    script_.wait_disarm();
  }
};

class BoxManualWorkload final : public Workload {
 public:
  BoxManualWorkload() : Workload("box-manual") {
    script_.wait_time(3000);
    script_.arm_system_completely();
    script_.add_altitude_wait("takeoff", [](GcsContext& ctx) { ctx.takeoff(kCruiseAltitude); },
                              kCruiseAltitude - 0.6);
    script_.enter_mode(fw::Mode::kPositionHold);
    p_leg("north", /*pitch=*/0.85, /*roll=*/0.0,
          [](GcsContext& ctx) { return ctx.local_position().x >= 20.0; });
    p_leg("east", 0.0, 0.85, [](GcsContext& ctx) { return ctx.local_position().y >= 20.0; });
    p_leg("south", -0.85, 0.0, [](GcsContext& ctx) { return ctx.local_position().x <= 0.5; });
    p_leg("west", 0.0, -0.85, [](GcsContext& ctx) { return ctx.local_position().y <= 0.5; });
    script_.add("land", [](GcsContext& ctx) { ctx.land(); }, [](GcsContext&) { return true; });
    script_.wait_disarm();
  }

 private:
  void p_leg(const char* name, double pitch, double roll,
             std::function<bool(GcsContext&)> done) {
    // Push the sticks until the leg target is crossed, then release and let
    // position-hold capture and settle.
    script_.add(std::string("leg_") + name,
                [pitch, roll](GcsContext& ctx) { ctx.rc(roll, pitch, 0.0, 0.0); },
                [done = std::move(done), pitch, roll](GcsContext& ctx) {
                  ctx.rc(roll, pitch, 0.0, 0.0);  // keep the sticks held
                  return done(ctx);
                },
                30000);
    script_.add_timed(std::string("settle_") + name,
                      [](GcsContext& ctx) { ctx.rc(0.0, 0.0, 0.0, 0.0); },
                      [](GcsContext&, sim::SimTimeMs elapsed) { return elapsed >= 1200; });
  }
};

class FenceMissionWorkload final : public Workload {
 public:
  FenceMissionWorkload() : Workload("fence-mission") {
    script_.wait_time(3000);
    script_.add("enable_fence",
                [](GcsContext& ctx) {
                  sim::Fence fence;
                  fence.min_north = -5.0;
                  fence.max_north = 28.0;  // the last leg crosses this edge
                  fence.min_east = -5.0;
                  fence.max_east = 30.0;
                  fence.max_altitude = 40.0;
                  ctx.enable_fence(fence);
                },
                [](GcsContext&) { return true; });
    script_.add("upload", [](GcsContext& ctx) {
      std::vector<mavlink::MissionItem> items;
      items.push_back(ctx.item_at(mavlink::Command::kNavTakeoff,
                                  {0.0, 0.0, -kCruiseAltitude}));
      items.push_back(ctx.item_at(mavlink::Command::kNavWaypoint,
                                  {20.0, 0.0, -kCruiseAltitude}));
      items.push_back(ctx.item_at(mavlink::Command::kNavWaypoint,
                                  {20.0, 20.0, -kCruiseAltitude}));
      // Waypoint 3 lies beyond the fence; the golden run breaches the fence
      // mid-leg, triggering the fence-failsafe RTL (wp3 -> RTL transition).
      items.push_back(ctx.item_at(mavlink::Command::kNavWaypoint,
                                  {45.0, 20.0, -kCruiseAltitude}));
      ctx.upload_mission(std::move(items));
    },
    [](GcsContext& ctx) { return ctx.mission_uploaded(); }, 10000);
    script_.arm_system_completely();
    script_.enter_auto_mode();
    script_.wait_altitude_at_least(kCruiseAltitude - 0.6);
    script_.wait_altitude_at_most(0.4);
    script_.wait_disarm();
  }
};

enum class WorkloadId { kAuto = 0, kBoxManual = 1, kFenceMission = 2 };

inline const char* to_string(WorkloadId id) {
  switch (id) {
    case WorkloadId::kAuto: return "auto";
    case WorkloadId::kBoxManual: return "box-manual";
    case WorkloadId::kFenceMission: return "fence-mission";
  }
  return "?";
}

inline std::unique_ptr<Workload> make_workload(WorkloadId id) {
  switch (id) {
    case WorkloadId::kAuto: return std::make_unique<AutoWorkload>();
    case WorkloadId::kBoxManual: return std::make_unique<BoxManualWorkload>();
    case WorkloadId::kFenceMission: return std::make_unique<FenceMissionWorkload>();
  }
  return nullptr;
}

}  // namespace avis::workload
