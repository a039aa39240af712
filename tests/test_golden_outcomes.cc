// Outcome anchor in time: the discrete outcome of a fixed set of experiment
// specs, recorded once and pinned below.
//
// Every other identity test compares two paths of the same build (warm vs
// cold, parallel vs serial, ...). A change that moves both paths equally,
// say an estimator tweak or a physics change, passes all of them and still
// shifts the paper's tables. This test compares today's build with the
// recorded one instead.
//
// Pinned per spec: workload pass/fail, duration, violation type/time/mode,
// mode transitions (time and id), fired bugs, crash cause, and each monitor
// sample's mode_id/on_ground/armed. No float bits are pinned, so another
// compiler or libm does not break it unless the discrete outcome moves.
//
// Rebaselining: when a change moves an outcome on purpose, replace the
// affected kGolden lines with the "actual" lines the failure prints, and add
// a CHANGES.md line saying why the outcome moved.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/harness.h"

namespace avis {
namespace {

using sensors::SensorType;

struct GoldenCase {
  std::string name;
  core::ExperimentSpec spec;
};

// 2 personalities x 3 workloads x 4 plans. Plans with stop_on_violation off
// run to the end, so their landed tails are pinned too; a GPS loss right
// after arming lands the vehicle and leaves it disarmed for most of the run
// while the workload waits out its timeout.
std::vector<GoldenCase> golden_cases() {
  struct PlanCase {
    const char* name;
    std::vector<core::FaultEvent> events;
    bool stop_on_violation;
  };
  const std::vector<PlanCase> plans = {
      {"none", {}, false},
      {"gps-after-arming", {{5000, {SensorType::kGps, 0}}}, false},
      {"gps-then-battery",
       {{15000, {SensorType::kGps, 0}}, {25000, {SensorType::kBattery, 0}}},
       true},
      {"baro-compass-preflight",
       {{4000, {SensorType::kBarometer, 0}},
        {4000, {SensorType::kCompass, 0}},
        {4000, {SensorType::kCompass, 1}},
        {4000, {SensorType::kCompass, 2}}},
       true},
  };
  std::vector<GoldenCase> cases;
  for (fw::Personality personality : {fw::Personality::kArduPilotLike, fw::Personality::kPx4Like}) {
    for (workload::WorkloadId workload :
         {workload::WorkloadId::kAuto, workload::WorkloadId::kBoxManual,
          workload::WorkloadId::kFenceMission}) {
      for (const PlanCase& plan : plans) {
        GoldenCase c;
        c.name = std::string(fw::to_string(personality)) + "/" + workload::to_string(workload) +
                 "/" + plan.name;
        c.spec.personality = personality;
        c.spec.workload = workload;
        c.spec.seed = 100;
        c.spec.stop_on_violation = plan.stop_on_violation;
        for (const core::FaultEvent& e : plan.events) c.spec.plan.add(e.time_ms, e.sensor);
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

// One line per result. Samples are run-length encoded as
// count*mode_id/ground/armed.
std::string render(const core::ExperimentResult& r) {
  std::ostringstream os;
  os << "pass=" << r.workload_passed << " dur=" << r.duration_ms
     << " crash=" << sim::to_string(r.crash_cause) << " viol=";
  if (r.violation) {
    os << core::to_string(r.violation->type) << "@" << r.violation->time_ms << "/m"
       << r.violation->mode_id;
  } else {
    os << "-";
  }
  os << " bugs=[";
  for (std::size_t i = 0; i < r.fired_bugs.size(); ++i) {
    os << (i ? "," : "") << static_cast<int>(r.fired_bugs[i]);
  }
  os << "] trans=[";
  for (std::size_t i = 0; i < r.transitions.size(); ++i) {
    os << (i ? "," : "") << r.transitions[i].time_ms << ":" << r.transitions[i].mode_id;
  }
  os << "] samples=[";
  std::size_t i = 0;
  while (i < r.trace.size()) {
    const core::StateSample& s = r.trace[i];
    std::size_t j = i;
    while (j < r.trace.size() && r.trace[j].mode_id == s.mode_id &&
           r.trace[j].on_ground == s.on_ground && r.trace[j].armed == s.armed) {
      ++j;
    }
    os << (i ? "," : "") << (j - i) << "*" << s.mode_id << "/" << s.on_ground << "/" << s.armed;
    i = j;
  }
  os << "]";
  return os.str();
}

// Recorded from the build whose outcome this file anchors; see the header
// before editing.
const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> kGolden = {
      {"ArduPilot/auto/none",
       "pass=1 dur=37521 crash=none viol=- bugs=[] trans=[0:0,3520:1024,13111:2304,33426:0] samples=[31*0/1/0,5*0/1/1,96*1024/0/1,189*2304/0/1,14*2304/1/1,41*0/1/0]"},
      {"ArduPilot/auto/gps-after-arming",
       "pass=0 dur=67541 crash=none viol=- bugs=[] trans=[0:0,3520:1024,5150:2304,14500:0] samples=[31*0/1/0,5*0/1/1,16*1024/0/1,67*2304/0/1,26*2304/1/1,531*0/1/0]"},
      {"ArduPilot/auto/gps-then-battery",
       "pass=1 dur=39021 crash=none viol=- bugs=[] trans=[0:0,3520:1024,13111:2304,34704:0] samples=[31*0/1/0,5*0/1/1,96*1024/0/1,190*2304/0/1,26*2304/1/1,43*0/1/0]"},
      {"ArduPilot/auto/baro-compass-preflight",
       "pass=0 dur=6301 crash=none viol=liveliness@5800/m1024 bugs=[2] trans=[0:0,3520:1024] samples=[31*0/1/0,5*0/1/1,28*1024/0/1]"},
      {"ArduPilot/box-manual/none",
       "pass=1 dur=66521 crash=none viol=- bugs=[] trans=[0:0,3020:1024,12520:768,42520:2304,62116:0] samples=[30*0/1/0,1*0/1/1,95*1024/0/1,300*768/0/1,182*2304/0/1,14*2304/1/1,44*0/1/0]"},
      {"ArduPilot/box-manual/gps-after-arming",
       "pass=0 dur=67041 crash=none viol=- bugs=[] trans=[0:0,3020:1024,5150:2304,16020:0] samples=[30*0/1/0,1*0/1/1,21*1024/0/1,84*2304/0/1,25*2304/1/1,510*0/1/0]"},
      {"ArduPilot/box-manual/gps-then-battery",
       "pass=0 dur=46541 crash=none viol=- bugs=[] trans=[0:0,3020:1024,12520:768,15150:2304,36442:0] samples=[30*0/1/0,1*0/1/1,95*1024/0/1,26*768/0/1,188*2304/0/1,25*2304/1/1,101*0/1/0]"},
      {"ArduPilot/box-manual/baro-compass-preflight",
       "pass=0 dur=7301 crash=none viol=liveliness@6800/m1024 bugs=[2] trans=[0:0,3020:1024] samples=[30*0/1/0,1*0/1/1,43*1024/0/1]"},
      {"ArduPilot/fence-mission/none",
       "pass=1 dur=58521 crash=none viol=- bugs=[] trans=[0:0,3520:1024,13111:1281,17148:1282,21264:1283,25215:2048,34220:2304,54494:0] samples=[31*0/1/0,5*0/1/1,96*1024/0/1,40*1281/0/1,41*1282/0/1,40*1283/0/1,90*2048/0/1,190*2304/0/1,12*2304/1/1,41*0/1/0]"},
      {"ArduPilot/fence-mission/gps-after-arming",
       "pass=0 dur=67541 crash=none viol=- bugs=[] trans=[0:0,3520:1024,5150:2304,14500:0] samples=[31*0/1/0,5*0/1/1,16*1024/0/1,67*2304/0/1,26*2304/1/1,531*0/1/0]"},
      {"ArduPilot/fence-mission/gps-then-battery",
       "pass=0 dur=18301 crash=none viol=liveliness@17800/m1282 bugs=[0] trans=[0:0,3520:1024,13111:1281,17773:1282] samples=[31*0/1/0,5*0/1/1,96*1024/0/1,46*1281/0/1,6*1282/0/1]"},
      {"ArduPilot/fence-mission/baro-compass-preflight",
       "pass=0 dur=6501 crash=none viol=liveliness@6000/m1024 bugs=[2] trans=[0:0,3520:1024] samples=[31*0/1/0,5*0/1/1,30*1024/0/1]"},
      {"PX4/auto/none",
       "pass=1 dur=37521 crash=none viol=- bugs=[] trans=[0:0,3520:1024,13111:2304,33426:0] samples=[31*0/1/0,5*0/1/1,96*1024/0/1,189*2304/0/1,14*2304/1/1,41*0/1/0]"},
      {"PX4/auto/gps-after-arming",
       "pass=0 dur=67541 crash=none viol=- bugs=[] trans=[0:0,3520:1024,5150:2304,14500:0] samples=[31*0/1/0,5*0/1/1,16*1024/0/1,67*2304/0/1,26*2304/1/1,531*0/1/0]"},
      {"PX4/auto/gps-then-battery",
       "pass=1 dur=39021 crash=none viol=- bugs=[] trans=[0:0,3520:1024,13111:2304,34704:0] samples=[31*0/1/0,5*0/1/1,96*1024/0/1,190*2304/0/1,26*2304/1/1,43*0/1/0]"},
      {"PX4/auto/baro-compass-preflight",
       "pass=0 dur=6701 crash=none viol=liveliness@6200/m1024 bugs=[8,9] trans=[0:0,3520:1024] samples=[31*0/1/0,5*0/1/1,32*1024/0/1]"},
      {"PX4/box-manual/none",
       "pass=1 dur=66521 crash=none viol=- bugs=[] trans=[0:0,3020:1024,12520:768,42520:2304,62116:0] samples=[30*0/1/0,1*0/1/1,95*1024/0/1,300*768/0/1,182*2304/0/1,14*2304/1/1,44*0/1/0]"},
      {"PX4/box-manual/gps-after-arming",
       "pass=0 dur=67041 crash=none viol=- bugs=[] trans=[0:0,3020:1024,5150:2304,16020:0] samples=[30*0/1/0,1*0/1/1,21*1024/0/1,84*2304/0/1,25*2304/1/1,510*0/1/0]"},
      {"PX4/box-manual/gps-then-battery",
       "pass=0 dur=46541 crash=none viol=- bugs=[] trans=[0:0,3020:1024,12520:768,15150:2304,36442:0] samples=[30*0/1/0,1*0/1/1,95*1024/0/1,26*768/0/1,188*2304/0/1,25*2304/1/1,101*0/1/0]"},
      {"PX4/box-manual/baro-compass-preflight",
       "pass=0 dur=9501 crash=none viol=liveliness@9000/m1024 bugs=[8,9] trans=[0:0,3020:1024] samples=[30*0/1/0,1*0/1/1,65*1024/0/1]"},
      {"PX4/fence-mission/none",
       "pass=1 dur=58521 crash=none viol=- bugs=[] trans=[0:0,3520:1024,13111:1281,17148:1282,21264:1283,25215:2048,34220:2304,54494:0] samples=[31*0/1/0,5*0/1/1,96*1024/0/1,40*1281/0/1,41*1282/0/1,40*1283/0/1,90*2048/0/1,190*2304/0/1,12*2304/1/1,41*0/1/0]"},
      {"PX4/fence-mission/gps-after-arming",
       "pass=0 dur=67541 crash=none viol=- bugs=[] trans=[0:0,3520:1024,5150:2304,14500:0] samples=[31*0/1/0,5*0/1/1,16*1024/0/1,67*2304/0/1,26*2304/1/1,531*0/1/0]"},
      {"PX4/fence-mission/gps-then-battery",
       "pass=1 dur=40021 crash=none viol=- bugs=[] trans=[0:0,3520:1024,13111:1281,15150:2304,35932:0] samples=[31*0/1/0,5*0/1/1,96*1024/0/1,20*1281/0/1,181*2304/0/1,27*2304/1/1,41*0/1/0]"},
      {"PX4/fence-mission/baro-compass-preflight",
       "pass=0 dur=7301 crash=none viol=liveliness@6800/m1024 bugs=[8,9] trans=[0:0,3520:1024] samples=[31*0/1/0,5*0/1/1,38*1024/0/1]"},
  };
  return kGolden;
}

TEST(GoldenOutcomes, DiscreteOutcomesMatchRecording) {
  const core::SimulationHarness harness;
  std::map<std::pair<int, int>, core::MonitorModel> models;
  const std::vector<GoldenCase> cases = golden_cases();
  for (const GoldenCase& c : cases) {
    const auto key = std::make_pair(static_cast<int>(c.spec.personality),
                                    static_cast<int>(c.spec.workload));
    auto model = models.find(key);
    if (model == models.end()) {
      model = models
                  .emplace(key, harness.profile(c.spec.personality, c.spec.workload,
                                                c.spec.bugs))
                  .first;
    }
    const std::string actual = render(harness.run(c.spec, &model->second));
    const auto expected = golden().find(c.name);
    const std::string want = expected == golden().end() ? "<not recorded>" : expected->second;
    EXPECT_EQ(want, actual) << "actual line for " << c.name << ":\n      {\"" << c.name
                            << "\",\n       \"" << actual << "\"},";
  }
  EXPECT_EQ(golden().size(), cases.size());
}

}  // namespace
}  // namespace avis
