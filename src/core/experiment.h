// Experiment specification and result types shared by the harness, the
// invariant monitor, and every search strategy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "workload/workload.h"

#include "fw/bugs.h"
#include "fw/modes.h"
#include "core/fault_plan.h"
#include "geo/vec3.h"
#include "sim/vehicle_state.h"
#include "workload/default_workloads.h"

namespace avis::core {

// One entry in the mode trace the engine records through hinj.
struct ModeTransition {
  sim::SimTimeMs time_ms = 0;
  std::uint16_t mode_id = 0;
  std::string mode_name;
};

// The paper's state tuple (P, alpha, M) sampled along a run (§IV-C),
// plus the physical flags the safety rule needs.
struct StateSample {
  sim::SimTimeMs time_ms = 0;
  geo::Vec3 position;
  geo::Vec3 acceleration;
  std::uint16_t mode_id = 0;
  bool on_ground = false;
  bool armed = false;
};

inline constexpr sim::SimTimeMs kSamplePeriodMs = 100;  // 10 Hz monitor rate

enum class ViolationType : std::uint8_t {
  kCrash,          // physical collision (safety rule)
  kFirmwareDead,   // firmware process aborted (safety rule)
  kLiveliness,     // Eq. 1: state deviates from every profiling run
  kFlyAway,        // hard backstop: left the profiled flight volume
};

inline const char* to_string(ViolationType v) {
  switch (v) {
    case ViolationType::kCrash: return "crash";
    case ViolationType::kFirmwareDead: return "firmware-dead";
    case ViolationType::kLiveliness: return "liveliness";
    case ViolationType::kFlyAway: return "fly-away";
  }
  return "?";
}

struct Violation {
  ViolationType type = ViolationType::kLiveliness;
  sim::SimTimeMs time_ms = 0;
  std::uint16_t mode_id = 0;  // composite mode at violation time
  std::string details;

  fw::ModeBucket bucket() const {
    return fw::bucket_of(fw::CompositeMode::from_id(mode_id).mode);
  }
};

struct ExperimentSpec {
  fw::Personality personality = fw::Personality::kArduPilotLike;
  workload::WorkloadId workload = workload::WorkloadId::kAuto;
  // Custom workloads built with the framework plug in here; when set it
  // overrides `workload`. Registry-named scenarios (core/scenario.h) always
  // arrive through this factory.
  std::function<std::unique_ptr<workload::Workload>()> workload_factory;
  // The world the run flies in; empty means the default flat calm field
  // (the "calm" preset in sim/environment_presets.h). The factory must be a
  // pure function so a run stays a pure function of its spec; keep captures
  // small — the spec (and this function) is copied once per experiment.
  std::function<sim::Environment()> environment_factory;
  fw::BugRegistry bugs = fw::BugRegistry::current_code_base();
  FaultPlan plan;
  std::uint64_t seed = 1;
  sim::SimTimeMs max_duration_ms = 150000;
  bool stop_on_violation = true;
};

struct ExperimentResult {
  bool workload_passed = false;
  std::optional<Violation> violation;
  std::vector<ModeTransition> transitions;
  std::vector<StateSample> trace;  // sampled at kSamplePeriodMs
  std::vector<fw::BugId> fired_bugs;
  sim::SimTimeMs duration_ms = 0;
  sim::CrashCause crash_cause = sim::CrashCause::kNone;
  // Checkpointing provenance: the sim time this run resumed from a recorded
  // prefix snapshot (0 = simulated from scratch). Wall-clock accounting
  // only — every observable field above is bit-identical either way, and
  // duration_ms stays the run's full logical duration.
  sim::SimTimeMs resumed_from_ms = 0;
  // Depth of the checkpoint the run resumed from: 0 = fault-free root (or
  // cold when resumed_from_ms == 0), d >= 1 = a tree snapshot with d
  // injections already activated. Wall-clock provenance like
  // resumed_from_ms; feeds the per-level hit counters in CheckerReport.
  int resumed_depth = 0;
  // Absorbing-tail provenance: the sim time from which the harness proved
  // the rest of the run absorbing (landed, disarmed, waiting out a workload
  // timeout or the grace period) and wrote the remaining samples directly
  // instead of stepping them; -1 = every millisecond was simulated.
  // Wall-clock telemetry like resumed_from_ms: the observable fields above
  // and duration_ms are bit-identical either way, and it is never part of
  // an outcome digest.
  sim::SimTimeMs fast_forwarded_from_ms = -1;

  bool unsafe() const { return violation.has_value(); }
};

}  // namespace avis::core
