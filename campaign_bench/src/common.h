// Shared pieces of the campaign benchmark: the three workload grids, the
// worker budget, the per-cell outcome digest, CPU clocks, and a minimal JSON
// writer for the results campaign_bench/run.py reads.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/coverage.h"
#include "core/scenario.h"
#include "util/json.h"

namespace avis::bench {

// At most min(4, nproc) worker threads in one process: the campaign's total
// worker budget, split between the cell pool and each cell's experiment pool
// by CampaignRunner exactly as avis_campaign splits it.
inline int bench_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

inline core::CampaignOptions bench_campaign_options() {
  core::CampaignOptions options;
  options.total_workers = bench_workers();
  return options;
}

// The benchmark's workloads. Every cell flies the calm environment with the
// `current` bug population; `seed` is the checker seed and seed + 7 the
// strategy seed (the ScenarioGrid derivation), so seed 100 is the paper grid.
inline core::ScenarioGrid workload_grid(std::string_view name, std::uint64_t seed,
                                        sim::SimTimeMs budget_ms) {
  core::ScenarioGrid grid;
  if (name == "paper-grid") {
    grid.approaches = {"avis"};
    grid.personalities = {"ardupilot", "px4"};
    grid.workloads = {"box-manual", "fence-mission"};
  } else if (name == "one-cell-wide") {
    grid.approaches = {"avis"};
    grid.personalities = {"ardupilot"};
    grid.workloads = {"fence-mission"};
  } else if (name == "baselines-grid") {
    grid.approaches = {"random", "stratified-bfi", "bfi"};
    grid.personalities = {"ardupilot", "px4"};
    grid.workloads = {"box-manual", "fence-mission"};
  } else {
    throw std::invalid_argument("unknown workload: " + std::string(name));
  }
  grid.environments = {"calm"};
  grid.bugs = "current";
  grid.budget_ms = budget_ms;
  grid.seed = seed;
  grid.strategy_seed = seed + 7;
  grid.validate();
  return grid;
}

// "avis/ardupilot/fence-mission": a cell's stable name in results and in the
// stored digests.
inline std::string cell_name(const core::ScenarioSpec& s) {
  return s.approach + "/" + s.personality + "/" + s.workload;
}

// The outcome a cell must reproduce: experiments, unsafe count, bug first
// found, edge-coverage keys and stalled runs. Wall clock and checkpoint_*
// counters are telemetry and stay out.
inline std::string outcome_text(const core::CheckerReport& r) {
  std::ostringstream os;
  os << "experiments=" << r.experiments << ";unsafe=" << r.unsafe_count()
     << ";stalled=" << r.stalled_runs << ";bug_first_found=";
  for (const auto& [bug, index] : r.bug_first_found) {
    os << static_cast<int>(bug) << ':' << index << ',';
  }
  os << ";coverage_keys=";
  for (const auto& [key, count] : r.edge_coverage) os << core::coverage_key_string(key) << ',';
  return os.str();
}

// 64-bit FNV-1a of outcome_text, as 16 hex digits.
inline std::string outcome_digest(const core::CheckerReport& r) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : outcome_text(r)) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// Simulated milliseconds the cell's experiments charged: the budget used
// minus the BFI model labels charged while proposing.
inline sim::SimTimeMs charged_experiment_ms(const core::CheckerReport& r) {
  return r.budget_used_ms - static_cast<sim::SimTimeMs>(r.labels) * core::BudgetClock::kLabelCostMs;
}

// Restores from a tree snapshot (depth >= 1), as opposed to the root.
inline int tree_hits(const core::CheckerReport& r) {
  int hits = 0;
  for (std::size_t level = 1; level < r.checkpoint_hits_by_level.size(); ++level) {
    hits += r.checkpoint_hits_by_level[level];
  }
  return hits;
}

inline double wall_now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User + system CPU of the whole process.
inline double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

// CPU of the calling thread only.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Flat JSON object writer: keys in insertion order, one line.
class JsonLine {
 public:
  JsonLine& raw(std::string_view key, std::string_view json) {
    p_key(key);
    os_ << json;
    return *this;
  }
  JsonLine& str(std::string_view key, std::string_view value) {
    p_key(key);
    os_ << '"' << util::json_escape(value) << '"';
    return *this;
  }
  JsonLine& num(std::string_view key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    return raw(key, buf);
  }
  JsonLine& num(std::string_view key, std::int64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonLine& num(std::string_view key, int value) {
    return num(key, static_cast<std::int64_t>(value));
  }
  JsonLine& boolean(std::string_view key, bool value) { return raw(key, value ? "true" : "false"); }
  std::string done() const { return os_.str() + "}"; }

 private:
  void p_key(std::string_view key) {
    os_ << (first_ ? "{" : ", ") << '"' << key << "\": ";
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

inline std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) out += (i ? ", " : "") + items[i];
  return out + "]";
}

}  // namespace avis::bench
