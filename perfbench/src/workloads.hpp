// The two workloads of the repo benchmark. Each builds its inputs
// from the seed, drives the program through its public API, checks the
// outputs and returns its metrics; a failed check throws CheckFailure.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

Result run_tv_events(const Options& opt);
Result run_hub_restart(const Options& opt);

/// Fresh abstract-namespace listener path for one hub instance.
std::string hub_path();
std::string slot_name(std::size_t k);

/// Per-layer metrics every traced run prints; a workload that bypasses
/// a layer reports 0 for it (that layer did no work).
const std::vector<std::pair<std::string, std::string>>& layer_metric_names();

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;
/// Windows for rates and CPU costs (see Marks). A traced run records
/// spans in the even windows only, so it is even.
inline constexpr std::size_t kWindows = 10;
/// The tail quantile reported as latency_tail_ms (README.md explains
/// why not p99).
inline constexpr double kTailQ = 0.90;

}  // namespace perfbench
