// Deterministic fault-injection campaign harness.
//
// The paper's core claim is that run-time awareness detects, diagnoses
// and recovers from injected faults; a campaign makes that claim
// measurable end to end. A CampaignRunner sweeps seeded scenarios
// (fault kind x target x timing x intensity drawn from runtime::Rng),
// executes each through a real awareness backend — a single-scheduler
// monitor fleet or a ShardedFleet at any shard count — and
// cross-references FaultInjector ground truth against comparator error
// reports to score per-scenario verdicts, detection latency and
// recovery success, plus an aggregate JSON report.
//
// Verdict taxonomy (per scenario):
//   detected       fault manifested and >= 1 error on the target aspect
//   missed         fault manifested, no error on the target aspect
//   false-positive no manifestation, yet errors were reported
//   true-negative  no manifestation, no errors (clean pass)
// Off-target errors during a manifested fault do not change the
// verdict but are tallied separately (errors_off_target).
//
// Everything is virtual-time deterministic: the same CampaignConfig
// produces a byte-identical JSON report and golden trace on every run,
// at every shard count — which is what turns "the fleet is
// deterministic" from a bespoke test loop into a one-line assertion.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "faults/fault.hpp"
#include "recovery/escalation.hpp"
#include "runtime/sim_time.hpp"
#include "testkit/golden_trace.hpp"
#include "testkit/scenario.hpp"

namespace trader::statemachine {
class ModelProgram;
}

namespace trader::testkit {

enum class Verdict : std::uint8_t { kTrueNegative, kDetected, kMissed, kFalsePositive };

const char* to_string(Verdict v);

/// Pure verdict classification — the cross-reference of ground truth
/// (did the fault manifest?) with the detector view (errors on/off the
/// target aspect).
Verdict classify_verdict(bool manifested, std::size_t errors_on_target,
                         std::size_t errors_off_target);

/// Transport between the scripted SUO and the monitors (src/hub).
enum class IpcMode : std::uint8_t {
  kOff,  ///< Events go straight onto the backend bus (no IPC).
  kHub,  ///< AwarenessHub epoll loop: one AF_UNIX connection per
         ///< aspect into one event loop feeding a sharded fleet.
};

/// Canonical backend name, read from the backend registry — the same
/// string for every consumer (campaign JSON, bench emitters, logs).
const char* to_string(IpcMode m);

/// How one scenario is executed.
struct ExecutorConfig {
  /// Which model-stepping kernel backs the scripted monitors.
  enum class ModelEngine : std::uint8_t {
    kBatched,      ///< Shared ModelProgram, arena-batched executor (production).
    kInterpreted,  ///< Legacy per-monitor interpreting executor.
  };
  /// 0 = single-scheduler MonitorFleet backend; N >= 1 = ShardedFleet.
  std::size_t shards = 0;
  /// Epoch grid (both backends deliver external events on it).
  runtime::SimDuration epoch = runtime::msec(10);
  /// Master seed for the sharded backend's per-shard Rngs.
  std::uint64_t seed = 0x5eed;
  runtime::SimDuration comparison_period = runtime::msec(10);
  runtime::SimDuration startup_grace = runtime::msec(5);
  int max_consecutive = 2;
  recovery::EscalationConfig escalation;
  /// Push every SUO event through the wire protocol over a real socket:
  /// kHub multiplexes one connection per aspect through the epoll hub
  /// into a ShardedFleet (`shards` counts, 0 = 1). Verdicts and golden
  /// traces stay identical to IpcMode::kOff because events carry
  /// virtual timestamps and each one is pumped through the socket
  /// synchronously.
  IpcMode ipc = IpcMode::kOff;
  /// Model kernel. The batched executor is the default; the legacy
  /// interpreter remains selectable so the differential tests can pin
  /// both kernels to one golden trace.
  ModelEngine engine = ModelEngine::kBatched;
  /// Kill-and-restart window: the SUO link drops at suo_down_at and a
  /// restarted SUO is reconnected at suo_up_at (virtual time; both -1 =
  /// no outage). Commands inside the window reach nobody; comparators
  /// are quiesced through the link gate; the outage is traced once.
  /// Honored on every backend — the in-process fleets gate a virtual
  /// link so outage scenarios fingerprint identically across IpcModes.
  /// A ScenarioScript::outage window overrides this executor-level one.
  runtime::SimTime suo_down_at = -1;
  runtime::SimTime suo_up_at = -1;
};

const char* to_string(ExecutorConfig::ModelEngine e);

/// One-line config echo shared by campaign JSON reports and bench
/// emitters: "single" / "sharded(N)", "+ipc-<mode>" when a wire is in
/// the path, "+interpreted" when the legacy interpreter is selected.
std::string backend_label(const ExecutorConfig& config);

/// Outcome of one scenario run. Scripts may plan several (possibly
/// overlapping) faults: "on target" means on ANY planned fault's target
/// aspect, which reduces to the classic single-target reading for
/// one-fault scripts and stays coherent for the fuzzer's composed ones.
struct ScenarioResult {
  std::string name;
  faults::FaultSpec fault;  ///< First planned fault (meaningless when !fault_planned).
  bool fault_planned = false;
  bool fault_manifested = false;
  /// A fault of a campaign_detectable kind manifested — the scenarios
  /// the detection-floor rate is computed over.
  bool detectable_manifested = false;
  std::size_t errors_on_target = 0;
  std::size_t errors_off_target = 0;
  Verdict verdict = Verdict::kTrueNegative;
  runtime::SimTime first_manifestation = -1;
  runtime::SimTime first_detection = -1;
  runtime::SimDuration detection_latency = -1;  ///< -1 when not detected.
  bool recovered = false;
  bool gave_up = false;  ///< Escalation exhausted during the scenario.
  std::size_t link_outages = 0;  ///< SUO link down/up cycles.
  std::vector<recovery::RecoveryAction> actions;  ///< Ladder actions taken.
  GoldenTrace trace;
};

/// Replays one ScenarioScript through an awareness backend and scores
/// it. Reusable: each run() builds a fresh backend, so one executor can
/// replay a whole campaign.
class ScenarioExecutor {
 public:
  explicit ScenarioExecutor(ExecutorConfig config = {});

  ScenarioResult run(const ScenarioScript& script);

  const ExecutorConfig& config() const { return config_; }

 private:
  ExecutorConfig config_;
  /// The scripted counter spec, compiled once and shared by every
  /// aspect of every scenario this executor replays (batched engine).
  std::shared_ptr<const statemachine::ModelProgram> counter_program_;
};

/// A whole campaign: generator parameters plus executor parameters.
struct CampaignConfig {
  std::uint64_t seed = 2026;
  std::size_t scenarios = 50;
  ScenarioDraw draw;
  ExecutorConfig executor;
};

/// Per-fault-kind aggregate row of the campaign report.
struct KindStats {
  std::size_t scenarios = 0;
  std::size_t detected = 0;
  std::size_t missed = 0;
  std::size_t false_positive = 0;
  std::size_t true_negative = 0;
  std::size_t recovered = 0;
  runtime::SimDuration latency_sum = 0;  ///< Over detected scenarios.

  double detection_rate() const {
    const std::size_t manifested = detected + missed;
    return manifested == 0 ? 0.0
                           : static_cast<double>(detected) / static_cast<double>(manifested);
  }
  runtime::SimDuration mean_latency() const {
    return detected == 0 ? -1 : latency_sum / static_cast<runtime::SimDuration>(detected);
  }
};

/// Aggregate campaign outcome.
struct CampaignReport {
  CampaignConfig config;
  std::vector<ScenarioResult> results;
  std::map<std::string, KindStats> by_kind;  ///< Keyed by fault-kind name; "none" = clean.

  std::size_t count(Verdict v) const;
  /// Detection rate over manifested scenarios of detectable kinds only.
  double detection_rate_detectable() const;
  /// Combined golden trace: every scenario's lines, scenario-prefixed,
  /// plus per-scenario verdict lines. One fingerprint for the campaign.
  GoldenTrace golden_trace() const;

  /// Canonical JSON document: stable key order, integers and fixed
  /// 4-decimal rates only — byte-identical across runs and backends.
  std::string to_json() const;
};

/// Generates scenarios from the seed and executes them in order.
class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig config = {});

  CampaignReport run();

 private:
  CampaignConfig config_;
};

}  // namespace trader::testkit
