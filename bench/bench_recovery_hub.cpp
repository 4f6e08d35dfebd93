// E21: closed-loop fleet recovery — diagnosis-driven actuation costs.
//
// E20 closed the observe->diagnose half; this bench prices the act half
// and shows what it buys:
//   (a) live actuation — N real publishers (spectrum streaming + a
//       seeded program fault each) against a hub with the
//       RecoveryOrchestrator enabled; measured: event throughput with
//       the act path hot, kRecover commands issued, SUO-side repairs,
//       and the command->ack wall round-trip sampled from the hub's
//       outstanding-command transitions;
//   (b) storm guard — a correlated fault across 32 slots against the
//       fleet-wide token bucket; measured: actions per refill window
//       (never above capacity), suppressions, quarantine tail;
//   (c) MTTR — the RecoveryCampaign table, closed loop vs the
//       supervision-only baseline (identical scenario stream, repairs
//       disabled): downtime per fault kind, repair rate, and
//       recovery precision against injector ground truth — for a
//       uniform draw and for the findings in the tracked fixture
//       tests/data/FUZZ_corpus.json.
// Everything lands in BENCH_recovery.json.
#include "bench_common.hpp"

#include <sys/stat.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "fleetdiag/aggregator.hpp"
#include "hub/agent.hpp"
#include "hub/hub.hpp"
#include "hub/recovery.hpp"
#include "ipc/wire.hpp"
#include "runtime/stats.hpp"
#include "testkit/diag_campaign.hpp"
#include "testkit/recovery_campaign.hpp"

namespace rt = trader::runtime;
namespace fd = trader::fleetdiag;
namespace hub = trader::hub;
namespace ipc = trader::ipc;
namespace rec = trader::recovery;
namespace tk = trader::testkit;
using trader::bench::Table;
using trader::bench::banner;
using trader::bench::fmt;
using trader::bench::fmt_int;

namespace {

std::string slot_name(std::size_t k) { return "tv" + std::to_string(k); }

/// The tracked findings fixture the tests replay (the output of
/// `fuzz_demo 2026 200`), resolved relative to this source file.
std::string corpus_path() {
  std::string dir(__FILE__);
  const auto slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);
  const std::string path = dir + "/../tests/data/FUZZ_corpus.json";
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && st.st_size > 0 ? path : "";
}

// ------------------------------------------------ (a) live actuation

struct LiveRun {
  std::size_t publishers = 0;
  double events_per_sec = 0.0;
  std::uint64_t commands = 0;       ///< kRecover frames issued (excl. retries).
  std::uint64_t retries = 0;
  std::uint64_t acked_ok = 0;
  std::uint64_t repairs = 0;        ///< SUO-side fault clears.
  std::uint64_t quarantined = 0;
  double ack_rtt_p50_ms = 0.0;      ///< Command->ack wall round-trip.
  double ack_rtt_p99_ms = 0.0;
};

LiveRun run_live(std::size_t publishers) {
  hub::HubConfig config;
  config.shards = publishers >= 8 ? 4 : 1;
  config.probe_liveness = false;
  // The orchestrator's cooldowns/refills are virtual-time; follow the
  // fleet's event watermarks so the ladder can climb mid-stream.
  config.auto_advance = true;
  config.diag.top_k = 10;
  config.diag.refresh_every = 1;
  config.recovery.enabled = true;
  config.recovery.stable_reports = 2;
  config.recovery.token_capacity = 8;
  config.recovery.token_refill_every = rt::msec(100);
  config.recovery.cooldown = rt::msec(100);
  config.recovery.cooldown_jitter = rt::msec(40);
  config.recovery.ack_timeout = rt::msec(500);
  config.recovery.escalation.failures_per_level = 1;
  hub::AwarenessHub awareness_hub(config);
  for (std::size_t k = 0; k < publishers; ++k) awareness_hub.add_slot(slot_name(k));
  awareness_hub.recovery().set_component_of(
      [](std::size_t block) { return "feature" + std::to_string(block % 8); });
  if (!awareness_hub.start()) return {};

  std::vector<std::thread> suos;
  std::vector<hub::PublisherStats> stats(publishers);
  suos.reserve(publishers);
  for (std::size_t k = 0; k < publishers; ++k) {
    hub::PublisherConfig pub;
    pub.hub_path = awareness_hub.path();
    pub.name = slot_name(k);
    pub.seed = 7 + k;
    pub.horizon = rt::msec(3000);
    pub.key_period = rt::msec(10);
    pub.pace_us = 2000;  // leave wall time for command round-trips
    pub.diag.enabled = true;
    pub.diag.program.total_blocks = 2000;
    pub.diag.program.feature_count = 8;
    pub.diag.fault_feature = k % 8;  // every SUO carries a (distinct) bug
    pub.diag.flush_steps = 8;
    suos.emplace_back([pub, &stats, k] { hub::run_hub_publisher(pub, &stats[k]); });
  }

  // Sample the command->ack wall round-trip from the hub's view: a slot
  // whose command goes outstanding starts a stopwatch, the transition
  // back (ack consumed or timed out) stops it. Poll granularity bounds
  // resolution, so pump with a short timeout while actuation is hot.
  rt::PercentileAccumulator rtt_ms;
  std::map<std::string, std::chrono::steady_clock::time_point> pending;
  const auto t_start = std::chrono::steady_clock::now();
  const auto deadline = t_start + std::chrono::seconds(60);
  while (awareness_hub.connection_count() > 0 ||
         awareness_hub.diagnosis().slot_count() == 0) {
    if (awareness_hub.poll(1) < 0) break;
    if (std::chrono::steady_clock::now() > deadline) break;
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < publishers; ++k) {
      const std::string name = slot_name(k);
      const bool outstanding = awareness_hub.recovery().has_outstanding(name);
      const auto it = pending.find(name);
      if (outstanding && it == pending.end()) {
        pending.emplace(name, now);
      } else if (!outstanding && it != pending.end()) {
        rtt_ms.add(std::chrono::duration<double, std::milli>(now - it->second).count());
        pending.erase(it);
      }
    }
  }
  const auto t_end = std::chrono::steady_clock::now();
  for (auto& t : suos) t.join();

  LiveRun run;
  run.publishers = publishers;
  const double wall_s = std::chrono::duration<double>(t_end - t_start).count();
  std::uint64_t events = 0;
  std::uint64_t repairs = 0;
  for (const auto& s : stats) {
    events += s.events_sent;
    repairs += s.recover_repairs;
  }
  run.events_per_sec = static_cast<double>(events) / wall_s;
  const hub::RecoveryStats rs = awareness_hub.recovery().stats();
  run.commands = rs.sent;
  run.retries = rs.retries;
  run.acked_ok = rs.acked_ok;
  run.repairs = repairs;
  run.quarantined = rs.quarantined;
  run.ack_rtt_p50_ms = rtt_ms.percentile(50.0);
  run.ack_rtt_p99_ms = rtt_ms.percentile(99.0);
  awareness_hub.stop();
  return run;
}

// ------------------------------------------------ (b) storm guard

struct StormRun {
  std::size_t slots = 0;
  int token_capacity = 0;
  std::uint64_t actions = 0;
  int max_window_actions = 0;   ///< Worst refill window; must be <= capacity.
  std::uint64_t suppressed_tokens = 0;
  std::uint64_t suppressed_cooldown = 0;
  std::size_t quarantined = 0;
  double tick_p99_us = 0.0;     ///< Orchestrator pass cost mid-storm.
};

StormRun run_storm(std::size_t slots) {
  fd::FleetAggregator agg(fd::AggregatorConfig{10, trader::diagnosis::Coefficient::kOchiai, 1});
  hub::RecoveryConfig cfg;
  cfg.enabled = true;
  cfg.stable_reports = 1;
  cfg.token_capacity = 4;
  cfg.token_refill_every = rt::msec(100);
  cfg.cooldown = rt::msec(200);
  cfg.cooldown_jitter = rt::msec(50);
  cfg.ack_timeout = rt::sec(60);  // acks come back instantly below
  cfg.flap_threshold = 2;
  cfg.escalation.failures_per_level = 1;
  hub::RecoveryOrchestrator orch(cfg, agg);
  orch.set_component_of([](std::size_t block) { return "comp" + std::to_string(block); });
  // Instant transport: every command is executed-but-ineffective, so
  // the correlated fault keeps every slot hungry until quarantine.
  std::vector<std::pair<std::string, ipc::Frame>> to_ack;
  orch.set_send([&](const std::string& slot, const ipc::Frame& f) {
    to_ack.emplace_back(slot, f);
    return true;
  });

  const auto correlated_feed = [&] {
    for (std::size_t k = 0; k < slots; ++k) {
      agg.ingest(slot_name(k),
                 std::vector<ipc::SpectrumStep>{{true, {42}}, {false, {43}}});
    }
  };
  for (std::size_t k = 0; k < slots; ++k) orch.slot_up(slot_name(k), ipc::kProtocolVersion);
  correlated_feed();
  orch.tick(0);  // baseline every candidate

  rt::PercentileAccumulator tick_us;
  for (int step = 1; step <= 400; ++step) {  // 4 s of 10 ms ticks
    correlated_feed();
    const auto t0 = std::chrono::steady_clock::now();
    orch.tick(rt::msec(10) * step);
    const auto t1 = std::chrono::steady_clock::now();
    tick_us.add(std::chrono::duration<double, std::micro>(t1 - t0).count());
    for (auto& [slot, frame] : to_ack) {
      ipc::Frame ack;
      ack.type = ipc::FrameType::kRecoverAck;
      ack.action = frame.action;
      ack.token = frame.token;
      ack.unit = frame.unit;
      ack.ok = false;  // the storm's fault does not yield
      orch.on_ack(slot, ack);
    }
    to_ack.clear();
  }

  StormRun run;
  run.slots = slots;
  run.token_capacity = cfg.token_capacity;
  std::map<rt::SimTime, int> per_window;
  for (const hub::RecoveryActionRecord& r : orch.actions()) {
    ++per_window[r.at / cfg.token_refill_every];
  }
  for (const auto& [window, count] : per_window) {
    if (count > run.max_window_actions) run.max_window_actions = count;
  }
  const hub::RecoveryStats rs = orch.stats();
  run.actions = rs.sent + rs.retries;
  run.suppressed_tokens = rs.suppressed_tokens;
  run.suppressed_cooldown = rs.suppressed_cooldown;
  run.quarantined = orch.quarantined_count();
  run.tick_p99_us = tick_us.percentile(99.0);
  return run;
}

// ------------------------------------------------ (c) MTTR + precision

void report() {
  banner("E21", "closed-loop fleet recovery: diagnosis-driven actuation");

  const std::vector<std::size_t> live_sweep{8, 32};
  std::vector<LiveRun> live;
  for (const std::size_t n : live_sweep) live.push_back(run_live(n));

  Table lt({"publishers", "events/sec", "commands", "retries", "acked ok", "repairs",
            "quarantined", "ack rtt p50 ms", "ack rtt p99 ms"});
  for (const auto& r : live) {
    lt.row({fmt_int(static_cast<std::int64_t>(r.publishers)), fmt(r.events_per_sec, 0),
            fmt_int(static_cast<std::int64_t>(r.commands)),
            fmt_int(static_cast<std::int64_t>(r.retries)),
            fmt_int(static_cast<std::int64_t>(r.acked_ok)),
            fmt_int(static_cast<std::int64_t>(r.repairs)),
            fmt_int(static_cast<std::int64_t>(r.quarantined)), fmt(r.ack_rtt_p50_ms, 2),
            fmt(r.ack_rtt_p99_ms, 2)});
  }
  lt.print();
  std::printf("actuation rides the same epoll loop as ingest: kRecover frames\n"
              "go out between spectra, acks come back with the event stream.\n\n");

  const StormRun storm = run_storm(32);
  Table st({"slots", "capacity", "actions", "max/window", "suppr tokens",
            "suppr cooldown", "quarantined", "tick p99 us"});
  st.row({fmt_int(static_cast<std::int64_t>(storm.slots)),
          fmt_int(storm.token_capacity), fmt_int(static_cast<std::int64_t>(storm.actions)),
          fmt_int(storm.max_window_actions),
          fmt_int(static_cast<std::int64_t>(storm.suppressed_tokens)),
          fmt_int(static_cast<std::int64_t>(storm.suppressed_cooldown)),
          fmt_int(static_cast<std::int64_t>(storm.quarantined)), fmt(storm.tick_p99_us, 1)});
  st.print();
  std::printf("a correlated fault across %zu slots never outruns the bucket:\n"
              "at most %d actions per refill window, flapping slots quarantine.\n\n",
              storm.slots, storm.token_capacity);

  // MTTR: identical scenario stream, orchestrator on vs off.
  tk::RecoveryCampaignConfig campaign_cfg;
  campaign_cfg.scenarios = 12;
  tk::RecoveryCampaign closed(campaign_cfg);
  const tk::RecoveryCampaignReport with = closed.run();
  tk::RecoveryCampaignConfig base_cfg = campaign_cfg;
  base_cfg.orchestrate = false;
  const tk::RecoveryCampaignReport without = tk::RecoveryCampaign(base_cfg).run();

  Table mt({"arm", "scored", "repaired", "censored", "precision", "mean downtime ms"});
  mt.row({"closed loop", fmt_int(static_cast<std::int64_t>(with.scored)),
          fmt_int(static_cast<std::int64_t>(with.repaired)),
          fmt_int(static_cast<std::int64_t>(with.censored)), fmt(with.precision(), 2),
          fmt(with.mean_downtime_ms, 0)});
  mt.row({"supervision only", fmt_int(static_cast<std::int64_t>(without.scored)),
          fmt_int(static_cast<std::int64_t>(without.repaired)),
          fmt_int(static_cast<std::int64_t>(without.censored)), fmt(without.precision(), 2),
          fmt(without.mean_downtime_ms, 0)});
  mt.print();
  std::printf("faults are persistent: without actuation every downtime is\n"
              "right-censored at the horizon. The closed loop repairs what the\n"
              "diagnosis converged on and MTTR drops accordingly.\n\n");

  // The fuzzer's minimized findings — detection's hardest scenarios —
  // padded with observation time for the loop to converge in.
  tk::RecoveryCampaignReport findings;
  const std::string corpus = corpus_path();
  if (!corpus.empty()) {
    std::vector<tk::LabeledScenario> extended = tk::load_findings(corpus);
    for (tk::LabeledScenario& entry : extended) {
      entry.script =
          tk::extend_for_recovery(entry.script, rt::msec(2000), campaign_cfg.draw.cadence);
    }
    findings = closed.run(extended);
    std::printf("fuzz findings: %zu scenarios, %zu scored, %zu repaired, precision %.2f\n",
                findings.scenarios, findings.scored, findings.repaired,
                findings.precision());
  } else {
    std::printf("fuzz findings: tests/data/FUZZ_corpus.json not found, skipping\n");
  }

  std::ofstream json("BENCH_recovery.json");
  json << "{\n  \"experiment\": \"bench_recovery_hub\",\n";
  json << "  \"live\": [\n";
  for (std::size_t i = 0; i < live.size(); ++i) {
    json << "    {\"publishers\": " << live[i].publishers
         << ", \"events_per_sec\": " << fmt(live[i].events_per_sec, 0)
         << ", \"commands\": " << live[i].commands << ", \"retries\": " << live[i].retries
         << ", \"acked_ok\": " << live[i].acked_ok << ", \"repairs\": " << live[i].repairs
         << ", \"quarantined\": " << live[i].quarantined
         << ", \"ack_rtt_p50_ms\": " << fmt(live[i].ack_rtt_p50_ms, 2)
         << ", \"ack_rtt_p99_ms\": " << fmt(live[i].ack_rtt_p99_ms, 2) << "}"
         << (i + 1 < live.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"storm\": {\"slots\": " << storm.slots
       << ", \"token_capacity\": " << storm.token_capacity
       << ", \"actions\": " << storm.actions
       << ", \"max_window_actions\": " << storm.max_window_actions
       << ", \"suppressed_tokens\": " << storm.suppressed_tokens
       << ", \"suppressed_cooldown\": " << storm.suppressed_cooldown
       << ", \"quarantined\": " << storm.quarantined
       << ", \"tick_p99_us\": " << fmt(storm.tick_p99_us, 2) << "},\n";
  json << "  \"campaign\": {\"closed\": " << with.to_json()
       << ",\n    \"baseline\": " << without.to_json() << "},\n";
  json << "  \"findings\": " << (corpus.empty() ? std::string("null") : findings.to_json())
       << "\n}\n";
  std::printf("wrote BENCH_recovery.json (live actuation + storm guard + MTTR)\n");
}

// ------------------------------------------------------- microbenchmarks

void BM_OrchestratorTickQuietFleet(benchmark::State& state) {
  // Steady-state cost of the actuation pass when nothing is wrong —
  // the price every poll pays once recovery is on.
  fd::FleetAggregator agg(fd::AggregatorConfig{10, trader::diagnosis::Coefficient::kOchiai, 8});
  hub::RecoveryConfig cfg;
  cfg.enabled = true;
  hub::RecoveryOrchestrator orch(cfg, agg);
  orch.set_send([](const std::string&, const ipc::Frame&) { return true; });
  for (int k = 0; k < 64; ++k) {
    orch.slot_up(slot_name(static_cast<std::size_t>(k)), ipc::kProtocolVersion);
    agg.ingest(slot_name(static_cast<std::size_t>(k)),
               std::vector<ipc::SpectrumStep>{{false, {7}}});
  }
  rt::SimTime now = 0;
  for (auto _ : state) {
    now += rt::msec(10);
    orch.tick(now);
  }
}
BENCHMARK(BM_OrchestratorTickQuietFleet);

void BM_RecoverFrameRoundtrip(benchmark::State& state) {
  // Wire cost of one kRecover command: encode + streaming decode.
  ipc::Frame f;
  f.type = ipc::FrameType::kRecover;
  f.seq = 9;
  f.time = rt::msec(120);
  f.action = static_cast<std::uint8_t>(rec::RecoveryAction::kRestartUnit);
  f.token = 0xfeedfacecafeULL;
  f.block = 4711;
  f.unit = "feature3";
  ipc::FrameDecoder decoder;
  ipc::Frame out;
  for (auto _ : state) {
    const std::vector<std::uint8_t> bytes = ipc::encode_frame(f);
    decoder.feed(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(decoder.next(out));
  }
}
BENCHMARK(BM_RecoverFrameRoundtrip);

}  // namespace

TRADER_BENCH_MAIN(report)
