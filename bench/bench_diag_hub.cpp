// E20: fleet-level online diagnosis — spectra through the hub loop.
//
// E17 showed one epoll loop carries a fleet's event stream; this bench
// asks what adding the observe->diagnose loop costs and what it buys:
//   (a) ingest sweep — N real publishers (run_hub_publisher, spectrum
//       streaming enabled) drive events AND kSpectrum frames into one
//       hub; measured: event + spectrum-step throughput and the wall
//       latency of live ranking queries (cached top-k vs fresh report)
//       sampled from the operator's side while ingest is hot;
//   (b) staleness — the hub runs refresh_every = 8, so a cached top-k
//       is at most 7 reports stale; refreshes and ranking churn are
//       reported to show convergence;
//   (c) accuracy — the DiagnosisCampaign table: rank of the *known*
//       seeded fault block per fault kind, for a uniform scenario draw
//       and for the minimized fuzz findings the repo ships
//       (tests/data/FUZZ_corpus.json), i.e. exactly the scenarios where
//       detection once failed.
// Everything lands in BENCH_fleetdiag.json.
#include "bench_common.hpp"

#include <sys/stat.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fleetdiag/aggregator.hpp"
#include "fleetdiag/reporter.hpp"
#include "hub/agent.hpp"
#include "hub/hub.hpp"
#include "ipc/wire.hpp"
#include "runtime/rng.hpp"
#include "runtime/stats.hpp"
#include "testkit/diag_campaign.hpp"

namespace rt = trader::runtime;
namespace fd = trader::fleetdiag;
namespace hub = trader::hub;
namespace ipc = trader::ipc;
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

struct SweepRun {
  std::size_t publishers = 0;
  double events_per_sec = 0.0;
  double steps_per_sec = 0.0;
  std::uint64_t spectrum_frames = 0;
  double cached_query_p99_us = 0.0;  ///< top_suspects (bounded, cached).
  double fresh_report_p99_us = 0.0;  ///< full fresh ranking.
  std::uint64_t refreshes = 0;
  std::uint64_t churn = 0;
};

SweepRun run_sweep(std::size_t publishers) {
  hub::HubConfig config;
  config.shards = publishers >= 8 ? 4 : 1;
  config.probe_liveness = false;
  config.diag.top_k = 10;
  config.diag.refresh_every = 8;  // staleness bound: 7 reports
  hub::AwarenessHub awareness_hub(config);
  for (std::size_t k = 0; k < publishers; ++k) awareness_hub.add_slot(slot_name(k));
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
    pub.key_period = rt::msec(10);  // 300 instrumented steps per SUO
    pub.diag.enabled = true;
    pub.diag.program.total_blocks = 2000;
    pub.diag.program.feature_count = 8;
    pub.diag.fault_feature = k % 8;  // every SUO carries a (distinct) bug
    pub.diag.flush_steps = 8;
    suos.emplace_back([pub, &stats, k] { hub::run_hub_publisher(pub, &stats[k]); });
  }

  // Pump the loop to completion, sampling live ranking queries the way
  // an operator dashboard would — against the hot mutex, mid-ingest.
  rt::PercentileAccumulator cached_us;
  rt::PercentileAccumulator fresh_us;
  const auto t_start = std::chrono::steady_clock::now();
  std::uint64_t polls = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (awareness_hub.connection_count() > 0 || awareness_hub.diagnosis().slot_count() == 0) {
    if (awareness_hub.poll(10) < 0) break;
    if (std::chrono::steady_clock::now() > deadline) break;
    if (++polls % 16 == 0) {
      const auto q0 = std::chrono::steady_clock::now();
      (void)awareness_hub.diagnosis().fleet_top_suspects();
      const auto q1 = std::chrono::steady_clock::now();
      (void)awareness_hub.diagnosis().report(slot_name(polls % publishers));
      const auto q2 = std::chrono::steady_clock::now();
      cached_us.add(std::chrono::duration<double, std::micro>(q1 - q0).count());
      fresh_us.add(std::chrono::duration<double, std::micro>(q2 - q1).count());
    }
  }
  const auto t_end = std::chrono::steady_clock::now();
  for (auto& t : suos) t.join();

  SweepRun run;
  run.publishers = publishers;
  const double wall_s = std::chrono::duration<double>(t_end - t_start).count();
  std::uint64_t events = 0;
  for (const auto& s : stats) events += s.events_sent;
  run.events_per_sec = static_cast<double>(events) / wall_s;
  run.steps_per_sec =
      static_cast<double>(awareness_hub.diagnosis().steps_ingested()) / wall_s;
  run.spectrum_frames = awareness_hub.metrics().counter("hub.spectra_frames");
  run.cached_query_p99_us = cached_us.percentile(99.0);
  run.fresh_report_p99_us = fresh_us.percentile(99.0);
  run.refreshes = awareness_hub.metrics().counter("hub.diag.refreshes");
  run.churn = awareness_hub.diagnosis().ranking_churn();
  awareness_hub.stop();
  return run;
}

void report() {
  banner("E20", "online diagnosis: spectra through the hub loop");

  const std::vector<std::size_t> sweep{1, 8, 32};
  std::vector<SweepRun> runs;
  for (const std::size_t n : sweep) runs.push_back(run_sweep(n));

  Table t({"publishers", "events/sec", "steps/sec", "spectrum frames", "cached q p99 us",
           "fresh report p99 us", "refreshes", "churn"});
  for (const auto& r : runs) {
    t.row({fmt_int(static_cast<std::int64_t>(r.publishers)), fmt(r.events_per_sec, 0),
           fmt(r.steps_per_sec, 0), fmt_int(static_cast<std::int64_t>(r.spectrum_frames)),
           fmt(r.cached_query_p99_us, 1), fmt(r.fresh_report_p99_us, 1),
           fmt_int(static_cast<std::int64_t>(r.refreshes)),
           fmt_int(static_cast<std::int64_t>(r.churn))});
  }
  t.print();
  std::printf("spectrum ingest rides the event loop: O(touched) folds keep the\n"
              "hub's diagnosis current at wire rate, cached top-k queries stay\n"
              "microseconds while fresh full rankings pay the per-block scan.\n\n");

  // Diagnosis accuracy: uniform scenario draw + the shipped fuzz
  // findings, scored against injector ground truth per fault kind.
  tk::DiagCampaignConfig campaign_cfg;
  campaign_cfg.scenarios = 48;
  campaign_cfg.draw.aspects = 4;
  campaign_cfg.program.total_blocks = 1500;
  tk::DiagnosisCampaign campaign(campaign_cfg);
  const auto drawn = campaign.run();
  std::printf("uniform draw: %zu scenarios, %zu scored, top-%zu rate %.2f\n",
              drawn.scenarios, drawn.scored, campaign_cfg.top_k, drawn.top_k_rate());

  tk::DiagCampaignReport findings;
  const std::string corpus = corpus_path();
  if (!corpus.empty()) {
    findings = campaign.run(tk::load_findings(corpus));
    std::printf("fuzz findings: %zu scenarios, %zu scored, top-%zu rate %.2f\n",
                findings.scenarios, findings.scored, campaign_cfg.top_k,
                findings.top_k_rate());
  } else {
    std::printf("fuzz findings: tests/data/FUZZ_corpus.json not found, skipping\n");
  }

  std::ofstream json("BENCH_fleetdiag.json");
  json << "{\n  \"experiment\": \"bench_diag_hub\",\n";
  json << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    json << "    {\"publishers\": " << runs[i].publishers
         << ", \"events_per_sec\": " << fmt(runs[i].events_per_sec, 0)
         << ", \"spectrum_steps_per_sec\": " << fmt(runs[i].steps_per_sec, 0)
         << ", \"spectrum_frames\": " << runs[i].spectrum_frames
         << ", \"cached_query_p99_us\": " << fmt(runs[i].cached_query_p99_us, 2)
         << ", \"fresh_report_p99_us\": " << fmt(runs[i].fresh_report_p99_us, 2)
         << ", \"refresh_every\": 8"
         << ", \"refreshes\": " << runs[i].refreshes << ", \"churn\": " << runs[i].churn
         << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"campaign\": " << drawn.to_json() << ",\n";
  json << "  \"findings\": " << (corpus.empty() ? std::string("null") : findings.to_json())
       << "\n}\n";
  std::printf("wrote BENCH_fleetdiag.json (ingest sweep + per-kind accuracy table)\n");
}

// ------------------------------------------------------- microbenchmarks

void BM_AggregatorIngest(benchmark::State& state) {
  fd::FleetAggregator agg(fd::AggregatorConfig{10, trader::diagnosis::Coefficient::kOchiai, 8});
  std::vector<ipc::SpectrumStep> steps;
  std::vector<std::uint32_t> blocks;
  for (std::uint32_t b = 0; b < 32; ++b) blocks.push_back(b * 7);
  steps.push_back({false, blocks});
  std::uint64_t i = 0;
  for (auto _ : state) {
    steps[0].error = (++i % 5) == 0;
    agg.ingest("suo", steps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_AggregatorIngest);

void BM_AggregatorTopSuspects(benchmark::State& state) {
  fd::FleetAggregator agg(fd::AggregatorConfig{10, trader::diagnosis::Coefficient::kOchiai, 1});
  rt::Rng rng(5);
  for (int s = 0; s < 512; ++s) {
    std::vector<std::uint32_t> blocks;
    for (std::uint32_t b = 0; b < 4096; ++b) {
      if (rng.bernoulli(0.05)) blocks.push_back(b);
    }
    agg.ingest("suo", {ipc::SpectrumStep{rng.bernoulli(0.2), blocks}});
  }
  for (auto _ : state) benchmark::DoNotOptimize(agg.top_suspects("suo"));
}
BENCHMARK(BM_AggregatorTopSuspects);

void BM_ReporterFlushFrame(benchmark::State& state) {
  fd::ReporterConfig config;
  config.block_count = 4096;
  fd::SpectrumReporter reporter(config);
  std::vector<std::uint32_t> blocks;
  for (std::uint32_t b = 0; b < 64; ++b) blocks.push_back(b * 11);
  std::uint32_t seq = 0;
  for (auto _ : state) {
    for (int s = 0; s < 8; ++s) reporter.add_step(std::vector<std::uint32_t>(blocks), s == 0);
    benchmark::DoNotOptimize(reporter.flush(seq));
  }
}
BENCHMARK(BM_ReporterFlushFrame);

}  // namespace

TRADER_BENCH_MAIN(report)
