// Tests for src/fleetdiag: the SpectrumReporter (chunked kSpectrum
// flushes, oversize-step policy), the FleetAggregator (online/offline
// equivalence after every streamed prefix, cached-top-k staleness and
// churn accounting, slot lifecycle), the hub integration over real
// AF_UNIX sockets at 1/2/4 shards (byte-identical rankings, spectra
// persisting across reconnects, retirement on permanent slot failure),
// the publisher-side streaming gated on the negotiated version, the
// 4-thread concurrent ingest-vs-query harness (FleetDiagConcurrency.*,
// run under TSan by scripts/check.sh), and the diagnosis-accuracy
// campaign replaying the shipped fuzz findings corpus.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "diagnosis/incremental.hpp"
#include "diagnosis/spectrum.hpp"
#include "diagnosis/synthetic_program.hpp"
#include "fleetdiag/aggregator.hpp"
#include "fleetdiag/reporter.hpp"
#include "gtest/gtest.h"
#include "hub/agent.hpp"
#include "hub/hub.hpp"
#include "ipc/transport.hpp"
#include "ipc/wire.hpp"
#include "observation/coverage.hpp"
#include "runtime/rng.hpp"
#include "testkit/diag_campaign.hpp"
#include "testkit/fuzz.hpp"

namespace rt = trader::runtime;
namespace diag = trader::diagnosis;
namespace fd = trader::fleetdiag;
namespace hub = trader::hub;
namespace ipc = trader::ipc;
namespace obs = trader::observation;
namespace tk = trader::testkit;

namespace {

template <typename Pred>
bool pump_until(hub::AwarenessHub& awareness_hub, Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    if (awareness_hub.poll(10) < 0) return false;
  }
  return true;
}

/// Connect + kHello handshake against a hub pumped from this thread.
ipc::FrameType handshake(hub::AwarenessHub& awareness_hub, ipc::FramedSocket& sock,
                         const std::string& slot) {
  const int fd = ipc::connect_unix_retry(awareness_hub.path(), 2000);
  if (fd < 0) return ipc::FrameType::kShutdown;
  sock = ipc::FramedSocket(fd);
  ipc::Frame hello;
  hello.type = ipc::FrameType::kHello;
  hello.detail = slot;
  if (!sock.send(hello)) return ipc::FrameType::kShutdown;
  ipc::Frame ack;
  while (true) {
    const auto st = sock.recv(ack, 0);
    if (st == ipc::FramedSocket::RecvStatus::kFrame) return ack.type;
    if (st != ipc::FramedSocket::RecvStatus::kTimeout) return ipc::FrameType::kShutdown;
    if (awareness_hub.poll(10) < 0) return ipc::FrameType::kShutdown;
  }
}

void expect_reports_equal(const diag::DiagnosisReport& a, const diag::DiagnosisReport& b,
                          const std::string& what) {
  ASSERT_EQ(a.blocks_considered, b.blocks_considered) << what;
  ASSERT_EQ(a.ranking.size(), b.ranking.size()) << what;
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    ASSERT_EQ(a.ranking[i].block, b.ranking[i].block) << what << " rank " << i;
    ASSERT_EQ(a.ranking[i].score, b.ranking[i].score) << what << " rank " << i;  // bit-identical
  }
}

/// The tracked findings fixture (tests/data/FUZZ_corpus.json, the output
/// of `fuzz_demo 2026 200`), resolved relative to this source file only,
/// so a FUZZ_corpus.json left in the working directory is never read.
std::string corpus_path() {
  std::string dir(__FILE__);
  const auto slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);
  const std::string path = dir + "/data/FUZZ_corpus.json";
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && st.st_size > 0 ? path : "";
}

}  // namespace

// ============================================================== reporter

TEST(FleetDiagReporter, FlushChunksStepsIntoBudgetedFrames) {
  fd::ReporterConfig config;
  config.block_count = 100;
  config.frame_budget = 128;  // fits two 10-block steps, not three
  config.flush_steps = 0;
  fd::SpectrumReporter reporter(config);

  std::vector<ipc::SpectrumStep> sent;
  for (std::uint32_t s = 0; s < 5; ++s) {
    std::vector<std::uint32_t> blocks;
    for (std::uint32_t b = 0; b < 10; ++b) blocks.push_back(s * 10 + b);
    sent.push_back({s % 2 == 1, blocks});
    reporter.add_step(std::move(blocks), s % 2 == 1);
  }
  EXPECT_EQ(reporter.pending_steps(), 5u);

  std::uint32_t seq = 7;
  const auto frames = reporter.flush(seq, rt::msec(10));
  EXPECT_EQ(frames.size(), 3u) << "2 + 2 + 1 steps under a 128-byte budget";
  EXPECT_EQ(reporter.pending_steps(), 0u);
  EXPECT_EQ(reporter.frames_emitted(), 3u);
  EXPECT_EQ(reporter.steps_reported(), 5u);

  // Streams reassemble in order, frames respect the budget, every frame
  // survives a real encode + decode round trip.
  std::vector<ipc::SpectrumStep> reassembled;
  std::uint32_t last_seq = 7;
  for (const ipc::Frame& f : frames) {
    EXPECT_EQ(f.type, ipc::FrameType::kSpectrum);
    EXPECT_EQ(f.block_count, 100u);
    EXPECT_EQ(f.seq, last_seq + 1);
    last_seq = f.seq;
    const auto bytes = ipc::encode_frame(f);
    ASSERT_FALSE(bytes.empty());
    EXPECT_LE(bytes.size() - ipc::kHeaderSize, config.frame_budget);
    ipc::FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    ipc::Frame decoded;
    ASSERT_EQ(decoder.next(decoded), ipc::DecodeStatus::kOk);
    for (const auto& step : decoded.spectra) reassembled.push_back(step);
  }
  ASSERT_EQ(reassembled.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) EXPECT_EQ(reassembled[i], sent[i]);
}

TEST(FleetDiagReporter, OversizeStepDroppedNotTorn) {
  fd::ReporterConfig config;
  config.block_count = 100;
  config.frame_budget = 32;  // too small for a 10-id step (45 + 8 bytes)
  fd::SpectrumReporter reporter(config);

  std::vector<std::uint32_t> wide;
  for (std::uint32_t b = 0; b < 10; ++b) wide.push_back(b);
  reporter.add_step(std::move(wide), true);
  EXPECT_EQ(reporter.oversize_steps(), 1u);
  EXPECT_EQ(reporter.pending_steps(), 0u) << "dropped whole, never queued";

  reporter.add_step({1, 2}, false);  // a narrow step still ships
  std::uint32_t seq = 0;
  EXPECT_EQ(reporter.flush(seq).size(), 1u);
}

TEST(FleetDiagReporter, EndStepFromRecorderSortsTouchedBlocks) {
  fd::ReporterConfig config;
  config.block_count = 50;
  fd::SpectrumReporter reporter(config);
  obs::BlockCoverageRecorder coverage(50);
  coverage.hit(31);
  coverage.hit(4);
  coverage.hit(17);
  coverage.hit(4);  // dedup
  reporter.end_step_from(coverage, true);

  std::uint32_t seq = 0;
  const auto frames = reporter.flush(seq);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].spectra.size(), 1u);
  EXPECT_EQ(frames[0].spectra[0].blocks, (std::vector<std::uint32_t>{4, 17, 31}));
  EXPECT_TRUE(frames[0].spectra[0].error);
}

// ============================================================ aggregator

TEST(FleetDiagAggregator, OnlineMatchesOfflineAfterEveryPrefix) {
  // Stream a synthetic program's spectra into the aggregator step by
  // step; after every prefix the aggregator's fresh report must be
  // bit-identical to SflRanker::rank over the recorded matrix.
  diag::SyntheticProgramConfig prog_cfg;
  prog_cfg.total_blocks = 400;
  prog_cfg.feature_count = 4;
  prog_cfg.seed = 11;
  diag::SyntheticProgram program(prog_cfg);
  program.set_fault_in_feature(2);

  fd::FleetAggregator agg(fd::AggregatorConfig{5, diag::Coefficient::kOchiai, 1});
  obs::BlockCoverageRecorder coverage(program.block_count());
  std::vector<bool> errors;

  for (std::size_t step = 0; step < 30; ++step) {
    const bool err = program.run_step(step % 4, coverage);
    std::vector<std::uint32_t> blocks;
    for (const std::size_t b : coverage.current_touched()) {
      blocks.push_back(static_cast<std::uint32_t>(b));
    }
    std::sort(blocks.begin(), blocks.end());
    agg.ingest("tv0", {ipc::SpectrumStep{err, blocks}});
    coverage.end_step();
    errors.push_back(err);

    const auto offline = diag::SflRanker().rank(coverage, errors, diag::Coefficient::kOchiai);
    expect_reports_equal(agg.report("tv0"), offline,
                         "prefix " + std::to_string(step + 1));
  }
  EXPECT_EQ(agg.steps_ingested(), 30u);
  EXPECT_EQ(agg.reports_ingested(), 30u);

  // The fault block must be localized once errors manifested.
  const auto report = agg.report("tv0");
  if (agg.health("tv0").error_steps > 0) {
    EXPECT_LE(report.rank_of(program.fault_block()), 5u);
  }
}

TEST(FleetDiagAggregator, CachedTopKStalenessBoundedByRefreshEvery) {
  fd::FleetAggregator agg(fd::AggregatorConfig{3, diag::Coefficient::kOchiai, 4});

  for (int i = 0; i < 3; ++i) {
    agg.ingest("suo", {ipc::SpectrumStep{true, {1, 2}}, ipc::SpectrumStep{false, {2, 3}}});
    EXPECT_TRUE(agg.top_suspects("suo").empty())
        << "cache refreshes only every 4 reports; report " << i + 1 << " must not";
  }
  EXPECT_FALSE(agg.report("suo").ranking.empty()) << "report() is always fresh";

  agg.ingest("suo", {ipc::SpectrumStep{true, {1, 2}}});  // 4th report: refresh
  const auto top = agg.top_suspects("suo");
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].block, 1u) << "block 1 only ever runs in error steps";
  EXPECT_GT(agg.ranking_churn(), 0u) << "empty -> non-empty top-k is churn";

  // A forced refresh with no new evidence must not churn further.
  const auto churn_before = agg.ranking_churn();
  agg.refresh();
  EXPECT_EQ(agg.ranking_churn(), churn_before);
}

TEST(FleetDiagAggregator, RetireSlotFreesStateAndRebuildsFleetView) {
  fd::FleetAggregator agg(fd::AggregatorConfig{5, diag::Coefficient::kOchiai, 1});
  agg.ingest("a", {ipc::SpectrumStep{true, {1}}, ipc::SpectrumStep{false, {2}}});
  agg.ingest("b", {ipc::SpectrumStep{true, {10}}, ipc::SpectrumStep{false, {11}}});
  EXPECT_EQ(agg.slot_count(), 2u);
  EXPECT_EQ(agg.fleet_report().blocks_considered, 4u);

  EXPECT_TRUE(agg.retire_slot("a"));
  EXPECT_FALSE(agg.retire_slot("a")) << "second retire is a no-op";
  EXPECT_EQ(agg.slot_count(), 1u);
  EXPECT_FALSE(agg.has_slot("a"));
  EXPECT_TRUE(agg.top_suspects("a").empty());

  // The fleet view forgets the retired slot's spectra entirely.
  const auto fleet = agg.fleet_report();
  EXPECT_EQ(fleet.blocks_considered, 2u);
  for (const auto& s : fleet.ranking) {
    EXPECT_GE(s.block, 10u) << "slot a's blocks must be gone from the fleet ranking";
  }
}

TEST(FleetDiagAggregator, ExportsHubDiagMetrics) {
  rt::MetricsRegistry metrics;
  fd::FleetAggregator agg(fd::AggregatorConfig{3, diag::Coefficient::kOchiai, 1}, &metrics);
  agg.ingest("tv0", {ipc::SpectrumStep{true, {1, 2, 3}}, ipc::SpectrumStep{false, {2}}});

  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counter("hub.diag.reports"), 1u);
  EXPECT_EQ(snap.counter("hub.diag.steps"), 2u);
  EXPECT_EQ(snap.counter("hub.diag.error_steps"), 1u);
  EXPECT_EQ(snap.counter("hub.diag.block_updates"), 4u);
  EXPECT_GE(snap.counter("hub.diag.refreshes"), 1u);
  ASSERT_TRUE(snap.gauges.count("hub.diag.slots"));
  EXPECT_EQ(snap.gauges.at("hub.diag.slots"), 1.0);
  ASSERT_TRUE(snap.gauges.count("hub.diag.health/tv0"));
  EXPECT_DOUBLE_EQ(snap.gauges.at("hub.diag.health/tv0"), 0.5);  // 1 of 2 steps erred
  ASSERT_TRUE(snap.gauges.count("hub.diag.top_block/tv0"));

  agg.retire_slot("tv0");
  EXPECT_EQ(metrics.snapshot().counter("hub.diag.retired_slots"), 1u);
}

// ========================================================== hub sockets

class FleetDiagHub : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FleetDiagHub, StreamedRankingsMatchOfflineAtEveryPrefix) {
  // The acceptance differential: spectra streamed through real AF_UNIX
  // sockets into a live hub must yield per-slot rankings byte-identical
  // to an offline diagnosis over the same spectra — after ANY prefix of
  // the report stream, at every pinned shard count.
  hub::HubConfig config;
  config.probe_liveness = false;
  config.shards = GetParam();
  hub::AwarenessHub awareness_hub(config);
  awareness_hub.add_slot("tv0");
  ASSERT_TRUE(awareness_hub.start());

  ipc::FramedSocket sock;
  ASSERT_EQ(handshake(awareness_hub, sock, "tv0"), ipc::FrameType::kHelloAck);

  diag::SyntheticProgramConfig prog_cfg;
  prog_cfg.total_blocks = 600;
  prog_cfg.feature_count = 3;
  prog_cfg.seed = 23;
  diag::SyntheticProgram program(prog_cfg);
  program.set_fault_in_feature(1);

  fd::ReporterConfig rep_cfg;
  rep_cfg.block_count = static_cast<std::uint32_t>(program.block_count());
  rep_cfg.flush_steps = 0;
  fd::SpectrumReporter reporter(rep_cfg);
  obs::BlockCoverageRecorder coverage(program.block_count());
  std::vector<bool> errors;
  std::uint32_t seq = 0;
  std::uint64_t reports_sent = 0;

  for (std::size_t step = 0; step < 24; ++step) {
    const bool err = program.run_step(step % 3, coverage);
    reporter.end_step_from(coverage, err);
    coverage.end_step();
    errors.push_back(err);
    if ((step + 1) % 3 != 0) continue;

    // Ship a 3-step report, wait for ingest, compare the prefix.
    for (const ipc::Frame& f : reporter.flush(seq, rt::msec(10 * (step + 1)))) {
      ASSERT_TRUE(sock.send(f));
      ++reports_sent;
    }
    ASSERT_TRUE(pump_until(awareness_hub, [&] {
      return awareness_hub.diagnosis().reports_ingested() == reports_sent;
    }));
    const auto offline = diag::SflRanker().rank(coverage, errors, diag::Coefficient::kOchiai);
    expect_reports_equal(awareness_hub.diagnosis().report("tv0"), offline,
                         "shards " + std::to_string(GetParam()) + " prefix " +
                             std::to_string(errors.size()));
  }

  EXPECT_EQ(awareness_hub.diagnosis().steps_ingested(), 24u);
  EXPECT_GT(awareness_hub.metrics().counter("hub.spectra_frames"), 0u);
  awareness_hub.stop();
}

INSTANTIATE_TEST_SUITE_P(Shards, FleetDiagHub, ::testing::Values(1, 2, 4));

TEST(FleetDiagHubLifecycle, SpectraPersistAcrossReconnect) {
  // Diagnosis state must survive a supervisor outage: the slot's
  // accumulated spectra meet the reconnected SUO's new spectra in one
  // ranking (an outage must not amnesia the diagnosis).
  hub::HubConfig config;
  config.probe_liveness = false;
  hub::AwarenessHub awareness_hub(config);
  awareness_hub.add_slot("tv0");
  ASSERT_TRUE(awareness_hub.start());

  ipc::Frame report;
  report.type = ipc::FrameType::kSpectrum;
  report.block_count = 8;
  report.spectra.push_back({true, {1, 2}});
  report.spectra.push_back({false, {2, 3}});

  {
    ipc::FramedSocket sock;
    ASSERT_EQ(handshake(awareness_hub, sock, "tv0"), ipc::FrameType::kHelloAck);
    ASSERT_TRUE(sock.send(report));
    ASSERT_TRUE(pump_until(awareness_hub, [&] {
      return awareness_hub.diagnosis().steps_ingested() == 2;
    }));
  }  // abrupt close: an outage, not an orderly goodbye
  ASSERT_TRUE(pump_until(awareness_hub, [&] { return awareness_hub.connection_count() == 0; }));
  EXPECT_TRUE(awareness_hub.diagnosis().has_slot("tv0")) << "outage must not retire diagnosis";

  // First reconnect attempt is free (0ms backoff).
  ipc::FramedSocket again;
  ASSERT_EQ(handshake(awareness_hub, again, "tv0"), ipc::FrameType::kHelloAck);
  ASSERT_TRUE(again.send(report));
  ASSERT_TRUE(pump_until(awareness_hub, [&] {
    return awareness_hub.diagnosis().steps_ingested() == 4;
  }));

  const auto health = awareness_hub.diagnosis().health("tv0");
  EXPECT_EQ(health.steps, 4u) << "both sessions' spectra accumulate";
  EXPECT_EQ(health.error_steps, 2u);
  const auto ranking = awareness_hub.diagnosis().report("tv0");
  EXPECT_EQ(ranking.rank_of(1), 1u) << "block 1 runs only in error steps";
  awareness_hub.stop();
}

TEST(FleetDiagHubLifecycle, PermanentSlotFailureRetiresDiagState) {
  hub::HubConfig config;
  config.probe_liveness = false;
  config.heartbeat_interval_ms = 1000;  // wide stability window
  config.supervisor.max_attempts = 1;   // second unstable crash => failed
  hub::AwarenessHub awareness_hub(config);
  awareness_hub.add_slot("tv0");
  ASSERT_TRUE(awareness_hub.start());

  ipc::Frame report;
  report.type = ipc::FrameType::kSpectrum;
  report.block_count = 4;
  report.spectra.push_back({true, {0, 1}});

  for (int session = 0; session < 2; ++session) {
    ipc::FramedSocket sock;
    ASSERT_EQ(handshake(awareness_hub, sock, "tv0"), ipc::FrameType::kHelloAck);
    ASSERT_TRUE(sock.send(report));
    ASSERT_TRUE(pump_until(awareness_hub, [&] {
      return awareness_hub.diagnosis().steps_ingested() ==
             static_cast<std::uint64_t>(session + 1);
    }));
    sock = ipc::FramedSocket();  // crash
    ASSERT_TRUE(
        pump_until(awareness_hub, [&] { return awareness_hub.connection_count() == 0; }));
  }

  ASSERT_NE(awareness_hub.slot_supervisor("tv0"), nullptr);
  EXPECT_TRUE(awareness_hub.slot_supervisor("tv0")->exhausted());
  EXPECT_FALSE(awareness_hub.diagnosis().has_slot("tv0"))
      << "a permanently failed slot frees its aggregator state";
  EXPECT_EQ(awareness_hub.diagnosis().slot_count(), 0u);
  awareness_hub.stop();
}

// ============================================================= publisher

TEST(FleetDiagPublisher, StreamsSpectraWhenNegotiatedVersionAllows) {
  hub::HubConfig config;
  config.probe_liveness = false;
  hub::AwarenessHub awareness_hub(config);
  awareness_hub.add_slot("tv0");
  ASSERT_TRUE(awareness_hub.start());

  hub::PublisherConfig pub;
  pub.hub_path = awareness_hub.path();
  pub.name = "tv0";
  pub.horizon = rt::msec(600);
  pub.key_period = rt::msec(50);
  pub.diag.enabled = true;
  pub.diag.program.total_blocks = 800;
  pub.diag.program.feature_count = 6;
  pub.diag.fault_feature = 2;
  pub.diag.flush_steps = 4;
  hub::PublisherStats stats;
  int rc = -1;
  std::thread suo([&] { rc = hub::run_hub_publisher(pub, &stats); });

  // Pump through connect, handshake, the streamed horizon and the
  // orderly goodbye (steps_ingested only moves once spectra arrive, so
  // the predicate cannot fire before the publisher ever connected).
  ASSERT_TRUE(pump_until(awareness_hub, [&] {
    return awareness_hub.diagnosis().steps_ingested() > 0 &&
           awareness_hub.connection_count() == 0;
  }));
  suo.join();

  EXPECT_EQ(rc, 0);
  EXPECT_EQ(stats.negotiated_version, ipc::kProtocolVersion);
  EXPECT_GT(stats.spectrum_steps, 0u);
  EXPECT_GT(stats.spectrum_frames, 0u);
  EXPECT_EQ(awareness_hub.diagnosis().steps_ingested(), stats.spectrum_steps);
  const auto health = awareness_hub.diagnosis().health("tv0");
  EXPECT_EQ(health.steps, stats.spectrum_steps);
  awareness_hub.stop();
}

TEST(FleetDiagPublisher, NoSpectraOnAVersion1Link) {
  // A hub capped at protocol v1 negotiates 1; the publisher must not
  // run the instrumented program at all, let alone send kSpectrum.
  hub::HubConfig config;
  config.probe_liveness = false;
  config.max_version = 1;
  hub::AwarenessHub awareness_hub(config);
  awareness_hub.add_slot("tv0");
  ASSERT_TRUE(awareness_hub.start());

  hub::PublisherConfig pub;
  pub.hub_path = awareness_hub.path();
  pub.name = "tv0";
  pub.horizon = rt::msec(300);
  pub.key_period = rt::msec(50);
  pub.diag.enabled = true;
  hub::PublisherStats stats;
  int rc = -1;
  std::thread suo([&] { rc = hub::run_hub_publisher(pub, &stats); });

  ASSERT_TRUE(pump_until(awareness_hub, [&] {
    return awareness_hub.events_ingested() > 0 && awareness_hub.connection_count() == 0;
  }));
  suo.join();

  EXPECT_EQ(rc, 0);
  EXPECT_EQ(stats.negotiated_version, 1);
  EXPECT_EQ(stats.spectrum_steps, 0u);
  EXPECT_EQ(stats.spectrum_frames, 0u);
  EXPECT_EQ(awareness_hub.diagnosis().slot_count(), 0u);
  awareness_hub.stop();
}

// =========================================================== concurrency

// Run under TSan by the scripts/check.sh fleetdiag stage: 2 ingest
// threads and 2 query threads hammer one aggregator concurrently.
TEST(FleetDiagConcurrency, ParallelIngestAndRankingQueries) {
  fd::FleetAggregator agg(fd::AggregatorConfig{5, diag::Coefficient::kOchiai, 3});
  constexpr int kReportsPerSlot = 400;
  std::atomic<bool> stop{false};

  const auto ingest = [&](const std::string& slot, std::uint64_t seed) {
    rt::Rng rng(seed);
    for (int i = 0; i < kReportsPerSlot; ++i) {
      std::vector<std::uint32_t> blocks;
      for (std::uint32_t b = 0; b < 64; ++b) {
        if (rng.uniform(0.0, 1.0) < 0.3) blocks.push_back(b);
      }
      const bool err = rng.uniform(0.0, 1.0) < 0.25;
      agg.ingest(slot, {ipc::SpectrumStep{err, blocks}});
    }
  };
  const auto query = [&](int which) {
    std::uint64_t sink = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (which == 0) {
        sink += agg.top_suspects("a").size() + agg.fleet_top_suspects().size();
        sink += agg.report("b").ranking.size();
      } else {
        for (const auto& h : agg.fleet_health()) sink += h.steps;
        sink += agg.fleet_report().blocks_considered;
        agg.refresh();
      }
    }
    EXPECT_GE(sink, 0u);
  };

  std::thread t1(ingest, "a", 101);
  std::thread t2(ingest, "b", 202);
  std::thread q1(query, 0);
  std::thread q2(query, 1);
  t1.join();
  t2.join();
  stop.store(true, std::memory_order_relaxed);
  q1.join();
  q2.join();

  EXPECT_EQ(agg.reports_ingested(), 2u * kReportsPerSlot);
  EXPECT_EQ(agg.steps_ingested(), 2u * kReportsPerSlot);
  EXPECT_EQ(agg.health("a").steps + agg.health("b").steps, 2u * kReportsPerSlot);
  EXPECT_EQ(agg.fleet_report().blocks_considered, 64u);
}

// ============================================================== campaign

TEST(FleetDiagCampaign, UniformDrawLocalizesManifestedFaults) {
  tk::DiagCampaignConfig config;
  config.seed = 41;
  config.scenarios = 10;
  config.draw.aspects = 4;
  config.draw.horizon = rt::msec(400);
  config.program.total_blocks = 1200;
  config.top_k = 10;
  const auto report = tk::DiagnosisCampaign(config).run();

  EXPECT_EQ(report.scenarios, 10u);
  EXPECT_EQ(report.scored + report.silent + report.clean, report.scenarios);
  EXPECT_GT(report.scored, 0u) << "a 10-scenario campaign must manifest something";
  EXPECT_GT(report.spectrum_frames, 0u);
  // The intermittent-fault model (error only inside the activation
  // window) leaves pass-steps that executed the fault block, so exact
  // top-10 hits are not guaranteed — but localization must still beat
  // chance by a wide margin (1200 blocks; random wasted effort ~0.5).
  for (const auto& score : report.scores) {
    if (!score.scored) continue;
    EXPECT_LE(score.block_rank, 150u)
        << score.scenario << ": seeded fault block must rank in the top ~12%";
    EXPECT_LT(score.wasted_effort, 0.15) << score.scenario;
    EXPECT_LE(score.component_rank, 2u)
        << score.scenario << ": the faulty feature must lead the component ranking";
  }
  EXPECT_GT(report.top_k_hits, 0u) << "some scenario must localize within the top-10";
  // The JSON table bench_diag_hub ships must be well-formed enough to
  // contain every kind bucket.
  const auto json = report.to_json();
  EXPECT_NE(json.find("\"by_kind\""), std::string::npos);
  EXPECT_NE(json.find("\"top_k_rate\""), std::string::npos);
}

TEST(FleetDiagCampaign, ShippedFuzzFindingsLocalizeTrueTargetInTopK) {
  // Close the loop with the fuzzer: every minimized missed-detection
  // finding in the shipped corpus becomes a labeled diagnosis scenario;
  // whenever its fault manifests spectrally, the true target must land
  // in the top-k suspects.
  const std::string path = corpus_path();
  ASSERT_FALSE(path.empty()) << "tests/data/FUZZ_corpus.json must ship with the tests";
  const auto findings = tk::load_findings(path);
  ASSERT_FALSE(findings.empty()) << "corpus must contain replayable findings";
  for (const auto& f : findings) {
    EXPECT_FALSE(f.script.fault_plan().empty()) << f.script.name();
    EXPECT_FALSE(f.original.empty());
  }

  tk::DiagCampaignConfig config;
  config.program.total_blocks = 1500;
  config.top_k = 10;
  const auto report = tk::DiagnosisCampaign(config).run(findings);
  EXPECT_EQ(report.scenarios, findings.size());
  EXPECT_GT(report.scored, 0u) << "at least one finding must manifest spectrally";
  for (const auto& score : report.scores) {
    if (!score.scored) continue;
    EXPECT_TRUE(score.in_top_k)
        << score.scenario << " kind=" << score.kind << " rank=" << score.block_rank;
  }
}

TEST(FleetDiagCampaign, FindingsParserRoundTripsScripts) {
  const std::string path = corpus_path();
  ASSERT_FALSE(path.empty());
  const auto findings = tk::load_findings(path);
  ASSERT_FALSE(findings.empty());
  // Re-serializing a parsed script must reproduce the canonical JSON it
  // was parsed from (modulo being embedded in the findings wrapper).
  std::ifstream in(path);
  std::string corpus((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  for (const auto& f : findings) {
    std::string json = tk::script_to_json(f.script);
    // The corpus pretty-prints; strip whitespace from both before
    // comparing containment.
    const auto strip = [](std::string s) {
      std::string out;
      bool in_string = false;
      for (const char c : s) {
        if (c == '"') in_string = !in_string;
        if (in_string || (c != ' ' && c != '\n' && c != '\t' && c != '\r')) out += c;
      }
      return out;
    };
    EXPECT_NE(strip(corpus).find(strip(json)), std::string::npos)
        << f.script.name() << " did not round-trip";
  }
}
