// Tests for the coverage-guided scenario fuzzer (src/testkit/fuzz):
// shape fingerprints, coverage keys, mutation determinism (same seed =>
// byte-identical corpus and report), coverage-map monotonicity and
// prefix stability, miss-preserving minimization, corpus
// growth-then-saturation over a long run, the novel-class claim (cells
// the E16 uniform draw cannot reach), the provenance of the tracked
// findings fixture tests/data/FUZZ_corpus.json, the injector overlap
// merge rule, the resource-eater fault, and the cross-backend
// differential: a fuzzer-discovered corpus replays verdict-for-verdict
// and fingerprint-for-fingerprint on every IPC backend at 1/2/4 shards.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "testkit/campaign.hpp"
#include "testkit/fuzz.hpp"
#include "testkit/golden_trace.hpp"
#include "testkit/scenario.hpp"

namespace rt = trader::runtime;
namespace tk = trader::testkit;
namespace faults = trader::faults;

namespace {

tk::FuzzConfig small_fuzz(std::uint64_t seed = 2026, std::size_t iterations = 60) {
  tk::FuzzConfig cfg;
  cfg.seed = seed;
  cfg.seed_scenarios = 10;
  cfg.iterations = iterations;
  return cfg;
}

}  // namespace

// --------------------------------------------------------- shape fingerprint

TEST(ShapeFingerprint, CollapsesDigitRunsKeepsWords) {
  tk::GoldenTrace a, b, c;
  a.add(100, "cmd", "aspect0 inc out=5");
  b.add(23400, "cmd", "aspect0 inc out=1789");  // same shape, other numbers
  c.add(100, "cmd", "aspect0 skipped out=5");   // other words, same numbers

  // Raw fingerprints all differ; shapes identify a and b only.
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(tk::shape_fingerprint(a), tk::shape_fingerprint(b));
  EXPECT_NE(tk::shape_fingerprint(a), tk::shape_fingerprint(c));
}

// -------------------------------------------------------------- coverage key

TEST(CoverageKey, SortedUniqueKindsVerdictLatencyAndMarkers) {
  using faults::FaultKind;
  tk::ScenarioScript s;
  s.aspects(2)
      .inject(FaultKind::kStuckComponent, 0, rt::msec(100), rt::msec(100))
      .inject(FaultKind::kMessageLoss, 1, rt::msec(100), rt::msec(100))
      .inject(FaultKind::kMessageLoss, 0, rt::msec(200), rt::msec(50));  // dup kind: once

  tk::ScenarioResult r;
  r.verdict = tk::Verdict::kDetected;
  r.detection_latency = rt::msec(50);  // bucket 20ms => L2
  EXPECT_EQ(tk::coverage_key(s, r, rt::msec(20)), "message-loss+stuck-component|detected|L2");

  r.recovered = true;
  s.outage(rt::msec(200), rt::msec(240));
  EXPECT_EQ(tk::coverage_key(s, r, rt::msec(20)),
            "message-loss+stuck-component|detected|L2|outage|rec");

  tk::ScenarioScript clean;
  tk::ScenarioResult nothing;
  EXPECT_EQ(tk::coverage_key(clean, nothing, rt::msec(20)), "none|true-negative|L-");
}

// ------------------------------------------------------ mutation determinism

TEST(Fuzz, SameSeedByteIdenticalCorpusAndReport) {
  const auto a = tk::FuzzCampaignRunner(small_fuzz()).run();
  const auto b = tk::FuzzCampaignRunner(small_fuzz()).run();

  EXPECT_EQ(a.to_json(), b.to_json());
  ASSERT_EQ(a.corpus.size(), b.corpus.size());
  for (std::size_t i = 0; i < a.corpus.size(); ++i) {
    EXPECT_EQ(a.corpus[i].script.name(), b.corpus[i].script.name());
    EXPECT_EQ(a.corpus[i].trace_fp, b.corpus[i].trace_fp);
    EXPECT_EQ(a.corpus[i].op, b.corpus[i].op);
  }
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(tk::script_to_json(a.findings[i].script), tk::script_to_json(b.findings[i].script));
  }
}

TEST(Fuzz, DifferentSeedDiverges) {
  const auto a = tk::FuzzCampaignRunner(small_fuzz(2026)).run();
  const auto b = tk::FuzzCampaignRunner(small_fuzz(2027)).run();
  EXPECT_NE(a.to_json(), b.to_json());
}

TEST(Fuzz, TrackedFindingsFixtureMatchesDefaultRun) {
  // tests/data/FUZZ_corpus.json is what fuzz_demo writes with its
  // defaults; the fleetdiag and recovery-loop tests replay its findings.
  // Pin it to the fuzzer so the fixture cannot drift from its source.
  std::string dir(__FILE__);
  const auto slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);
  const std::string path = dir + "/data/FUZZ_corpus.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << path << " not found";
  const std::string tracked((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());

  tk::FuzzConfig cfg;
  cfg.seed = 2026;
  cfg.iterations = 200;
  EXPECT_TRUE(tk::FuzzCampaignRunner(cfg).run().to_json() == tracked)
      << path << " differs from the fuzzer's seed-2026, 200-iteration run; "
      << "regenerate it with: cd tests/data && ../../build/examples/fuzz_demo 2026 200";
}

// ------------------------------------------------------ coverage monotonicity

TEST(Fuzz, CoverageMapMonotonicAndPrefixStable) {
  const auto shorter = tk::FuzzCampaignRunner(small_fuzz(2026, 40)).run();
  const auto longer = tk::FuzzCampaignRunner(small_fuzz(2026, 80)).run();

  // The growth curve never shrinks: coverage only accumulates.
  for (std::size_t i = 1; i < longer.corpus_growth.size(); ++i) {
    ASSERT_GE(longer.corpus_growth[i], longer.corpus_growth[i - 1]) << "iteration " << i;
  }

  // Running longer with the same seed replays the shorter run exactly:
  // every coverage cell of the 40-iteration run exists in the
  // 80-iteration run, and the shorter corpus is a prefix of the longer.
  for (const auto& [key, cell] : shorter.coverage) {
    const auto it = longer.coverage.find(key);
    ASSERT_NE(it, longer.coverage.end()) << key;
    EXPECT_EQ(it->second.first_seen, cell.first_seen) << key;
  }
  ASSERT_LE(shorter.corpus.size(), longer.corpus.size());
  for (std::size_t i = 0; i < shorter.corpus.size(); ++i) {
    EXPECT_EQ(shorter.corpus[i].script.name(), longer.corpus[i].script.name());
    EXPECT_EQ(shorter.corpus[i].trace_fp, longer.corpus[i].trace_fp);
  }
}

// ----------------------------------------------------------------- minimizer

TEST(Fuzz, MinimizerPreservesMissVerdict) {
  using faults::FaultKind;
  // Task overrun is invisible to a counter comparator: manifested but
  // missed — exactly the scenario class the findings corpus collects.
  tk::ScenarioScript s;
  s.name("overrun").aspects(2).horizon(rt::msec(400));
  s.every(rt::msec(20), rt::msec(20), rt::msec(380));
  s.inject(FaultKind::kTaskOverrun, 0, rt::msec(100), rt::msec(100));

  tk::ScenarioExecutor executor;
  const auto before = executor.run(s);
  ASSERT_EQ(before.verdict, tk::Verdict::kMissed);
  ASSERT_TRUE(before.fault_manifested);

  std::size_t runs = 0;
  const auto minimized = tk::minimize_scenario(executor, s, /*budget=*/200, rt::msec(20), &runs);
  EXPECT_GT(runs, 0u);
  EXPECT_EQ(minimized.name(), "overrun-min");

  const auto after = executor.run(minimized);
  EXPECT_EQ(after.verdict, tk::Verdict::kMissed);
  EXPECT_TRUE(after.fault_manifested);

  // It actually shrank — and hard: one command suffices for an overrun.
  EXPECT_LT(minimized.sorted_commands().size(), s.sorted_commands().size());
  EXPECT_LE(minimized.horizon(), s.horizon());
  EXPECT_EQ(minimized.fault_plan().size(), 1u);
}

// ------------------------------------------------------- growth / saturation

TEST(Fuzz, FiveHundredIterationCorpusGrowsThenSaturates) {
  auto cfg = small_fuzz(2026, 500);
  const auto report = tk::FuzzCampaignRunner(cfg).run();
  ASSERT_EQ(report.corpus_growth.size(), 500u);
  ASSERT_EQ(report.executions, 510u);

  // Monotone, strictly growing overall.
  for (std::size_t i = 1; i < 500; ++i) {
    ASSERT_GE(report.corpus_growth[i], report.corpus_growth[i - 1]) << "iteration " << i;
  }
  EXPECT_GE(report.corpus_growth.front(), cfg.seed_scenarios);
  EXPECT_GT(report.corpus_growth.back(), report.corpus_growth.front());

  // Saturation: novelty is much easier to find early than late.
  const std::size_t early = report.corpus_growth[99] - report.corpus_growth[0];
  const std::size_t late = report.corpus_growth[499] - report.corpus_growth[399];
  EXPECT_GT(early, 0u);
  EXPECT_LT(late, early);
}

// ------------------------------------------------------------- novel classes

TEST(Fuzz, DiscoversNovelClassBeyondUniformDraw) {
  // Reconstruct the E16 envelope: the exact uniform generator the
  // campaign runner uses, same seed, same draw parameters.
  tk::CampaignConfig camp;
  camp.seed = 2026;
  camp.scenarios = 50;
  rt::Rng master(camp.seed);
  tk::ScenarioExecutor executor(camp.executor);
  std::set<std::string> uniform_keys;
  for (std::size_t i = 0; i < camp.scenarios; ++i) {
    rt::Rng rng = master.fork();
    const auto script = tk::draw_scenario(rng, i, camp.draw);
    const auto result = executor.run(script);
    uniform_keys.insert(tk::coverage_key(script, result, rt::msec(20)));
  }

  const auto report = tk::FuzzCampaignRunner(small_fuzz(2026, 120)).run();

  // The fuzzer reaches cells the uniform draw produced...
  std::size_t novel = 0;
  bool composed = false, outage = false, eater = false;
  for (const auto& [key, cell] : report.coverage) {
    if (uniform_keys.find(key) == uniform_keys.end()) ++novel;
    composed = composed || key.find('+') != std::string::npos;
    outage = outage || key.find("|outage") != std::string::npos;
    eater = eater || key.find("resource-eater") != std::string::npos;
  }
  EXPECT_GT(novel, 0u);

  // ...and the novelty is structural, not a seed accident: the uniform
  // draw plans at most one fault, never an outage, never a resource
  // eater — so each of these cell families is unreachable from E16.
  EXPECT_TRUE(composed);
  EXPECT_TRUE(outage);
  EXPECT_TRUE(eater);
}

// ----------------------------------------------------- injector overlap rule

TEST(InjectorOverlap, StrongestWinsSingleActivation) {
  using faults::FaultKind;
  faults::FaultInjector inj(rt::Rng(7));
  inj.schedule({FaultKind::kMessageLoss, "aspect0", 0, 0, 0.5, {}});
  inj.schedule({FaultKind::kMessageLoss, "aspect0", 100, 1000, 1.0, {}});

  // Both specs are active at t=500; the intensity-1.0 spec wins, fires
  // deterministically, and ground truth logs exactly one activation —
  // attributed to the winner.
  EXPECT_TRUE(inj.fires(FaultKind::kMessageLoss, "aspect0", 500));
  ASSERT_EQ(inj.activations().size(), 1u);
  EXPECT_EQ(inj.activations()[0].spec.intensity, 1.0);
  EXPECT_EQ(inj.activations()[0].spec.activate_at, 100);
}

TEST(InjectorOverlap, IntensityTieBreaksToEarliestActivation) {
  using faults::FaultKind;
  faults::FaultInjector inj(rt::Rng(7));
  inj.schedule({FaultKind::kStuckComponent, "aspect1", 200, 1000, 1.0, {}});
  inj.schedule({FaultKind::kStuckComponent, "aspect1", 100, 1000, 1.0, {}});

  EXPECT_TRUE(inj.fires(FaultKind::kStuckComponent, "aspect1", 250));
  ASSERT_EQ(inj.activations().size(), 1u);
  EXPECT_EQ(inj.activations()[0].spec.activate_at, 100);
}

TEST(InjectorOverlap, OverlappingSpecNeverPerturbsDrawSequence) {
  using faults::FaultKind;
  // The determinism clause of the merge rule: fires() spends at most one
  // rng draw per call, so adding an overlapping weaker spec leaves the
  // fire/no-fire sequence bit-identical.
  faults::FaultInjector lone(rt::Rng(42));
  lone.schedule({FaultKind::kMessageLoss, "x", 0, 0, 0.5, {}});
  faults::FaultInjector crowded(rt::Rng(42));
  crowded.schedule({FaultKind::kMessageLoss, "x", 0, 0, 0.5, {}});
  crowded.schedule({FaultKind::kMessageLoss, "x", 0, 0, 0.25, {}});

  for (rt::SimTime t = 0; t < 100; ++t) {
    ASSERT_EQ(lone.fires(FaultKind::kMessageLoss, "x", t),
              crowded.fires(FaultKind::kMessageLoss, "x", t))
        << "t=" << t;
  }
}

TEST(InjectorOverlap, DifferentKindsComposeIndependently) {
  using faults::FaultKind;
  faults::FaultInjector inj(rt::Rng(7));
  inj.schedule({FaultKind::kMessageLoss, "aspect0", 0, 1000, 1.0, {}});
  inj.schedule({FaultKind::kStuckComponent, "aspect0", 0, 1000, 1.0, {}});

  EXPECT_TRUE(inj.fires(FaultKind::kMessageLoss, "aspect0", 10));
  EXPECT_TRUE(inj.fires(FaultKind::kStuckComponent, "aspect0", 10));
  EXPECT_EQ(inj.activations().size(), 2u);
}

// -------------------------------------------------------------- resource eater

TEST(ResourceEater, DeferredProcessingIsDetectedAndDrains) {
  using faults::FaultKind;
  tk::ScenarioScript s;
  s.name("eater").aspects(1).horizon(rt::msec(400));
  s.every(rt::msec(20), rt::msec(20), rt::msec(380));
  s.inject(FaultKind::kResourceEater, 0, rt::msec(100), rt::msec(100));

  tk::ScenarioExecutor executor;
  const auto r = executor.run(s);

  // The starved component lags (value-visible) => detected; the backlog
  // drains once the eater stops, so the published count catches up.
  EXPECT_EQ(r.verdict, tk::Verdict::kDetected);
  EXPECT_TRUE(r.detectable_manifested);
  bool deferred = false;
  for (const auto& line : r.trace.lines()) {
    if (line.find("deferred (eater)") != std::string::npos) deferred = true;
  }
  EXPECT_TRUE(deferred);
}

// ------------------------------------------------- cross-backend differential

// A fuzzer-discovered corpus is only a corpus if it replays everywhere:
// every entry must reproduce its verdict and its exact golden-trace
// fingerprint on the in-process sharded fleet and through the epoll
// hub, at 1, 2 and 4 shards. The single-scheduler kOff run that built
// the corpus is the reference; composed faults, outage windows and
// resource eaters are all represented in the first 20 entries.
TEST(FuzzDifferential, CorpusReplaysAcrossBackendsAndShards) {
  const auto report = tk::FuzzCampaignRunner(small_fuzz(2026, 60)).run();
  ASSERT_GE(report.corpus.size(), 20u);

  for (const tk::IpcMode mode : {tk::IpcMode::kOff, tk::IpcMode::kHub}) {
    for (const std::size_t shards : {1u, 2u, 4u}) {
      tk::ExecutorConfig cfg;
      cfg.ipc = mode;
      cfg.shards = shards;
      tk::ScenarioExecutor executor(cfg);
      for (std::size_t i = 0; i < 20; ++i) {
        const auto& entry = report.corpus[i];
        const auto replay = executor.run(entry.script);
        EXPECT_EQ(replay.verdict, entry.verdict)
            << tk::to_string(mode) << " shards=" << shards << " " << entry.script.name();
        EXPECT_EQ(replay.trace.fingerprint(), entry.trace_fp)
            << tk::to_string(mode) << " shards=" << shards << " " << entry.script.name();
      }
    }
  }
}
