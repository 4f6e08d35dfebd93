// Tests for spectrum-based fault localization (§4.4): similarity
// coefficients, ranking metrics, the synthetic 60k-block program, and
// the headline property — the faulty block ranks first.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "diagnosis/spectrum.hpp"
#include "diagnosis/synthetic_program.hpp"
#include "observation/coverage.hpp"
#include "tv/control.hpp"
#include "tv/keys.hpp"
#include "tv/signal.hpp"

namespace diag = trader::diagnosis;
namespace obs = trader::observation;
namespace tv = trader::tv;
namespace rt = trader::runtime;

// -------------------------------------------------------------- Coefficients

TEST(Similarity, OchiaiHandComputed) {
  // a11=4, a01=1, a10=2: 4 / sqrt(5*6) = 0.7303...
  diag::SflCounts k{4, 2, 1, 10};
  EXPECT_NEAR(diag::similarity(diag::Coefficient::kOchiai, k), 4.0 / std::sqrt(30.0), 1e-12);
}

TEST(Similarity, TarantulaHandComputed) {
  // fail=5 (a11=4,a01=1), pass=12 (a10=2,a00=10): f=0.8, p=1/6.
  diag::SflCounts k{4, 2, 1, 10};
  const double f = 0.8;
  const double p = 2.0 / 12.0;
  EXPECT_NEAR(diag::similarity(diag::Coefficient::kTarantula, k), f / (f + p), 1e-12);
}

TEST(Similarity, JaccardHandComputed) {
  diag::SflCounts k{4, 2, 1, 10};
  EXPECT_NEAR(diag::similarity(diag::Coefficient::kJaccard, k), 4.0 / 7.0, 1e-12);
}

TEST(Similarity, AmpleHandComputed) {
  diag::SflCounts k{4, 2, 1, 10};
  EXPECT_NEAR(diag::similarity(diag::Coefficient::kAmple, k), std::abs(0.8 - 2.0 / 12.0), 1e-12);
}

TEST(Similarity, SimpleMatchingHandComputed) {
  diag::SflCounts k{4, 2, 1, 10};
  EXPECT_NEAR(diag::similarity(diag::Coefficient::kSimpleMatching, k), 14.0 / 17.0, 1e-12);
}

TEST(Similarity, ZeroDenominatorsAreSafe) {
  diag::SflCounts zero{};
  for (auto c : diag::all_coefficients()) {
    EXPECT_EQ(diag::similarity(c, zero), 0.0) << diag::to_string(c);
  }
}

TEST(Similarity, PerfectCorrelationMaximizesOchiai) {
  // Block executed exactly in the error steps.
  diag::SflCounts k{5, 0, 0, 10};
  EXPECT_DOUBLE_EQ(diag::similarity(diag::Coefficient::kOchiai, k), 1.0);
}

TEST(Similarity, CoefficientNames) {
  EXPECT_STREQ(diag::to_string(diag::Coefficient::kOchiai), "ochiai");
  EXPECT_EQ(diag::all_coefficients().size(), 5u);
}

// ------------------------------------------------------------------- Coverage

TEST(Coverage, RecordsPerStepHits) {
  obs::BlockCoverageRecorder cov(10);
  cov.hit(1);
  cov.hit(1);  // dedup within step
  cov.hit(3);
  cov.end_step();
  cov.hit(3);
  cov.end_step();
  EXPECT_EQ(cov.step_count(), 2u);
  EXPECT_TRUE(cov.executed(0, 1));
  EXPECT_TRUE(cov.executed(0, 3));
  EXPECT_FALSE(cov.executed(0, 2));
  EXPECT_FALSE(cov.executed(1, 1));
  EXPECT_EQ(cov.blocks_in_step(0), 2u);
  EXPECT_EQ(cov.blocks_touched(), 2u);
  EXPECT_EQ(cov.raw_hits(), 4u);
}

TEST(Coverage, OutOfRangeHitIgnored) {
  obs::BlockCoverageRecorder cov(4);
  cov.hit(99);
  cov.end_step();
  EXPECT_EQ(cov.blocks_in_step(0), 0u);
}

TEST(Coverage, ClearResets) {
  obs::BlockCoverageRecorder cov(4);
  cov.hit(0);
  cov.end_step();
  cov.clear();
  EXPECT_EQ(cov.step_count(), 0u);
  EXPECT_EQ(cov.raw_hits(), 0u);
}

// --------------------------------------------------------------------- Ranker

TEST(Ranker, CountsForMatchManualTally) {
  obs::BlockCoverageRecorder cov(3);
  // step 0: blocks {0,1}, error; step 1: {1}, pass; step 2: {0}, error.
  cov.hit(0);
  cov.hit(1);
  cov.end_step();
  cov.hit(1);
  cov.end_step();
  cov.hit(0);
  cov.end_step();
  const std::vector<bool> errors{true, false, true};
  const auto k0 = diag::SflRanker::counts_for(cov, errors, 0);
  EXPECT_EQ(k0.a11, 2u);
  EXPECT_EQ(k0.a10, 0u);
  EXPECT_EQ(k0.a01, 0u);
  EXPECT_EQ(k0.a00, 1u);
  const auto k1 = diag::SflRanker::counts_for(cov, errors, 1);
  EXPECT_EQ(k1.a11, 1u);
  EXPECT_EQ(k1.a10, 1u);
}

TEST(Ranker, FaultyBlockRanksFirstInToyProgram) {
  obs::BlockCoverageRecorder cov(3);
  cov.hit(0);
  cov.hit(1);
  cov.end_step();
  cov.hit(1);
  cov.end_step();
  cov.hit(0);
  cov.end_step();
  const std::vector<bool> errors{true, false, true};
  diag::SflRanker ranker;
  const auto report = ranker.rank(cov, errors);
  EXPECT_EQ(report.ranking[0].block, 0u);
  EXPECT_EQ(report.rank_of(0), 1u);
  EXPECT_GT(report.rank_of(1), 1u);
}

TEST(Ranker, UnexecutedBlocksExcluded) {
  obs::BlockCoverageRecorder cov(100);
  cov.hit(5);
  cov.end_step();
  diag::SflRanker ranker;
  const auto report = ranker.rank(cov, {true});
  EXPECT_EQ(report.blocks_considered, 1u);
  EXPECT_EQ(report.rank_of(42), 2u);  // beyond the ranking
}

TEST(Ranker, MismatchedErrorVectorThrows) {
  obs::BlockCoverageRecorder cov(4);
  cov.hit(0);
  cov.end_step();
  diag::SflRanker ranker;
  EXPECT_THROW(ranker.rank(cov, {true, false}), std::invalid_argument);
}

TEST(Ranker, TieMetrics) {
  obs::BlockCoverageRecorder cov(3);
  // Blocks 0 and 1 always co-occur -> tied scores; block 2 only passes.
  cov.hit(0);
  cov.hit(1);
  cov.end_step();
  cov.hit(2);
  cov.end_step();
  diag::SflRanker ranker;
  const auto report = ranker.rank(cov, {true, false});
  EXPECT_EQ(report.rank_of(0), 1u);        // optimistic
  EXPECT_EQ(report.worst_rank_of(0), 2u);  // pessimistic (tied with 1)
  EXPECT_NEAR(report.wasted_effort(0), (1.5 - 1.0) / 3.0, 1e-12);
}

// ---------------------------------------------------------- SyntheticProgram

TEST(Synthetic, StructureAddsUp) {
  diag::SyntheticProgramConfig cfg;
  cfg.total_blocks = 1000;
  cfg.feature_count = 10;
  diag::SyntheticProgram prog(cfg);
  EXPECT_EQ(prog.block_count(), 1000u);
  EXPECT_LT(prog.common_end(), prog.shared_end());
  EXPECT_LE(prog.feature_end(9), 1000u);
  EXPECT_EQ(prog.feature_of(prog.feature_begin(3)), 3u);
  EXPECT_EQ(prog.feature_of(0), static_cast<std::size_t>(-1));  // common block
}

TEST(Synthetic, InvalidConfigsThrow) {
  diag::SyntheticProgramConfig cfg;
  cfg.total_blocks = 10;
  cfg.feature_count = 0;
  EXPECT_THROW(diag::SyntheticProgram{cfg}, std::invalid_argument);
  cfg.feature_count = 100;
  EXPECT_THROW(diag::SyntheticProgram{cfg}, std::invalid_argument);
}

TEST(Synthetic, FaultPlacementByFeature) {
  diag::SyntheticProgramConfig cfg;
  cfg.total_blocks = 1000;
  cfg.feature_count = 10;
  diag::SyntheticProgram prog(cfg);
  prog.set_fault_in_feature(4, 10);
  EXPECT_EQ(prog.feature_of(prog.fault_block()), 4u);
  EXPECT_THROW(prog.set_fault_in_feature(99), std::out_of_range);
  EXPECT_THROW(prog.set_fault_block(99999), std::out_of_range);
}

TEST(Synthetic, StepsTouchCommonAndFeatureBlocks) {
  diag::SyntheticProgramConfig cfg;
  cfg.total_blocks = 1000;
  cfg.feature_count = 10;
  diag::SyntheticProgram prog(cfg);
  obs::BlockCoverageRecorder cov(prog.block_count());
  prog.run_step(2, cov);
  cov.end_step();
  // All common blocks executed.
  for (std::size_t b = prog.common_begin(); b < prog.common_end(); ++b) {
    EXPECT_TRUE(cov.executed(0, b));
  }
  // A prefix of feature 2 executed; feature 5 untouched.
  EXPECT_TRUE(cov.executed(0, prog.feature_begin(2)));
  bool any_f5 = false;
  for (std::size_t b = prog.feature_begin(5); b < prog.feature_end(5); ++b) {
    any_f5 |= cov.executed(0, b);
  }
  EXPECT_FALSE(any_f5);
}

TEST(Synthetic, ErrorOnlyWhenFaultExecutes) {
  diag::SyntheticProgramConfig cfg;
  cfg.total_blocks = 1000;
  cfg.feature_count = 10;
  diag::SyntheticProgram prog(cfg);
  prog.set_fault_in_feature(3, 0);  // shallow: always hit when feature 3 runs
  obs::BlockCoverageRecorder cov(prog.block_count());
  EXPECT_FALSE(prog.run_step(1, cov));
  cov.end_step();
  EXPECT_TRUE(prog.run_step(3, cov));
  cov.end_step();
}

// The headline reproduction property (E2, scaled down for test speed):
// for a scenario exercising several features with one injected fault,
// Ochiai ranks the faulty block first.
class SflHeadline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SflHeadline, FaultyBlockRanksFirst) {
  diag::SyntheticProgramConfig cfg;
  cfg.total_blocks = 6000;
  cfg.feature_count = 12;
  cfg.seed = GetParam();
  diag::SyntheticProgram prog(cfg);
  // Fault at 80% depth of the teletext-like feature: executed on deep
  // activations only, giving both erroneous and passing activations.
  const std::size_t per_feature = prog.feature_end(0) - prog.feature_begin(0);
  prog.set_fault_in_feature(2, static_cast<std::size_t>(per_feature * 0.8));

  obs::BlockCoverageRecorder cov(prog.block_count());
  // 27-step scenario alternating several features with feature 2 often.
  const std::vector<std::size_t> scenario = {0, 2, 1, 2, 3, 2, 4, 2, 5, 2, 6, 2, 7, 2,
                                             8, 2, 9, 2, 0, 2, 1, 2, 3, 2, 4, 2, 5};
  const auto errors = prog.run_scenario(scenario, cov);
  // The fault must have manifested at least once and not on every step.
  int error_steps = 0;
  for (bool e : errors) error_steps += e ? 1 : 0;
  ASSERT_GT(error_steps, 0) << "fault never executed for seed " << GetParam();
  ASSERT_LT(error_steps, static_cast<int>(errors.size()));

  diag::SflRanker ranker;
  const auto report = ranker.rank(cov, errors, diag::Coefficient::kOchiai);
  EXPECT_EQ(report.rank_of(prog.fault_block()), 1u) << "seed " << GetParam();
  // Blocks whose spectra are identical to the fault's tie with it; even
  // pessimistically the inspection effort must stay negligible.
  EXPECT_LT(report.wasted_effort(prog.fault_block()), 0.02) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SflHeadline, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Sfl, IntermittentManifestationStillRanksHigh) {
  diag::SyntheticProgramConfig cfg;
  cfg.total_blocks = 4000;
  cfg.feature_count = 8;
  cfg.fault_manifestation = 0.7;
  cfg.seed = 99;
  diag::SyntheticProgram prog(cfg);
  const std::size_t per_feature = prog.feature_end(0) - prog.feature_begin(0);
  prog.set_fault_in_feature(1, static_cast<std::size_t>(per_feature * 0.75));
  obs::BlockCoverageRecorder cov(prog.block_count());
  std::vector<std::size_t> scenario;
  for (int i = 0; i < 40; ++i) scenario.push_back(static_cast<std::size_t>(i % 8));
  const auto errors = prog.run_scenario(scenario, cov);
  diag::SflRanker ranker;
  const auto report = ranker.rank(cov, errors, diag::Coefficient::kOchiai);
  EXPECT_LE(report.rank_of(prog.fault_block()), 20u);
}

// ----------------------------------------------- SFL on the real TV control

TEST(Sfl, LocalizesFaultyHandlerInTvControl) {
  // Instrument the real control unit's blocks; declare steps erroneous
  // exactly when the (deliberately miswired) teletext handler ran. The
  // teletext-enter block must rank at the top.
  auto lineup = tv::ChannelLineup::standard_lineup(40);
  tv::TvControl control(lineup);
  obs::BlockCoverageRecorder cov(tv::kBlkCount);
  bool ttx_ran = false;
  control.set_block_hook([&](int b) {
    cov.hit(static_cast<std::size_t>(b));
    if (b == tv::kBlkTtxEnter) ttx_ran = true;
  });

  std::vector<bool> errors;
  const std::vector<tv::Key> scenario = {
      tv::Key::kPower,    tv::Key::kVolumeUp, tv::Key::kChannelUp, tv::Key::kTeletext,
      tv::Key::kTeletext, tv::Key::kMute,     tv::Key::kTeletext,  tv::Key::kBack,
      tv::Key::kVolumeDown, tv::Key::kTeletext, tv::Key::kTeletext, tv::Key::kChannelDown,
  };
  rt::SimTime now = 0;
  for (const auto key : scenario) {
    ttx_ran = false;
    control.handle_key(key, now);
    now += 2'000'000;
    cov.end_step();
    errors.push_back(ttx_ran);  // "failure whenever the buggy handler ran"
  }

  diag::SflRanker ranker;
  const auto report = ranker.rank(cov, errors, diag::Coefficient::kOchiai);
  EXPECT_EQ(report.rank_of(tv::kBlkTtxEnter), 1u);
}

// ====================================================== incremental SFL

#include "diagnosis/incremental.hpp"

namespace {

/// Random spectra: `steps` steps over `blocks` blocks, error bias ~30%.
std::vector<std::pair<std::vector<std::uint32_t>, bool>> random_spectra(
    rt::Rng& rng, std::size_t steps, std::uint32_t blocks) {
  std::vector<std::pair<std::vector<std::uint32_t>, bool>> out;
  for (std::size_t s = 0; s < steps; ++s) {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t b = 0; b < blocks; ++b) {
      if (rng.uniform(0.0, 1.0) < 0.35) ids.push_back(b);
    }
    out.emplace_back(std::move(ids), rng.uniform(0.0, 1.0) < 0.3);
  }
  return out;
}

}  // namespace

TEST(Incremental, CountsMatchBatchRecorder) {
  // Feed the identical spectra both ways: through a BlockCoverageRecorder
  // + SflRanker::counts_for (the offline batch path) and through
  // IncrementalSflCounts::add (the online path). Every per-block
  // contingency table must agree exactly.
  rt::Rng rng(71);
  const std::uint32_t kBlocks = 24;
  const auto spectra = random_spectra(rng, 40, kBlocks);

  obs::BlockCoverageRecorder cov(kBlocks);
  std::vector<bool> errors;
  diag::IncrementalSflCounts acc;
  for (const auto& [ids, err] : spectra) {
    for (const auto b : ids) cov.hit(b);
    cov.end_step();
    errors.push_back(err);
    acc.add(ids, err);
  }

  EXPECT_EQ(acc.steps(), spectra.size());
  for (std::uint32_t b = 0; b < kBlocks; ++b) {
    const auto batch = diag::SflRanker::counts_for(cov, errors, b);
    const auto online = acc.counts(b);
    EXPECT_EQ(online.a11, batch.a11) << "block " << b;
    EXPECT_EQ(online.a10, batch.a10) << "block " << b;
    EXPECT_EQ(online.a01, batch.a01) << "block " << b;
    EXPECT_EQ(online.a00, batch.a00) << "block " << b;
  }
}

TEST(Incremental, ReportBitIdenticalToBatchRanker) {
  // The headline online/offline equivalence: after ANY prefix of the
  // stream, IncrementalSflCounts::report() must equal SflRanker::rank()
  // over the same prefix — same blocks, same (double) scores, same
  // order. Checked across every coefficient.
  rt::Rng rng(72);
  const std::uint32_t kBlocks = 18;
  const auto spectra = random_spectra(rng, 25, kBlocks);

  for (const auto coefficient : diag::all_coefficients()) {
    obs::BlockCoverageRecorder cov(kBlocks);
    std::vector<bool> errors;
    diag::IncrementalSflCounts acc;
    for (const auto& [ids, err] : spectra) {
      for (const auto b : ids) cov.hit(b);
      cov.end_step();
      errors.push_back(err);
      acc.add(ids, err);

      const auto offline = diag::SflRanker().rank(cov, errors, coefficient);
      const auto online = acc.report(coefficient);
      ASSERT_EQ(online.blocks_considered, offline.blocks_considered);
      ASSERT_EQ(online.ranking.size(), offline.ranking.size());
      for (std::size_t i = 0; i < online.ranking.size(); ++i) {
        EXPECT_EQ(online.ranking[i].block, offline.ranking[i].block)
            << "prefix " << errors.size() << " rank " << i;
        EXPECT_EQ(online.ranking[i].score, offline.ranking[i].score)  // bit-identical
            << "prefix " << errors.size() << " rank " << i;
      }
    }
  }
}

TEST(Incremental, TopKMatchesFullReportPrefix) {
  rt::Rng rng(73);
  diag::IncrementalSflCounts acc;
  for (const auto& [ids, err] : random_spectra(rng, 30, 40)) acc.add(ids, err);

  const auto full = acc.report(diag::Coefficient::kOchiai);
  for (const std::size_t k : {1u, 3u, 7u, 40u, 100u}) {
    const auto top = acc.top_k(k, diag::Coefficient::kOchiai);
    ASSERT_EQ(top.size(), std::min<std::size_t>(k, full.ranking.size()));
    for (std::size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].block, full.ranking[i].block) << "k=" << k << " i=" << i;
      EXPECT_EQ(top[i].score, full.ranking[i].score) << "k=" << k << " i=" << i;
    }
  }
}

TEST(Incremental, RetireIsInverseOfAdd) {
  rt::Rng rng(74);
  const auto keep = random_spectra(rng, 20, 16);
  const auto transient = random_spectra(rng, 10, 16);

  diag::IncrementalSflCounts only_keep;
  for (const auto& [ids, err] : keep) only_keep.add(ids, err);

  diag::IncrementalSflCounts churned;
  for (const auto& [ids, err] : keep) churned.add(ids, err);
  for (const auto& [ids, err] : transient) churned.add(ids, err);
  for (const auto& [ids, err] : transient) churned.retire(ids, err);

  EXPECT_EQ(churned.steps(), only_keep.steps());
  EXPECT_EQ(churned.error_steps(), only_keep.error_steps());
  const auto a = churned.report(diag::Coefficient::kOchiai);
  const auto b = only_keep.report(diag::Coefficient::kOchiai);
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].block, b.ranking[i].block);
    EXPECT_EQ(a.ranking[i].score, b.ranking[i].score);
  }
}

TEST(Incremental, MergeEqualsConcatenatedStreams) {
  rt::Rng rng(75);
  const auto first = random_spectra(rng, 15, 20);
  const auto second = random_spectra(rng, 15, 20);

  diag::IncrementalSflCounts whole;
  for (const auto& [ids, err] : first) whole.add(ids, err);
  for (const auto& [ids, err] : second) whole.add(ids, err);

  diag::IncrementalSflCounts a;
  diag::IncrementalSflCounts b;
  for (const auto& [ids, err] : first) a.add(ids, err);
  for (const auto& [ids, err] : second) b.add(ids, err);
  a.merge(b);

  EXPECT_EQ(a.steps(), whole.steps());
  EXPECT_EQ(a.touched_blocks(), whole.touched_blocks());
  const auto ra = a.report(diag::Coefficient::kOchiai);
  const auto rb = whole.report(diag::Coefficient::kOchiai);
  ASSERT_EQ(ra.ranking.size(), rb.ranking.size());
  for (std::size_t i = 0; i < ra.ranking.size(); ++i) {
    EXPECT_EQ(ra.ranking[i].block, rb.ranking[i].block);
    EXPECT_EQ(ra.ranking[i].score, rb.ranking[i].score);
  }
}
