// Tests for the extension features: real-time response monitoring,
// monitor fleets, scenario record/replay, recovery escalation,
// component-level diagnosis, and DOT export — plus the full closed-loop
// integration (detect -> record -> replay+diagnose -> recover).
#include <gtest/gtest.h>

#include <memory>

#include "core/fleet.hpp"
#include "core/model_impl.hpp"
#include "detection/response_time.hpp"
#include "diagnosis/component_ranker.hpp"
#include "diagnosis/synthetic_program.hpp"
#include "faults/injector.hpp"
#include "observation/scenario.hpp"
#include "recovery/escalation.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"
#include "statemachine/dot_export.hpp"
#include "tv/spec_model.hpp"
#include "tv/tv_system.hpp"

namespace rt = trader::runtime;
namespace sm = trader::statemachine;
namespace tv = trader::tv;
namespace core = trader::core;
namespace det = trader::detection;
namespace diag = trader::diagnosis;
namespace obs = trader::observation;
namespace rec = trader::recovery;
namespace flt = trader::faults;

// --------------------------------------------------------- ResponseTime (RT)

namespace {

struct RtFixture {
  RtFixture() : injector(rt::Rng(3)), set(sched, bus, injector), monitor(sched, bus, log) {
    for (auto& rule : det::tv_response_rules(rt::msec(150))) monitor.add_rule(rule);
    set.start();
    monitor.start();
    set.press(tv::Key::kPower);
    sched.run_for(rt::msec(300));
  }

  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector;
  tv::TvSystem set;
  det::DetectionLog log;
  det::ResponseTimeMonitor monitor{sched, bus, log};
};

}  // namespace

TEST(ResponseTime, HealthyTvMeetsAllDeadlines) {
  RtFixture f;
  for (tv::Key k : {tv::Key::kVolumeUp, tv::Key::kVolumeDown, tv::Key::kMute, tv::Key::kMute,
                    tv::Key::kTeletext, tv::Key::kTeletext}) {
    f.set.press(k);
    f.sched.run_for(rt::msec(300));
  }
  EXPECT_EQ(f.log.count("timeliness"), 0u);
  EXPECT_GE(f.monitor.stats("volume-key-response").responses, 4u);
}

TEST(ResponseTime, StuckAudioViolatesVolumeDeadline) {
  RtFixture f;
  f.injector.schedule(flt::FaultSpec{flt::FaultKind::kStuckComponent, "audio", f.sched.now(), 0,
                                     1.0, {}});
  f.set.press(tv::Key::kVolumeUp);
  f.sched.run_for(rt::msec(500));
  EXPECT_GE(f.log.count("timeliness"), 1u);
  EXPECT_EQ(f.log.all()[0].subject, "volume-key-response");
  EXPECT_GE(f.monitor.stats("volume-key-response").violations, 1u);
}

TEST(ResponseTime, CrashedTeletextViolatesScreenDeadline) {
  RtFixture f;
  f.injector.schedule(flt::FaultSpec{flt::FaultKind::kCrash, "teletext", f.sched.now(), 0, 1.0,
                                     {}});
  f.sched.run_for(rt::msec(100));  // crash latches
  f.set.press(tv::Key::kTeletext);
  f.sched.run_for(rt::msec(500));
  // Control still flips its screen belief... but the engine never shows,
  // so the user-visible screen_state output never changes.
  EXPECT_GE(f.monitor.stats("teletext-key-response").violations, 1u);
}

TEST(ResponseTime, ResponseTimesAreRecorded) {
  RtFixture f;
  f.set.press(tv::Key::kVolumeUp);
  f.sched.run_for(rt::msec(300));
  ASSERT_GE(f.monitor.response_times().count(), 1u);
  EXPECT_LT(f.monitor.response_times().percentile(100), 150.0);
}

TEST(ResponseTime, StopSilencesMonitor) {
  RtFixture f;
  f.monitor.stop();
  f.injector.schedule(flt::FaultSpec{flt::FaultKind::kStuckComponent, "audio", f.sched.now(), 0,
                                     1.0, {}});
  f.set.press(tv::Key::kVolumeUp);
  f.sched.run_for(rt::msec(500));
  EXPECT_EQ(f.log.count("timeliness"), 0u);
}

TEST(ResponseTime, UnknownRuleStatsThrow) {
  rt::Scheduler sched;
  rt::EventBus bus;
  det::DetectionLog log;
  det::ResponseTimeMonitor monitor(sched, bus, log);
  EXPECT_THROW(monitor.stats("ghost"), std::out_of_range);
}

// -------------------------------------------------------------- MonitorFleet

namespace {

// Tiny aspect models: one watches only sound, one only screen state.
sm::StateMachineDef sound_aspect_model() {
  tv::TvSpecConfig cfg;
  return tv::build_tv_spec_model(cfg);  // reuse; configured observables select the aspect
}

core::MonitorBuilder aspect_monitor(const std::vector<const char*>& observables) {
  core::MonitorBuilder builder;
  builder.model(std::make_unique<core::InterpretedModel>(sound_aspect_model()))
      .comparison_period(rt::msec(20))
      .startup_grace(rt::msec(100));
  for (const char* name : observables) {
    builder.threshold(name, 0.0, /*max_consecutive=*/3);
  }
  return builder;
}

}  // namespace

TEST(Fleet, AspectsDetectTheirOwnFaults) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(3));
  tv::TvSystem set(sched, bus, injector);

  core::MonitorFleet fleet(sched, bus);
  fleet.add_monitor("sound", aspect_monitor({"sound_level"}));
  fleet.add_monitor("screen", aspect_monitor({"screen_state"}));
  EXPECT_EQ(fleet.size(), 2u);

  std::vector<std::string> recovered_aspects;
  fleet.set_recovery_handler([&](const core::AspectError& err) {
    recovered_aspects.push_back(err.aspect);
  });

  set.start();
  fleet.start();
  set.press(tv::Key::kPower);
  sched.run_for(rt::msec(300));

  // Sound fault -> only the sound monitor fires.
  injector.schedule(flt::FaultSpec{flt::FaultKind::kMessageLoss, "cmd.audio", sched.now(),
                                   rt::msec(50), 1.0, {}});
  set.press(tv::Key::kVolumeUp);
  sched.run_for(rt::sec(1));
  EXPECT_EQ(fleet.error_count("sound"), 1u);
  EXPECT_EQ(fleet.error_count("screen"), 0u);

  // Screen fault -> only the screen monitor fires.
  injector.schedule(flt::FaultSpec{flt::FaultKind::kMessageLoss, "cmd.teletext", sched.now(),
                                   rt::msec(50), 1.0, {}});
  set.press(tv::Key::kTeletext);  // show lost: screen stays video
  sched.run_for(rt::sec(1));
  EXPECT_EQ(fleet.error_count("screen"), 1u);
  EXPECT_EQ(fleet.error_count("sound"), 1u);

  ASSERT_EQ(recovered_aspects.size(), 2u);
  EXPECT_EQ(recovered_aspects[0], "sound");
  EXPECT_EQ(recovered_aspects[1], "screen");
}

TEST(Fleet, MonitorLookup) {
  rt::Scheduler sched;
  rt::EventBus bus;
  core::MonitorFleet fleet(sched, bus);
  fleet.add_monitor("a", aspect_monitor({"sound_level"}));
  EXPECT_NO_THROW(fleet.monitor("a"));
  EXPECT_THROW(fleet.monitor("zzz"), std::out_of_range);
}

// ----------------------------------------------------------- ScenarioRecorder

TEST(Scenario, RecordsOnlyWhileStarted) {
  rt::Scheduler sched;
  rt::EventBus bus;
  obs::ScenarioRecorder recorder(sched, bus, "tv.input");
  rt::Event ev;
  ev.topic = "tv.input";
  bus.publish(ev);  // before start: ignored
  recorder.start();
  bus.publish(ev);
  recorder.stop();
  bus.publish(ev);
  EXPECT_EQ(recorder.size(), 1u);
}

TEST(Scenario, ReplayPreservesRelativeTiming) {
  rt::Scheduler sched;
  rt::EventBus bus;
  obs::ScenarioRecorder recorder(sched, bus, "t");
  recorder.start();
  rt::Event ev;
  ev.topic = "t";
  sched.run_until(100);
  ev.fields["n"] = std::int64_t{1};
  bus.publish(ev);
  sched.run_until(350);
  ev.fields["n"] = std::int64_t{2};
  bus.publish(ev);
  recorder.stop();

  rt::Scheduler replay_sched;
  std::vector<std::pair<std::int64_t, rt::SimTime>> seen;
  recorder.replay(replay_sched, [&](const rt::Event& e) {
    seen.emplace_back(e.int_field("n"), replay_sched.now());
  });
  replay_sched.run_all();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, 1);
  EXPECT_EQ(seen[1].second - seen[0].second, 250);  // original gap preserved
}

TEST(Scenario, ReplayedKeySessionReproducesTvState) {
  // Record a live session...
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(3));
  tv::TvSystem set(sched, bus, injector);
  obs::ScenarioRecorder recorder(sched, bus, "tv.input");
  recorder.start();
  set.start();
  set.press(tv::Key::kPower);
  sched.run_for(rt::msec(300));
  set.press(tv::Key::kVolumeUp);
  sched.run_for(rt::msec(300));
  set.enter_channel(17);
  sched.run_for(rt::msec(300));
  set.press(tv::Key::kTeletext);
  sched.run_for(rt::msec(300));
  recorder.stop();

  // ... and replay it into a fresh set: same user-visible end state.
  rt::Scheduler sched2;
  rt::EventBus bus2;
  flt::FaultInjector injector2(rt::Rng(3));
  tv::TvSystem set2(sched2, bus2, injector2);
  set2.start();
  recorder.replay(sched2, [&](const rt::Event& ev) {
    const auto key = tv::key_from_string(ev.str_field("key"));
    ASSERT_TRUE(key.has_value());
    set2.press(*key);
  });
  sched2.run_for(rt::sec(3));
  EXPECT_EQ(set2.screen_output(), set.screen_output());
  EXPECT_EQ(set2.sound_output(), set.sound_output());
  EXPECT_EQ(set2.displayed_channel(), set.displayed_channel());
}

// ---------------------------------------------------------- RecoveryEscalator

TEST(Escalation, ClimbsTheLadder) {
  rec::EscalationConfig cfg;
  cfg.failures_per_level = 2;
  cfg.window = rt::sec(100);
  rec::RecoveryEscalator esc(cfg);
  EXPECT_EQ(esc.next_action("u", rt::sec(1)), rec::RecoveryAction::kResync);
  EXPECT_EQ(esc.next_action("u", rt::sec(2)), rec::RecoveryAction::kResync);
  EXPECT_EQ(esc.next_action("u", rt::sec(3)), rec::RecoveryAction::kRestartUnit);
  EXPECT_EQ(esc.next_action("u", rt::sec(4)), rec::RecoveryAction::kRestartUnit);
  EXPECT_EQ(esc.next_action("u", rt::sec(5)), rec::RecoveryAction::kRestartDependents);
  EXPECT_EQ(esc.next_action("u", rt::sec(6)), rec::RecoveryAction::kRestartDependents);
  EXPECT_EQ(esc.next_action("u", rt::sec(7)), rec::RecoveryAction::kFullRestart);
  EXPECT_EQ(esc.next_action("u", rt::sec(8)), rec::RecoveryAction::kFullRestart);
  EXPECT_EQ(esc.next_action("u", rt::sec(9)), rec::RecoveryAction::kGiveUp);
  EXPECT_EQ(esc.give_ups(), 1u);
}

TEST(Escalation, WindowExpiryDecaysLevel) {
  rec::EscalationConfig cfg;
  cfg.failures_per_level = 1;
  cfg.window = rt::sec(10);
  rec::RecoveryEscalator esc(cfg);
  EXPECT_EQ(esc.next_action("u", rt::sec(1)), rec::RecoveryAction::kResync);
  EXPECT_EQ(esc.next_action("u", rt::sec(2)), rec::RecoveryAction::kRestartUnit);
  // Much later: old failures outside the window are forgotten.
  EXPECT_EQ(esc.next_action("u", rt::sec(60)), rec::RecoveryAction::kResync);
}

TEST(Escalation, SuccessResetsUnit) {
  rec::RecoveryEscalator esc;
  esc.next_action("u", rt::sec(1));
  esc.next_action("u", rt::sec(2));
  esc.report_success("u");
  EXPECT_EQ(esc.next_action("u", rt::sec(3)), rec::RecoveryAction::kResync);
}

TEST(Escalation, UnitsAreIndependent) {
  rec::EscalationConfig cfg;
  cfg.failures_per_level = 1;
  rec::RecoveryEscalator esc(cfg);
  EXPECT_EQ(esc.next_action("a", rt::sec(1)), rec::RecoveryAction::kResync);
  EXPECT_EQ(esc.next_action("a", rt::sec(2)), rec::RecoveryAction::kRestartUnit);
  EXPECT_EQ(esc.next_action("b", rt::sec(3)), rec::RecoveryAction::kResync);
}

TEST(Escalation, ActionNames) {
  EXPECT_STREQ(rec::to_string(rec::RecoveryAction::kResync), "resync");
  EXPECT_STREQ(rec::to_string(rec::RecoveryAction::kGiveUp), "give-up");
}

// --------------------------------------------------------- ComponentRanker

TEST(ComponentRanker, AggregatesToFaultyFeature) {
  diag::SyntheticProgramConfig cfg;
  cfg.total_blocks = 6000;
  cfg.feature_count = 12;
  cfg.seed = 5;
  diag::SyntheticProgram prog(cfg);
  const std::size_t per_feature = prog.feature_end(0) - prog.feature_begin(0);
  prog.set_fault_in_feature(4, static_cast<std::size_t>(per_feature * 0.8));

  trader::observation::BlockCoverageRecorder cov(prog.block_count());
  std::vector<std::size_t> scenario;
  for (int i = 0; i < 30; ++i) scenario.push_back(static_cast<std::size_t>(i % 8));
  const auto errors = prog.run_scenario(scenario, cov);
  diag::SflRanker ranker;
  const auto report = ranker.rank(cov, errors);

  const auto components = diag::ComponentRanker::rank(
      report,
      [&prog](std::size_t block) {
        const std::size_t f = prog.feature_of(block);
        return f == static_cast<std::size_t>(-1) ? std::string("infra")
                                                 : "feature" + std::to_string(f);
      });
  ASSERT_FALSE(components.empty());
  EXPECT_EQ(components[0].component, "feature4");
  EXPECT_EQ(diag::ComponentRanker::rank_of(components, "feature4"), 1u);
  EXPECT_GT(diag::ComponentRanker::rank_of(components, "feature7"), 1u);
}

TEST(ComponentRanker, EmptyMappingSkipsBlocks) {
  diag::DiagnosisReport report;
  report.ranking = {{0, 0.9}, {1, 0.5}};
  const auto components = diag::ComponentRanker::rank(
      report, [](std::size_t block) { return block == 0 ? "c" : ""; });
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].component, "c");
  EXPECT_EQ(components[0].blocks, 1u);
}

TEST(ComponentRanker, RankOfAbsentComponent) {
  EXPECT_EQ(diag::ComponentRanker::rank_of({}, "x"), 1u);
}

// -------------------------------------------------------------------- to_dot

TEST(DotExport, RendersStatesTransitionsAndHierarchy) {
  auto def = tv::build_tv_spec_model();
  const std::string dot = sm::to_dot(def);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_"), std::string::npos);  // composite On
  EXPECT_NE(dot.find("label=\"Teletext\""), std::string::npos);
  EXPECT_NE(dot.find("volume_up"), std::string::npos);
  EXPECT_NE(dot.find("after(1500ms)"), std::string::npos);  // digit timeout
  EXPECT_NE(dot.find("/internal"), std::string::npos);
}

TEST(DotExport, MarksGuardsAndCompletions) {
  sm::StateMachineDef def("g");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  def.add_completion(a, b, [](const sm::Context&, const sm::SmEvent&) { return true; });
  const std::string dot = sm::to_dot(def);
  EXPECT_NE(dot.find("<done> [g]"), std::string::npos);
}

// --------------------------------------------- closed-loop integration (Fig. 1)

TEST(ClosedLoop, DetectRecordReplayDiagnoseRecover) {
  // The complete Fig. 1 loop: an awareness monitor detects a failure
  // during live use; the recorded scenario is replayed against an
  // instrumented fresh instance to collect spectra; SFL + component
  // aggregation names the faulty feature; the recovery escalator decides
  // an action and the component is repaired.
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(3));
  tv::TvSystem set(sched, bus, injector);

  core::MonitorBuilder builder(sched, bus);
  builder.model(std::make_unique<core::InterpretedModel>(tv::build_tv_spec_model()))
      .comparison_period(rt::msec(20))
      .startup_grace(rt::msec(100));
  for (const char* name : {"sound_level", "screen_state"}) {
    builder.threshold(name, 0.0, /*max_consecutive=*/3);
  }
  auto monitor = builder.build();
  obs::ScenarioRecorder recorder(sched, bus, "tv.input");

  recorder.start();
  set.start();
  monitor->start();

  // Live use; the audio command channel is silently lossy (the fault).
  injector.schedule(flt::FaultSpec{flt::FaultKind::kMessageLoss, "cmd.audio", rt::msec(600),
                                   rt::msec(300), 1.0, {}});
  set.press(tv::Key::kPower);
  sched.run_for(rt::msec(400));
  set.press(tv::Key::kChannelUp);
  sched.run_for(rt::msec(300));
  set.press(tv::Key::kVolumeUp);  // at ~0.9s: lost -> divergence
  sched.run_for(rt::msec(600));
  set.press(tv::Key::kMute);
  sched.run_for(rt::msec(600));
  recorder.stop();

  // 1. Detection happened.
  ASSERT_FALSE(monitor->errors().empty());
  EXPECT_EQ(monitor->errors()[0].observable, "sound_level");

  // 2. Replay the recorded scenario against a fresh instrumented set;
  //    per key press, record control-block coverage and whether the
  //    sound observable diverged (the error vector).
  rt::Scheduler sched2;
  rt::EventBus bus2;
  flt::FaultInjector injector2(rt::Rng(3));
  injector2.schedule(flt::FaultSpec{flt::FaultKind::kMessageLoss, "cmd.audio", rt::msec(600),
                                    rt::msec(300), 1.0, {}});
  tv::TvSystem set2(sched2, bus2, injector2);
  trader::observation::BlockCoverageRecorder coverage(tv::kBlkCount);
  set2.control_mut().set_block_hook([&](int b) { coverage.hit(static_cast<std::size_t>(b)); });
  set2.start();

  std::vector<bool> errors;
  std::vector<rt::Event> inputs;
  for (const auto& rec_ev : recorder.events()) inputs.push_back(rec_ev.event);
  rt::SimTime at = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto key = tv::key_from_string(inputs[i].str_field("key"));
    ASSERT_TRUE(key.has_value());
    // Honour original timing so the time-windowed fault hits the same press.
    at = recorder.events()[i].at;
    sched2.run_until(at);
    set2.press(*key);
    sched2.run_for(rt::msec(150));
    coverage.end_step();
    errors.push_back(set2.control().expected_sound_level() != set2.sound_output());
  }
  ASSERT_EQ(errors.size(), 4u);
  EXPECT_TRUE(errors[2]);  // the lost volume press diverged

  // 3. Diagnose: block-level SFL then component aggregation.
  diag::SflRanker ranker;
  const auto report = ranker.rank(coverage, errors);
  auto component_of = [](std::size_t block) -> std::string {
    switch (block) {
      case tv::kBlkVolumeUp:
      case tv::kBlkVolumeDown:
      case tv::kBlkUnmuteOnVolume:
      case tv::kBlkMuteToggle:
        return "audio-path";
      case tv::kBlkTtxEnter:
      case tv::kBlkTtxExit:
        return "teletext-path";
      case tv::kBlkChannelUp:
      case tv::kBlkChannelDown:
      case tv::kBlkDigitCommit:
        return "tuner-path";
      default:
        return "infra";
    }
  };
  const auto components = diag::ComponentRanker::rank(report, component_of);
  ASSERT_FALSE(components.empty());
  EXPECT_EQ(components[0].component, "audio-path");

  // 4. Recover per the escalator's advice.
  rec::RecoveryEscalator escalator;
  const auto action = escalator.next_action("audio", sched.now());
  EXPECT_EQ(action, rec::RecoveryAction::kResync);
  set.restart_component("audio");  // resync implementation
  sched.run_for(rt::msec(100));
  EXPECT_EQ(set.sound_output(), set.control().expected_sound_level());
}
