// Tests for the closed observe -> diagnose -> act loop: the hub-side
// RecoveryOrchestrator's four guards (convergence, cooldown, version
// gate, fleet-wide token bucket), idempotent command/ack handling with
// retries and flap quarantine, the §5 escalation ladder driven against
// online SFL suspects, and the RecoveryCampaign scoring the whole loop
// over real AF_UNIX sockets: MTTR vs a supervision-only baseline,
// recovery precision against injector ground truth (uniform draws and
// the shipped fuzz findings), byte-reproducibility at 1/2/4 shards, the
// ≥8-slot correlated-fault storm guard with a v2 peer that must never
// see a kRecover frame, and golden-trace hygiene for hub.recovery.*
// metrics. RecoveryConcurrency.* is the TSan target scripts/check.sh
// runs (ingest vs actuate vs ack vs query).
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fleetdiag/aggregator.hpp"
#include "gtest/gtest.h"
#include "hub/hub.hpp"
#include "hub/recovery.hpp"
#include "ipc/transport.hpp"
#include "ipc/wire.hpp"
#include "recovery/escalation.hpp"
#include "runtime/metrics.hpp"
#include "testkit/diag_campaign.hpp"
#include "testkit/golden_trace.hpp"
#include "testkit/recovery_campaign.hpp"
#include "testkit/scenario.hpp"

namespace diag = trader::diagnosis;
namespace fd = trader::fleetdiag;
namespace hub = trader::hub;
namespace ipc = trader::ipc;
namespace rec = trader::recovery;
namespace rt = trader::runtime;
namespace tk = trader::testkit;

namespace {

/// Orchestrator policy paced for unit tests: jitter off so timings are
/// exact, one failure per ladder rung so escalation is observable fast.
hub::RecoveryConfig fast_config() {
  hub::RecoveryConfig rc;
  rc.enabled = true;
  rc.stable_reports = 2;
  rc.token_capacity = 4;
  rc.token_refill_every = rt::msec(100);
  rc.cooldown = rt::msec(100);
  rc.cooldown_jitter = 0;
  rc.ack_timeout = rt::msec(50);
  rc.max_retries = 1;
  rc.flap_threshold = 2;
  rc.success_reports = 2;
  rc.escalation.failures_per_level = 1;
  rc.escalation.window = rt::sec(60);
  return rc;
}

/// One spectrum report: a failing step touching `block` plus a passing
/// step touching `block + 1` — Ochiai pins `block` as the top suspect.
void feed_error(fd::FleetAggregator& agg, const std::string& slot, std::uint32_t block,
                int reports = 1) {
  for (int i = 0; i < reports; ++i) {
    agg.ingest(slot, std::vector<ipc::SpectrumStep>{{true, {block}}, {false, {block + 1}}});
  }
}

struct SentFrame {
  std::string slot;
  ipc::Frame frame;
};

/// Orchestrator + aggregator + capturing send fn, wired like the hub
/// does it but with the transport faked out.
struct Rig {
  fd::FleetAggregator agg{fd::AggregatorConfig{10, diag::Coefficient::kOchiai, 1}};
  hub::RecoveryOrchestrator orch;
  std::vector<SentFrame> sent;

  explicit Rig(hub::RecoveryConfig cfg = fast_config()) : orch(cfg, agg) {
    orch.set_send([this](const std::string& slot, const ipc::Frame& f) {
      sent.push_back({slot, f});
      return true;
    });
    orch.set_component_of([](std::size_t block) { return "comp" + std::to_string(block); });
  }

  void ack(const std::string& slot, const ipc::Frame& cmd, bool ok) {
    ipc::Frame a;
    a.type = ipc::FrameType::kRecoverAck;
    a.action = cmd.action;
    a.token = cmd.token;
    a.unit = cmd.unit;
    a.ok = ok;
    orch.on_ack(slot, a);
  }
};

template <typename Pred>
bool pump_until(hub::AwarenessHub& awareness_hub, Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    if (awareness_hub.poll(10) < 0) return false;
  }
  return true;
}

/// Connect + kHello handshake; `max_version` lets a test pose as an
/// older peer (the storm-guard's v2 bystander).
bool handshake(hub::AwarenessHub& awareness_hub, ipc::FramedSocket& sock, const std::string& slot,
               std::uint8_t max_version = ipc::kProtocolVersion) {
  const int fd = ipc::connect_unix_retry(awareness_hub.path(), 2000);
  if (fd < 0) return false;
  sock = ipc::FramedSocket(fd);
  ipc::Frame hello;
  hello.type = ipc::FrameType::kHello;
  hello.detail = slot;
  hello.max_version = max_version;
  if (!sock.send(hello)) return false;
  ipc::Frame ack;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() <= deadline) {
    const auto st = sock.recv(ack, 0);
    if (st == ipc::FramedSocket::RecvStatus::kFrame) {
      return ack.type == ipc::FrameType::kHelloAck;
    }
    if (st != ipc::FramedSocket::RecvStatus::kTimeout) return false;
    if (awareness_hub.poll(10) < 0) return false;
  }
  return false;
}

/// One kSpectrum report frame, same shape as feed_error().
ipc::Frame spectrum_frame(std::uint32_t& seq, std::uint32_t block) {
  ipc::Frame f;
  f.type = ipc::FrameType::kSpectrum;
  f.seq = ++seq;
  f.block_count = 64;
  f.spectra.push_back({true, {block}});
  f.spectra.push_back({false, {block + 1}});
  return f;
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

// ==================================================== orchestrator guards

TEST(RecoveryOrchestrator, ConvergenceGateHoldsFireUntilSuspectIsStable) {
  Rig rig;
  rig.orch.slot_up("s0", ipc::kProtocolVersion);

  // Errors present but the candidate was only just baselined: no action.
  feed_error(rig.agg, "s0", 5);
  rig.orch.tick(rt::msec(10));
  EXPECT_TRUE(rig.sent.empty());
  EXPECT_GE(rig.orch.stats().suppressed_unconverged, 1u);

  // One more agreeing report still undercuts stable_reports = 2.
  feed_error(rig.agg, "s0", 5);
  rig.orch.tick(rt::msec(20));
  EXPECT_TRUE(rig.sent.empty());

  // Two agreeing reports after the baseline: the gate opens, the first
  // ladder rung goes out with the suspect's component and block.
  feed_error(rig.agg, "s0", 5);
  rig.orch.tick(rt::msec(30));
  ASSERT_EQ(rig.sent.size(), 1u);
  EXPECT_EQ(rig.sent[0].slot, "s0");
  EXPECT_EQ(rig.sent[0].frame.type, ipc::FrameType::kRecover);
  EXPECT_EQ(rig.sent[0].frame.action,
            static_cast<std::uint8_t>(rec::RecoveryAction::kResync));
  EXPECT_EQ(rig.sent[0].frame.unit, "comp5");
  EXPECT_EQ(rig.sent[0].frame.block, 5u);
  EXPECT_NE(rig.sent[0].frame.token, 0u);
  EXPECT_EQ(rig.orch.stats().sent, 1u);
}

TEST(RecoveryOrchestrator, LadderClimbsPerActionAndGiveUpQuarantines) {
  Rig rig;
  rig.orch.slot_up("s0", ipc::kProtocolVersion);
  feed_error(rig.agg, "s0", 5);
  rig.orch.tick(rt::msec(1));  // baseline the candidate
  feed_error(rig.agg, "s0", 5, 2);

  // Drive 4 acked-but-ineffective actions: each needs fresh error
  // evidence and a cooldown-spaced tick; failures_per_level = 1 climbs
  // one rung per action.
  const rec::RecoveryAction want[] = {
      rec::RecoveryAction::kResync, rec::RecoveryAction::kRestartUnit,
      rec::RecoveryAction::kRestartDependents, rec::RecoveryAction::kFullRestart};
  rt::SimTime now = rt::msec(10);
  for (std::size_t i = 0; i < 4; ++i) {
    rig.orch.tick(now);
    ASSERT_EQ(rig.sent.size(), i + 1) << "action " << i;
    EXPECT_EQ(rig.sent[i].frame.action, static_cast<std::uint8_t>(want[i])) << "action " << i;
    rig.ack("s0", rig.sent[i].frame, /*ok=*/true);
    feed_error(rig.agg, "s0", 5);  // the "repair" did not stop the errors
    now += rt::msec(200);          // beyond cooldown
  }

  // Fifth eligible pass: the escalator answers give-up, which is
  // hub-local — no frame, the slot is quarantined instead.
  rig.orch.tick(now);
  EXPECT_EQ(rig.sent.size(), 4u);
  EXPECT_TRUE(rig.orch.quarantined("s0"));
  EXPECT_EQ(rig.orch.stats().give_ups, 1u);

  // Quarantined means observed, never actuated: more evidence, no frame.
  feed_error(rig.agg, "s0", 5, 2);
  rig.orch.tick(now + rt::sec(1));
  EXPECT_EQ(rig.sent.size(), 4u);
}

TEST(RecoveryOrchestrator, PolicyMaskSkipsDeniedRungUpward) {
  // Operator policy: resync is denied fleet-wide, so the FIRST action
  // lands one rung up the ladder — and the skip is counted, not silent.
  hub::RecoveryConfig cfg = fast_config();
  cfg.policy.allow_resync = false;
  Rig rig(cfg);
  rig.orch.slot_up("s0", ipc::kProtocolVersion);
  feed_error(rig.agg, "s0", 5);
  rig.orch.tick(rt::msec(1));  // baseline the candidate
  feed_error(rig.agg, "s0", 5, 2);
  rig.orch.tick(rt::msec(10));

  ASSERT_EQ(rig.sent.size(), 1u);
  EXPECT_EQ(rig.sent[0].frame.action,
            static_cast<std::uint8_t>(rec::RecoveryAction::kRestartUnit));
  EXPECT_EQ(rig.orch.stats().policy_denied, 1u);
  EXPECT_EQ(rig.orch.stats().sent, 1u);
}

TEST(RecoveryOrchestrator, PolicyDenyAllQuarantinesWithoutActuating) {
  // Every rung denied: the mask climbs straight through the ladder to
  // give-up. Nothing crosses the wire — the slot is parked as "needs
  // service" on the first eligible pass.
  hub::RecoveryConfig cfg = fast_config();
  cfg.policy.allow_resync = false;
  cfg.policy.allow_restart_unit = false;
  cfg.policy.allow_restart_dependents = false;
  cfg.policy.allow_full_restart = false;
  Rig rig(cfg);
  rig.orch.slot_up("s0", ipc::kProtocolVersion);
  feed_error(rig.agg, "s0", 5);
  rig.orch.tick(rt::msec(1));  // baseline the candidate
  feed_error(rig.agg, "s0", 5, 2);
  rig.orch.tick(rt::msec(10));

  EXPECT_TRUE(rig.sent.empty());
  EXPECT_EQ(rig.orch.stats().policy_denied, 4u) << "one skip per masked rung";
  EXPECT_EQ(rig.orch.stats().give_ups, 1u);
  EXPECT_TRUE(rig.orch.quarantined("s0"));
  EXPECT_EQ(rig.orch.stats().sent, 0u);
}

TEST(RecoveryOrchestrator, QuietSuccessDecaysLadderWithoutRestartLoop) {
  Rig rig;
  rig.orch.slot_up("s0", ipc::kProtocolVersion);
  feed_error(rig.agg, "s0", 5);
  rig.orch.tick(rt::msec(1));  // baseline the candidate
  feed_error(rig.agg, "s0", 5, 2);
  rig.orch.tick(rt::msec(10));
  ASSERT_EQ(rig.sent.size(), 1u);
  rig.ack("s0", rig.sent[0].frame, /*ok=*/true);

  // The repair worked: reports keep arriving but carry no new errors.
  // After success_reports quiet reports the ladder decays...
  rig.agg.ingest("s0", std::vector<ipc::SpectrumStep>{{false, {5}}});
  rig.agg.ingest("s0", std::vector<ipc::SpectrumStep>{{false, {5}}});
  rig.orch.tick(rt::sec(1));
  EXPECT_EQ(rig.orch.stats().recovered, 1u);

  // ...and the cumulative (never-zero) historical error count must not
  // re-trigger an action, however long the fleet runs on.
  for (int i = 0; i < 10; ++i) {
    rig.agg.ingest("s0", std::vector<ipc::SpectrumStep>{{false, {5}}});
    rig.orch.tick(rt::sec(2) + rt::msec(200 * i));
  }
  EXPECT_EQ(rig.sent.size(), 1u) << "no restart loop after a successful repair";

  // New error evidence is a different story: the loop re-arms (fresh
  // candidate baseline, then stable reports), and the decayed ladder
  // starts again from resync.
  feed_error(rig.agg, "s0", 5);
  rig.orch.tick(rt::sec(10));  // re-baseline the reset candidate
  feed_error(rig.agg, "s0", 5, 2);
  rig.orch.tick(rt::sec(11));
  ASSERT_EQ(rig.sent.size(), 2u);
  EXPECT_EQ(rig.sent[1].frame.action,
            static_cast<std::uint8_t>(rec::RecoveryAction::kResync));
}

TEST(RecoveryOrchestrator, TokenBucketCapsACorrelatedBurst) {
  hub::RecoveryConfig cfg = fast_config();
  cfg.token_capacity = 3;
  Rig rig(cfg);
  for (int i = 0; i < 8; ++i) {
    const std::string slot = "n" + std::to_string(i);
    rig.orch.slot_up(slot, ipc::kProtocolVersion);
    feed_error(rig.agg, slot, 5);  // all converge on the same suspect
  }
  rig.orch.tick(rt::msec(1));  // baseline every candidate
  for (int i = 0; i < 8; ++i) feed_error(rig.agg, "n" + std::to_string(i), 5, 2);

  // The correlated storm: 8 eligible slots, 3 tokens. Deterministic map
  // order hands the burst to n0..n2; the rest are suppressed, counted.
  rig.orch.tick(rt::msec(10));
  ASSERT_EQ(rig.sent.size(), 3u);
  EXPECT_EQ(rig.sent[0].slot, "n0");
  EXPECT_EQ(rig.sent[1].slot, "n1");
  EXPECT_EQ(rig.sent[2].slot, "n2");
  EXPECT_EQ(rig.orch.stats().suppressed_tokens, 5u);
  // Ack the burst so its ack timeouts don't spend the refilled tokens
  // on retries before n3 gets its turn.
  for (int i = 0; i < 3; ++i) rig.ack(rig.sent[i].slot, rig.sent[i].frame, /*ok=*/true);

  // One refill period -> exactly one more action (no banking, no burst).
  rig.orch.tick(rt::msec(110));
  EXPECT_EQ(rig.sent.size(), 4u);
  EXPECT_EQ(rig.sent[3].slot, "n3");
  rig.orch.tick(rt::msec(119));  // same window: still dry
  EXPECT_EQ(rig.sent.size(), 4u);
}

TEST(RecoveryOrchestrator, CooldownSpacesActionsOnOneSlot) {
  Rig rig;
  rig.orch.slot_up("s0", ipc::kProtocolVersion);
  feed_error(rig.agg, "s0", 5);
  rig.orch.tick(rt::msec(1));  // baseline the candidate
  feed_error(rig.agg, "s0", 5, 2);
  rig.orch.tick(rt::msec(10));
  ASSERT_EQ(rig.sent.size(), 1u);
  rig.ack("s0", rig.sent[0].frame, /*ok=*/true);
  feed_error(rig.agg, "s0", 5);  // fresh evidence immediately

  rig.orch.tick(rt::msec(50));  // inside cooldown (100 ms from action)
  EXPECT_EQ(rig.sent.size(), 1u);
  EXPECT_GE(rig.orch.stats().suppressed_cooldown, 1u);
  rig.orch.tick(rt::msec(120));  // cooldown over
  EXPECT_EQ(rig.sent.size(), 2u);
}

TEST(RecoveryOrchestrator, FailedAcksFlapTheSlotIntoQuarantine) {
  Rig rig;  // flap_threshold = 2
  rig.orch.slot_up("s0", ipc::kProtocolVersion);
  feed_error(rig.agg, "s0", 5);
  rig.orch.tick(rt::msec(1));  // baseline the candidate
  feed_error(rig.agg, "s0", 5, 2);
  rig.orch.tick(rt::msec(10));
  ASSERT_EQ(rig.sent.size(), 1u);
  rig.ack("s0", rig.sent[0].frame, /*ok=*/false);
  EXPECT_EQ(rig.orch.stats().acked_fail, 1u);
  EXPECT_FALSE(rig.orch.quarantined("s0"));

  feed_error(rig.agg, "s0", 5);
  rig.orch.tick(rt::msec(200));
  ASSERT_EQ(rig.sent.size(), 2u);
  rig.ack("s0", rig.sent[1].frame, /*ok=*/false);
  EXPECT_TRUE(rig.orch.quarantined("s0"));
  EXPECT_EQ(rig.orch.quarantined_count(), 1u);
  EXPECT_EQ(rig.orch.stats().quarantined, 1u);
}

TEST(RecoveryOrchestrator, TimeoutRetriesSameTokenThenCountsAFlap) {
  hub::RecoveryConfig cfg = fast_config();
  cfg.flap_threshold = 1;  // first exhausted command quarantines
  Rig rig(cfg);
  rig.orch.slot_up("s0", ipc::kProtocolVersion);
  feed_error(rig.agg, "s0", 5);
  rig.orch.tick(rt::msec(1));  // baseline the candidate
  feed_error(rig.agg, "s0", 5, 2);
  rig.orch.tick(rt::msec(10));
  ASSERT_EQ(rig.sent.size(), 1u);
  ASSERT_TRUE(rig.orch.has_outstanding("s0"));

  // No ack for ack_timeout: the retry carries the SAME token (the SUO
  // side dedupes on it) and is counted as a retry, not a fresh send.
  rig.orch.tick(rt::msec(70));
  ASSERT_EQ(rig.sent.size(), 2u);
  EXPECT_EQ(rig.sent[1].frame.token, rig.sent[0].frame.token);
  EXPECT_EQ(rig.orch.stats().sent, 1u);
  EXPECT_EQ(rig.orch.stats().retries, 1u);

  // Still no ack and max_retries = 1 exhausted: flap -> quarantine.
  rig.orch.tick(rt::msec(200));
  EXPECT_TRUE(rig.orch.quarantined("s0"));
  EXPECT_GE(rig.orch.stats().timeouts, 2u);
}

TEST(RecoveryOrchestrator, StaleAndDuplicateAcksAreCountedAndDropped) {
  Rig rig;
  rig.orch.slot_up("s0", ipc::kProtocolVersion);
  feed_error(rig.agg, "s0", 5);
  rig.orch.tick(rt::msec(1));  // baseline the candidate
  feed_error(rig.agg, "s0", 5, 2);
  rig.orch.tick(rt::msec(10));
  ASSERT_EQ(rig.sent.size(), 1u);

  // A wrong-token ack is dropped; the real command stays outstanding.
  ipc::Frame stale = rig.sent[0].frame;
  stale.token ^= 0xdeadULL;
  rig.ack("s0", stale, true);
  EXPECT_TRUE(rig.orch.has_outstanding("s0"));
  EXPECT_EQ(rig.orch.stats().duplicate_acks, 1u);
  EXPECT_EQ(rig.orch.stats().acked_ok, 0u);

  // The real ack consumes it; its duplicate is counted and ignored.
  rig.ack("s0", rig.sent[0].frame, true);
  EXPECT_FALSE(rig.orch.has_outstanding("s0"));
  EXPECT_EQ(rig.orch.stats().acked_ok, 1u);
  rig.ack("s0", rig.sent[0].frame, true);
  EXPECT_EQ(rig.orch.stats().duplicate_acks, 2u);
  EXPECT_EQ(rig.orch.stats().acked_ok, 1u);

  // An ack for a slot the orchestrator never saw is equally harmless.
  rig.ack("ghost", rig.sent[0].frame, true);
  EXPECT_EQ(rig.orch.stats().duplicate_acks, 3u);
}

TEST(RecoveryOrchestrator, VersionGateKeepsV2PeersObservedOnly) {
  Rig rig;
  rig.orch.slot_up("old", 2);  // negotiated v2: spectra yes, recovery no
  feed_error(rig.agg, "old", 5);
  rig.orch.tick(rt::msec(10));  // baseline the candidate
  feed_error(rig.agg, "old", 5, 4);
  rig.orch.tick(rt::msec(500));  // converged — but only v2-capable
  rig.orch.tick(rt::sec(1));
  EXPECT_TRUE(rig.sent.empty());
  EXPECT_GE(rig.orch.stats().suppressed_version, 1u);
  EXPECT_FALSE(rig.orch.quarantined("old"));
}

TEST(RecoveryOrchestrator, RetireSlotDropsOrchestrationAndLadderState) {
  hub::RecoveryConfig cfg = fast_config();
  cfg.flap_threshold = 1;
  Rig rig(cfg);
  rig.orch.slot_up("s0", ipc::kProtocolVersion);
  feed_error(rig.agg, "s0", 5);
  rig.orch.tick(rt::msec(1));  // baseline the candidate
  feed_error(rig.agg, "s0", 5, 2);
  rig.orch.tick(rt::msec(10));
  ASSERT_EQ(rig.sent.size(), 1u);
  rig.ack("s0", rig.sent[0].frame, /*ok=*/false);  // flap -> quarantine
  ASSERT_TRUE(rig.orch.quarantined("s0"));
  ASSERT_EQ(rig.orch.quarantined_count(), 1u);

  // Retirement frees everything (mirrors FleetAggregator::retire_slot).
  rig.orch.retire_slot("s0");
  EXPECT_EQ(rig.orch.quarantined_count(), 0u);
  EXPECT_FALSE(rig.orch.quarantined("s0"));

  // If the name ever returns it starts clean: fresh quarantine budget
  // AND a fresh ladder (resync, not mid-climb where the old slot died).
  rig.agg.retire_slot("s0");
  rig.orch.slot_up("s0", ipc::kProtocolVersion);
  feed_error(rig.agg, "s0", 5);
  rig.orch.tick(rt::sec(2));  // baseline the fresh candidate
  feed_error(rig.agg, "s0", 5, 2);
  rig.orch.tick(rt::sec(3));
  ASSERT_EQ(rig.sent.size(), 2u);
  EXPECT_EQ(rig.sent[1].frame.action,
            static_cast<std::uint8_t>(rec::RecoveryAction::kResync));
}

TEST(RecoveryOrchestrator, SlotDownLosesOutstandingCommandSafely) {
  Rig rig;
  rig.orch.slot_up("s0", ipc::kProtocolVersion);
  feed_error(rig.agg, "s0", 5);
  rig.orch.tick(rt::msec(1));  // baseline the candidate
  feed_error(rig.agg, "s0", 5, 2);
  rig.orch.tick(rt::msec(10));
  ASSERT_TRUE(rig.orch.has_outstanding("s0"));

  rig.orch.slot_down("s0");
  EXPECT_FALSE(rig.orch.has_outstanding("s0"));
  EXPECT_EQ(rig.orch.stats().lost, 1u);

  // A late ack from the dead connection's command is a dropped duplicate.
  rig.ack("s0", rig.sent[0].frame, true);
  EXPECT_EQ(rig.orch.stats().duplicate_acks, 1u);
}

// ==================================================== closed loop, sockets

TEST(RecoveryLoop, ClosedLoopRepairsAndBeatsSupervisionOnlyMttr) {
  tk::RecoveryCampaignConfig cfg;
  cfg.scenarios = 6;
  cfg.seed = 101;

  tk::RecoveryCampaign closed(cfg);
  const tk::RecoveryCampaignReport with = closed.run();

  tk::RecoveryCampaignConfig base_cfg = cfg;
  base_cfg.orchestrate = false;
  tk::RecoveryCampaign baseline(base_cfg);
  const tk::RecoveryCampaignReport without = baseline.run();

  // Identical scenario stream on both arms.
  ASSERT_EQ(with.scenarios, without.scenarios);
  ASSERT_EQ(with.scored, without.scored);
  ASSERT_GE(with.scored, 4u) << "draw produced too few manifest faults to score";

  // Supervision alone never repairs: every scored scenario rides its
  // fault to the horizon (right-censored downtime).
  EXPECT_EQ(without.repaired, 0u);
  EXPECT_EQ(without.censored, without.scored);

  // The closed loop actually repairs, and repairs the right component.
  EXPECT_GE(with.repaired, with.scored - 1) << with.to_json();
  EXPECT_GE(with.precision(), 5.0 / 6.0) << with.to_json();
  EXPECT_LT(with.mean_downtime_ms, 0.5 * without.mean_downtime_ms)
      << "MTTR should beat the censored baseline by a wide margin";

  // Byte-reproducible: an identically configured campaign re-runs to
  // the exact same report text (virtual-time decisions only).
  tk::RecoveryCampaign again(cfg);
  EXPECT_EQ(again.run().to_json(), with.to_json());
}

TEST(RecoveryLoop, CampaignReportIsShardInvariant) {
  tk::RecoveryCampaignConfig cfg;
  cfg.scenarios = 4;
  cfg.seed = 77;
  cfg.shards = 1;
  const std::string one = tk::RecoveryCampaign(cfg).run().to_json();
  cfg.shards = 2;
  const std::string two = tk::RecoveryCampaign(cfg).run().to_json();
  cfg.shards = 4;
  const std::string four = tk::RecoveryCampaign(cfg).run().to_json();
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

TEST(RecoveryLoop, FuzzFindingsAreRepairedWithPrecision) {
  const std::string path = corpus_path();
  ASSERT_FALSE(path.empty()) << "tests/data/FUZZ_corpus.json must ship with the tests";
  const auto findings = tk::load_findings(path);
  ASSERT_GE(findings.size(), 6u);

  // Minimized findings carry ~one command — just enough to trip
  // detection. Under the persistent-fault model the fault is still live
  // afterwards, so the recovery loop gets a padded observation window
  // to converge and land the repair in.
  tk::RecoveryCampaignConfig cfg;
  std::vector<tk::LabeledScenario> extended = findings;
  for (tk::LabeledScenario& entry : extended) {
    entry.script = tk::extend_for_recovery(entry.script, rt::msec(2000), cfg.draw.cadence);
  }
  tk::RecoveryCampaign campaign(cfg);
  const tk::RecoveryCampaignReport report = campaign.run(extended);

  EXPECT_EQ(report.scenarios, findings.size());
  ASSERT_GE(report.scored, 5u) << report.to_json();
  EXPECT_GE(report.repaired, report.scored - 1) << report.to_json();
  // The acceptance bar: ≥ 5/6 of restart-class recoveries hit the
  // component the injector actually broke.
  ASSERT_GT(report.with_restart, 0u) << report.to_json();
  EXPECT_GE(report.precision(), 5.0 / 6.0) << report.to_json();
}

TEST(RecoveryLoop, StormGuardBudgetsCorrelatedFaultAndSparesV2Peer) {
  // ≥ 8 slots hit by a correlated fault at once, plus one v2 bystander.
  // The token bucket must cap actuation per refill window, flapping
  // slots must end quarantined, and the v2 peer must see ZERO kRecover
  // frames (its fail-closed decoder would poison the link).
  constexpr int kSlots = 8;
  hub::HubConfig cfg;
  cfg.probe_liveness = false;
  cfg.diag.refresh_every = 1;
  cfg.recovery.enabled = true;
  cfg.recovery.stable_reports = 1;
  cfg.recovery.token_capacity = 3;
  cfg.recovery.token_refill_every = rt::msec(100);
  cfg.recovery.cooldown = rt::msec(50);
  cfg.recovery.cooldown_jitter = 0;
  cfg.recovery.ack_timeout = rt::sec(5);  // no timeouts in this test
  cfg.recovery.flap_threshold = 1;        // first failed ack quarantines
  hub::AwarenessHub awareness_hub(cfg);
  std::vector<std::string> names;
  for (int i = 0; i < kSlots; ++i) names.push_back("n" + std::to_string(i));
  for (const std::string& n : names) awareness_hub.add_slot(n);
  awareness_hub.add_slot("v2peer");
  awareness_hub.recovery().set_component_of(
      [](std::size_t block) { return "comp" + std::to_string(block); });
  ASSERT_TRUE(awareness_hub.start());

  std::vector<ipc::FramedSocket> socks(kSlots);
  for (int i = 0; i < kSlots; ++i) {
    ASSERT_TRUE(handshake(awareness_hub, socks[i], names[static_cast<std::size_t>(i)]));
  }
  ipc::FramedSocket v2sock;
  ASSERT_TRUE(handshake(awareness_hub, v2sock, "v2peer", /*max_version=*/2));

  std::uint32_t seq = 0;
  std::uint64_t reports = 0;
  const auto feed_all = [&] {
    for (int i = 0; i < kSlots; ++i) {
      if (!socks[static_cast<std::size_t>(i)].send(spectrum_frame(seq, 7))) return false;
    }
    if (!v2sock.send(spectrum_frame(seq, 7))) return false;  // v2 streams spectra too
    ++reports;
    return pump_until(awareness_hub, [&] {
      for (const std::string& n : names) {
        if (awareness_hub.diagnosis().health(n).reports < reports) return false;
      }
      return awareness_hub.diagnosis().health("v2peer").reports >= reports;
    });
  };

  std::vector<int> recovers_per_sock(kSlots, 0);
  int v2_recovers = 0;
  bool v2_saw_any = false;
  const auto drain_and_nack = [&] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
      bool outstanding = false;
      for (const std::string& n : names) {
        outstanding = outstanding || awareness_hub.recovery().has_outstanding(n);
      }
      if (!outstanding) return true;
      if (std::chrono::steady_clock::now() > deadline) return false;
      for (int i = 0; i < kSlots; ++i) {
        auto& sock = socks[static_cast<std::size_t>(i)];
        ipc::Frame f;
        while (sock.recv(f, 0) == ipc::FramedSocket::RecvStatus::kFrame) {
          if (f.type != ipc::FrameType::kRecover) continue;
          ++recovers_per_sock[static_cast<std::size_t>(i)];
          ipc::Frame ack;  // the fault is sticky: every recovery fails
          ack.type = ipc::FrameType::kRecoverAck;
          ack.action = f.action;
          ack.token = f.token;
          ack.unit = f.unit;
          ack.ok = false;
          ack.detail = "still broken";
          if (!sock.send(ack)) return false;
        }
      }
      {
        ipc::Frame f;
        while (v2sock.recv(f, 0) == ipc::FramedSocket::RecvStatus::kFrame) {
          v2_saw_any = true;
          if (f.type == ipc::FrameType::kRecover) ++v2_recovers;
        }
      }
      if (awareness_hub.poll(10) < 0) return false;
    }
  };

  // Window 0 baselines every candidate; each later window carries one
  // fresh agreeing report, a tick, and the failed-ack drain.
  ASSERT_TRUE(feed_all());
  awareness_hub.run_until(rt::msec(100));
  ASSERT_GE(awareness_hub.poll(0), 0);
  for (int w = 1;
       w <= 12 && awareness_hub.recovery().quarantined_count() < static_cast<std::size_t>(kSlots);
       ++w) {
    ASSERT_TRUE(feed_all());
    awareness_hub.run_until(rt::msec(100) * (w + 1));
    ASSERT_GE(awareness_hub.poll(0), 0);
    ASSERT_TRUE(drain_and_nack()) << "window " << w;
  }

  const hub::RecoveryStats stats = awareness_hub.recovery().stats();

  // Every flapping slot ended quarantined, after exactly one command.
  EXPECT_EQ(awareness_hub.recovery().quarantined_count(), static_cast<std::size_t>(kSlots));
  int total = 0;
  for (int i = 0; i < kSlots; ++i) {
    EXPECT_EQ(recovers_per_sock[static_cast<std::size_t>(i)], 1) << "slot n" << i;
    total += recovers_per_sock[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(static_cast<std::uint64_t>(total), stats.sent + stats.retries);

  // The storm never outran the bucket: per refill window, at most
  // token_capacity actuations across the whole fleet.
  std::map<rt::SimTime, int> per_window;
  for (const hub::RecoveryActionRecord& rec : awareness_hub.recovery().actions()) {
    ++per_window[rec.at / cfg.recovery.token_refill_every];
  }
  for (const auto& [window, count] : per_window) {
    EXPECT_LE(count, cfg.recovery.token_capacity) << "window " << window;
  }
  EXPECT_GT(stats.suppressed_tokens, 0u) << "the storm should have hit the budget";

  // The v2 peer was diagnosed (spectra accepted) but never actuated.
  EXPECT_GE(awareness_hub.diagnosis().health("v2peer").reports, 1u);
  EXPECT_EQ(v2_recovers, 0) << "a v2 link must never carry kRecover";
  EXPECT_GT(stats.suppressed_version, 0u);
  EXPECT_FALSE(awareness_hub.recovery().quarantined("v2peer"));
  (void)v2_saw_any;

  awareness_hub.stop();
}

TEST(RecoveryLoop, GoldenTraceFingerprintsExcludeRecoveryMetrics) {
  // hub.recovery.* counters move with wall-clock poll interleaving
  // (suppression tallies), so like ipc.* they must stay out of
  // shard-differential fingerprints — while remaining addressable for
  // operators who ask for them explicitly.
  rt::MetricsRegistry metrics;
  fd::FleetAggregator agg(fd::AggregatorConfig{10, diag::Coefficient::kOchiai, 1});
  hub::RecoveryConfig cfg = fast_config();
  hub::RecoveryOrchestrator orch(cfg, agg, &metrics);
  orch.set_send([](const std::string&, const ipc::Frame&) { return true; });
  orch.slot_up("s0", ipc::kProtocolVersion);
  feed_error(agg, "s0", 5);
  orch.tick(rt::msec(1));  // baseline the candidate
  feed_error(agg, "s0", 5, 2);
  orch.tick(rt::msec(10));
  ASSERT_EQ(orch.stats().sent, 1u);

  const rt::MetricsSnapshot snap = metrics.snapshot();
  tk::GoldenTrace fingerprinted;
  fingerprinted.capture_metrics(snap, {"comparator.", "model."});
  for (const std::string& line : fingerprinted.lines()) {
    EXPECT_EQ(line.find("hub.recovery."), std::string::npos) << line;
  }

  tk::GoldenTrace operators_view;
  operators_view.capture_metrics(snap, {"hub.recovery."});
  EXPECT_FALSE(operators_view.empty())
      << "hub.recovery.* must stay addressable through the prefix filter";
}

// ======================================================== TSan harness

TEST(RecoveryConcurrency, IngestActuateAckAndQueryRaceSafely) {
  // 4 threads against one orchestrator + aggregator: spectra ingest,
  // virtual-time ticks, ack delivery, and introspection queries.
  // scripts/check.sh runs this under TSan; the assertions here are
  // sanity only — the sanitizer is the real oracle.
  fd::FleetAggregator agg(fd::AggregatorConfig{10, diag::Coefficient::kOchiai, 1});
  hub::RecoveryConfig cfg = fast_config();
  cfg.cooldown = rt::msec(10);
  cfg.flap_threshold = 1000;  // keep slots actionable for the whole run
  hub::RecoveryOrchestrator orch(cfg, agg);

  std::mutex mu;
  std::deque<SentFrame> inbox;
  orch.set_send([&](const std::string& slot, const ipc::Frame& f) {
    std::lock_guard<std::mutex> lock(mu);
    inbox.push_back({slot, f});
    return true;
  });
  orch.set_component_of([](std::size_t block) { return "comp" + std::to_string(block); });
  const std::vector<std::string> slots = {"a", "b", "c", "d"};
  for (const std::string& s : slots) orch.slot_up(s, ipc::kProtocolVersion);

  std::atomic<bool> stop{false};
  std::thread ingester([&] {
    // Fixed suspect block per slot, so rankings can actually converge.
    for (int i = 0; i < 400; ++i) {
      const std::size_t s = static_cast<std::size_t>(i) % slots.size();
      feed_error(agg, slots[s], static_cast<std::uint32_t>(5 + s));
    }
  });
  std::thread ticker([&] {
    for (int t = 0; t < 400; ++t) orch.tick(rt::msec(5) * t);
  });
  std::thread acker([&] {
    std::uint64_t acked = 0;
    while (!stop.load(std::memory_order_acquire) || !inbox.empty()) {
      SentFrame cmd;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (inbox.empty()) continue;
        cmd = inbox.front();
        inbox.pop_front();
      }
      ipc::Frame ack;
      ack.type = ipc::FrameType::kRecoverAck;
      ack.action = cmd.frame.action;
      ack.token = cmd.frame.token;
      ack.unit = cmd.frame.unit;
      ack.ok = (++acked % 3) != 0;
      orch.on_ack(cmd.slot, ack);
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)orch.stats();
      (void)orch.quarantined_count();
      (void)orch.actions();
      (void)agg.fleet_health();
    }
  });

  ingester.join();
  ticker.join();
  // Deterministic tail: with ingest quiesced, baseline + stable reports
  // + tick guarantees at least one command regardless of how the
  // concurrent phase interleaved (the acker is still live to consume).
  for (int i = 0; orch.stats().sent == 0 && i < 50; ++i) {
    feed_error(agg, "a", 5);
    orch.tick(rt::sec(100) + rt::msec(100 * i));
  }
  stop.store(true, std::memory_order_release);
  acker.join();
  reader.join();

  // Every frame the orchestrator emitted got exactly one ack back, and
  // each ack was either consumed or dropped as a duplicate — nothing
  // double-counted, nothing lost.
  const hub::RecoveryStats stats = orch.stats();
  EXPECT_EQ(stats.acked_ok + stats.acked_fail + stats.duplicate_acks,
            stats.sent + stats.retries);
  EXPECT_GE(stats.sent, 1u);
}
