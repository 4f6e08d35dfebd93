// Tests for src/hub: the epoll EventLoop (timer semantics including
// fixed-rate catch-up after a stalled iteration, cross-thread wake),
// HubConnection backpressure policy, the AwarenessHub slot handshake
// (accept / unknown / busy / version / backoff rejection), accept
// storms, hub-driven liveness eviction with exactly-one-outage
// accounting, the publisher agent end to end — in a thread and as a
// forked process killed with SIGKILL — and the campaign differential
// gate: a multi-SUO campaign through the hub must match the in-process
// backends verdict for verdict and fingerprint for fingerprint.
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor_builder.hpp"
#include "gtest/gtest.h"
#include "hub/agent.hpp"
#include "hub/connection.hpp"
#include "hub/event_loop.hpp"
#include "hub/hub.hpp"
#include "ipc/transport.hpp"
#include "ipc/wire.hpp"
#include "runtime/metrics.hpp"
#include "testkit/campaign.hpp"
#include "tv/spec_model.hpp"

namespace rt = trader::runtime;
namespace hub = trader::hub;
namespace ipc = trader::ipc;
namespace core = trader::core;
namespace tk = trader::testkit;
namespace tv = trader::tv;

namespace {

/// Pump `awareness_hub` until `done` returns true or ~2s of wall time
/// passes. The loop itself is the unit under test, so every wait in
/// these tests goes through it.
template <typename Pred>
bool pump_until(hub::AwarenessHub& awareness_hub, Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    if (awareness_hub.poll(10) < 0) return false;
  }
  return true;
}

ipc::Frame hello_frame(const std::string& slot) {
  ipc::Frame f;
  f.type = ipc::FrameType::kHello;
  f.detail = slot;
  return f;
}

/// Connect to the hub and run the kHello handshake, pumping the hub
/// loop between nonblocking receive attempts. Returns the handshake
/// response type (kShutdown on rejection).
ipc::FrameType handshake(hub::AwarenessHub& awareness_hub, ipc::FramedSocket& sock,
                         const std::string& slot) {
  const int fd = ipc::connect_unix_retry(awareness_hub.path(), 2000);
  if (fd < 0) return ipc::FrameType::kShutdown;
  sock = ipc::FramedSocket(fd);
  if (!sock.send(hello_frame(slot))) return ipc::FrameType::kShutdown;
  ipc::Frame ack;
  while (true) {
    const auto st = sock.recv(ack, 0);
    if (st == ipc::FramedSocket::RecvStatus::kFrame) return ack.type;
    if (st != ipc::FramedSocket::RecvStatus::kTimeout) return ipc::FrameType::kShutdown;
    if (awareness_hub.poll(10) < 0) return ipc::FrameType::kShutdown;
  }
}

// ============================================================= event loop

TEST(EventLoopTest, OneShotTimerFiresOnce) {
  hub::EventLoop loop;
  ASSERT_TRUE(loop.valid());
  int fired = 0;
  loop.add_timer(1'000'000, 0, [&fired] { ++fired; });  // 1ms
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (fired == 0 && std::chrono::steady_clock::now() < deadline) loop.poll(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.timer_count(), 0u) << "one-shot must deregister itself";
  loop.poll(20);
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTest, CancelledTimerNeverFires) {
  hub::EventLoop loop;
  int fired = 0;
  const auto id = loop.add_timer(1'000'000, 0, [&fired] { ++fired; });
  loop.cancel_timer(id);
  EXPECT_EQ(loop.timer_count(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  loop.poll(10);
  EXPECT_EQ(fired, 0);
}

TEST(EventLoopTest, PeriodicTimerFiresRepeatedly) {
  hub::EventLoop loop;
  int fired = 0;
  hub::EventLoop::TimerId id = 0;
  id = loop.add_timer(1'000'000, 1'000'000, [&] {
    if (++fired == 3) loop.cancel_timer(id);  // self-cancel from callback
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (fired < 3 && std::chrono::steady_clock::now() < deadline) loop.poll(10);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(loop.timer_count(), 0u);
}

// The heartbeat-deadline drift regression: a fixed-rate timer's next
// deadline is computed from the *scheduled* deadline, so a stalled
// loop iteration yields catch-up fires on resume instead of silently
// stretching the period. A fixed-delay ("now + interval") wheel would
// fire exactly once here and the liveness window would drift by the
// stall length every time the loop hiccuped.
TEST(EventLoopTest, PeriodicTimerCatchesUpAfterStall) {
  hub::EventLoop loop;
  int fired = 0;
  loop.add_timer(20'000'000, 20'000'000, [&fired] { ++fired; });  // 20ms rate
  loop.poll(0);                                                   // arm
  std::this_thread::sleep_for(std::chrono::milliseconds(110));    // stall ~5 periods
  loop.poll(0);
  EXPECT_GE(fired, 4) << "fixed-rate timer must catch up on missed periods";
}

TEST(EventLoopTest, WakeFromAnotherThreadInterruptsPoll) {
  hub::EventLoop loop;
  std::thread waker([&loop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.wake();
  });
  const auto t0 = std::chrono::steady_clock::now();
  loop.poll(5000);  // would block 5s without the wake
  const auto waited = std::chrono::steady_clock::now() - t0;
  waker.join();
  EXPECT_LT(waited, std::chrono::seconds(2));
}

TEST(EventLoopTest, DeferCloseRemovesFd) {
  hub::EventLoop loop;
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  bool readable = false;
  ASSERT_TRUE(loop.add_fd(sv[0], EPOLLIN, [&](std::uint32_t) {
    readable = true;
    loop.defer_close(sv[0]);  // close from inside the callback
  }));
  EXPECT_EQ(loop.fd_count(), 1u);
  ASSERT_EQ(::write(sv[1], "x", 1), 1);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!readable && std::chrono::steady_clock::now() < deadline) loop.poll(10);
  EXPECT_TRUE(readable);
  EXPECT_EQ(loop.fd_count(), 0u);
  ::close(sv[1]);
}

// ============================================================ connection

TEST(HubConnectionTest, BackpressureCountsOncePerEpisodeThenEvicts) {
  hub::EventLoop loop;
  rt::MetricsRegistry metrics;
  hub::ConnectionCounters counters;
  counters.backpressure = &metrics.counter("hub.backpressure");
  hub::ConnectionLimits limits;
  limits.write_soft_water = 512;
  limits.write_high_water = 8 * 1024;

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // Shrink the kernel send buffer so the queue backs up immediately;
  // the peer (sv[1]) never reads.
  const int tiny = 1;
  ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));

  bool closed = false;
  hub::CloseReason reason = hub::CloseReason::kPeerClosed;
  hub::HubConnection conn(
      loop, sv[0], limits, counters, [](const ipc::Frame&) {},
      [&](hub::CloseReason r) {
        closed = true;
        reason = r;
      });

  ipc::Frame f;
  f.type = ipc::FrameType::kOutputEvent;
  f.event.topic = "out.x";
  f.event.name = "sample";
  f.event.fields["pad"] = std::string(256, 'p');

  int sent = 0;
  while (!closed && sent < 4096) {
    conn.send(f);
    ++sent;
  }
  ASSERT_TRUE(closed) << "unread peer must eventually evict the connection";
  EXPECT_EQ(reason, hub::CloseReason::kBackpressure);
  EXPECT_EQ(metrics.snapshot().counter("hub.backpressure"), 1u)
      << "one episode = one count, not one per queued frame";
  EXPECT_FALSE(conn.send(f)) << "dead connection must refuse frames";
  ::close(sv[1]);
}

// ============================================================= handshake

TEST(HubTest, HandshakeAcceptsKnownSlotAndFlipsGate) {
  hub::HubConfig config;
  config.probe_liveness = false;
  hub::AwarenessHub awareness_hub(config);
  const auto gate = awareness_hub.add_slot("tv0");
  ASSERT_TRUE(awareness_hub.start());
  EXPECT_FALSE(gate->load());

  ipc::FramedSocket sock;
  EXPECT_EQ(handshake(awareness_hub, sock, "tv0"), ipc::FrameType::kHelloAck);
  EXPECT_TRUE(gate->load());
  EXPECT_TRUE(awareness_hub.slot_up("tv0"));
  EXPECT_EQ(awareness_hub.connection_count(), 1u);
  EXPECT_EQ(awareness_hub.metrics().counter("hub.accepted"), 1u);

  // Orderly goodbye: gate drops, no outage is reported.
  ipc::Frame bye;
  bye.type = ipc::FrameType::kShutdown;
  sock.send(bye);
  ASSERT_TRUE(pump_until(awareness_hub, [&] { return awareness_hub.connection_count() == 0; }));
  EXPECT_FALSE(gate->load());
  EXPECT_TRUE(awareness_hub.link_errors().empty());
  EXPECT_EQ(awareness_hub.metrics().counter("hub.outages"), 0u);
  awareness_hub.stop();
}

TEST(HubTest, HandshakeRejectsUnknownAndBusySlots) {
  hub::HubConfig config;
  config.probe_liveness = false;
  hub::AwarenessHub awareness_hub(config);
  awareness_hub.add_slot("tv0");
  ASSERT_TRUE(awareness_hub.start());

  ipc::FramedSocket owner;
  ASSERT_EQ(handshake(awareness_hub, owner, "tv0"), ipc::FrameType::kHelloAck);

  ipc::FramedSocket unknown;
  EXPECT_EQ(handshake(awareness_hub, unknown, "nope"), ipc::FrameType::kShutdown);
  ipc::FramedSocket duplicate;
  EXPECT_EQ(handshake(awareness_hub, duplicate, "tv0"), ipc::FrameType::kShutdown);

  // The rejections must not have disturbed the established link.
  ASSERT_TRUE(pump_until(awareness_hub, [&] { return awareness_hub.connection_count() == 1; }));
  EXPECT_TRUE(awareness_hub.slot_up("tv0"));
  EXPECT_EQ(awareness_hub.metrics().counter("hub.rejected"), 2u);
  awareness_hub.stop();
}

// A peer whose [min,max] range shares no version with the hub's is
// refused before it can claim anything: the unclaimed slot stays gated
// shut, the refusal is not an outage, and a compatible peer can still
// claim the slot afterwards.
TEST(HubTest, HandshakeRejectsDisjointVersionRange) {
  hub::HubConfig config;
  config.probe_liveness = false;
  hub::AwarenessHub awareness_hub(config);
  const auto gate = awareness_hub.add_slot("tv0");
  ASSERT_TRUE(awareness_hub.start());

  const int fd = ipc::connect_unix_retry(awareness_hub.path(), 2000);
  ASSERT_GE(fd, 0);
  ipc::FramedSocket sock(fd);
  ipc::Frame hello = hello_frame("tv0");
  hello.min_version = 200;  // far above the hub's [min_version, max_version]
  hello.max_version = 210;
  ASSERT_TRUE(sock.send(hello));
  ipc::Frame reply;
  ASSERT_TRUE(pump_until(awareness_hub, [&] {
    return sock.recv(reply, 0) == ipc::FramedSocket::RecvStatus::kFrame;
  }));
  EXPECT_EQ(reply.type, ipc::FrameType::kShutdown);
  EXPECT_EQ(reply.detail, "version mismatch");
  ASSERT_TRUE(pump_until(awareness_hub, [&] { return awareness_hub.connection_count() == 0; }));
  EXPECT_FALSE(gate->load());
  EXPECT_FALSE(awareness_hub.slot_up("tv0"));
  EXPECT_EQ(awareness_hub.metrics().counter("hub.rejected"), 1u);
  EXPECT_TRUE(awareness_hub.link_errors().empty()) << "an unclaimed reject is not an outage";

  ipc::FramedSocket compatible;
  EXPECT_EQ(handshake(awareness_hub, compatible, "tv0"), ipc::FrameType::kHelloAck);
  EXPECT_TRUE(gate->load());
  awareness_hub.stop();
}

TEST(HubTest, AcceptStormAllSlotsClaimed) {
  constexpr std::size_t kConnections = 64;
  hub::HubConfig config;
  config.probe_liveness = false;
  hub::AwarenessHub awareness_hub(config);
  std::vector<std::shared_ptr<std::atomic<bool>>> gates;
  for (std::size_t k = 0; k < kConnections; ++k) {
    gates.push_back(awareness_hub.add_slot("s" + std::to_string(k)));
  }
  ASSERT_TRUE(awareness_hub.start());

  // Connect and send every kHello *before* the hub runs a single loop
  // iteration: the accept path must drain the whole backlog burst.
  std::vector<ipc::FramedSocket> socks(kConnections);
  for (std::size_t k = 0; k < kConnections; ++k) {
    const int fd = ipc::connect_unix_retry(awareness_hub.path(), 2000);
    ASSERT_GE(fd, 0) << "connect " << k;
    socks[k] = ipc::FramedSocket(fd);
    ASSERT_TRUE(socks[k].send(hello_frame("s" + std::to_string(k))));
  }
  ASSERT_TRUE(pump_until(awareness_hub, [&] {
    return awareness_hub.metrics().counter("hub.accepted") == kConnections;
  }));
  EXPECT_EQ(awareness_hub.connection_count(), kConnections);
  for (std::size_t k = 0; k < kConnections; ++k) {
    EXPECT_TRUE(gates[k]->load()) << "slot s" << k;
    ipc::Frame ack;
    ASSERT_EQ(socks[k].recv(ack, 1000), ipc::FramedSocket::RecvStatus::kFrame);
    EXPECT_EQ(ack.type, ipc::FrameType::kHelloAck);
  }
  EXPECT_EQ(awareness_hub.metrics().counter("hub.accepted"), kConnections);
  for (auto& s : socks) s.close();
  ASSERT_TRUE(pump_until(awareness_hub, [&] { return awareness_hub.connection_count() == 0; }));
  awareness_hub.stop();
}

// ============================================================== liveness

TEST(HubTest, LivenessMissEvictsOnceAndReportsOneOutage) {
  hub::HubConfig config;
  config.probe_liveness = true;
  config.heartbeat_interval_ms = 10;
  config.supervisor.heartbeat_miss_threshold = 2;
  config.supervisor.backoff_initial_ms = 20;
  config.supervisor.backoff_jitter = 0.0;
  hub::AwarenessHub awareness_hub(config);
  const auto gate = awareness_hub.add_slot("tv0");
  ASSERT_TRUE(awareness_hub.start());

  ipc::FramedSocket sock;
  ASSERT_EQ(handshake(awareness_hub, sock, "tv0"), ipc::FrameType::kHelloAck);
  ASSERT_TRUE(gate->load());

  // Never answer a probe: the hub must declare the slot dead after the
  // miss threshold and evict — exactly once, with exactly one report.
  ASSERT_TRUE(pump_until(awareness_hub, [&] { return awareness_hub.connection_count() == 0; }));
  EXPECT_FALSE(gate->load());
  ASSERT_EQ(awareness_hub.link_errors().size(), 1u);
  const auto& report = awareness_hub.link_errors()[0];
  EXPECT_EQ(report.observable, "hub.link/tv0");
  EXPECT_EQ(std::get<std::string>(report.expected), "up");
  EXPECT_EQ(std::get<std::string>(report.observed), "down");
  EXPECT_EQ(awareness_hub.metrics().counter("hub.outages"), 1u);
  EXPECT_GE(awareness_hub.metrics().counter("hub.probes"), 1u);

  // A freshly restarted SUO is picked up immediately: the first
  // reconnect attempt after an outage is free.
  ipc::FramedSocket retry;
  ASSERT_EQ(handshake(awareness_hub, retry, "tv0"), ipc::FrameType::kHelloAck);
  EXPECT_TRUE(gate->load());
  ASSERT_EQ(awareness_hub.link_errors().size(), 1u) << "reconnect is not an outage";
  awareness_hub.stop();
}

// A SUO that dies right after its handshake — before surviving one
// liveness window — is a crash loop, and the supervisor's per-connect
// attempt reset must not hand it a free reconnect every cycle: the hub
// charges consecutive unstable sessions against the capped seeded
// backoff, so the third crash-in-a-row lands behind a real window.
TEST(HubTest, CrashLoopPaysBackoffWindow) {
  hub::HubConfig config;
  config.probe_liveness = false;  // crashes here are abrupt EOFs, not probe deaths
  config.heartbeat_interval_ms = 10;
  config.supervisor.heartbeat_miss_threshold = 2;  // liveness window = 20ms
  config.supervisor.backoff_initial_ms = 40;
  config.supervisor.backoff_jitter = 0.0;  // deterministic window for the test
  hub::AwarenessHub awareness_hub(config);
  const auto gate = awareness_hub.add_slot("tv0");
  ASSERT_TRUE(awareness_hub.start());

  // Crash #1: instant EOF after the handshake. The next attempt is
  // still free (first crash gets the freshly-restarted benefit).
  ipc::FramedSocket s1;
  ASSERT_EQ(handshake(awareness_hub, s1, "tv0"), ipc::FrameType::kHelloAck);
  s1.close();
  ASSERT_TRUE(pump_until(awareness_hub, [&] { return awareness_hub.connection_count() == 0; }));
  EXPECT_EQ(awareness_hub.link_errors().size(), 1u);

  // Crash #2: the second consecutive unstable session arms the window.
  ipc::FramedSocket s2;
  ASSERT_EQ(handshake(awareness_hub, s2, "tv0"), ipc::FrameType::kHelloAck);
  s2.close();
  ASSERT_TRUE(pump_until(awareness_hub, [&] { return awareness_hub.connection_count() == 0; }));
  EXPECT_EQ(awareness_hub.link_errors().size(), 2u);

  // Inside the 40ms window the reconnect is rejected...
  ipc::FramedSocket eager;
  EXPECT_EQ(handshake(awareness_hub, eager, "tv0"), ipc::FrameType::kShutdown);
  EXPECT_FALSE(gate->load());
  EXPECT_GE(awareness_hub.metrics().counter("hub.rejected"), 1u);

  // ...and once it passes the slot accepts again.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ipc::FramedSocket healthy;
  EXPECT_EQ(handshake(awareness_hub, healthy, "tv0"), ipc::FrameType::kHelloAck);
  EXPECT_TRUE(gate->load());
  awareness_hub.stop();
}

// ============================================================= publisher

TEST(HubTest, PublisherStreamsToHorizonAndSaysGoodbye) {
  hub::HubConfig config;
  config.probe_liveness = true;
  config.heartbeat_interval_ms = 10;
  config.namespace_topics = true;
  config.auto_advance = true;
  hub::AwarenessHub awareness_hub(config);

  core::MonitorBuilder builder;
  builder.model(tv::build_tv_spec_model())
      .input_topic("tv0/tv.input")
      .output_topic("tv0/tv.output")
      .comparison_period(rt::msec(50))
      .startup_grace(rt::msec(100));
  builder.threshold("sound_level", 0.0, 3)
      .threshold("screen_state", 0.0, 3)
      .threshold("channel", 0.0, 3)
      .threshold("powered", 0.0, 3);
  awareness_hub.add_monitor("tv0", "tv0", std::move(builder));
  ASSERT_TRUE(awareness_hub.start());

  hub::PublisherConfig pub;
  pub.hub_path = awareness_hub.path();
  pub.name = "tv0";
  pub.horizon = rt::msec(600);
  pub.key_period = rt::msec(100);
  pub.pace_us = 200;  // leave wall time for probes between steps
  hub::PublisherStats stats;
  int rc = -1;
  std::thread suo([&] { rc = hub::run_hub_publisher(pub, &stats); });

  ASSERT_TRUE(pump_until(awareness_hub, [&] {
    return awareness_hub.events_ingested() > 0 && awareness_hub.connection_count() == 0;
  }));
  suo.join();

  EXPECT_EQ(rc, 0) << "publisher must reach its horizon and exit orderly";
  EXPECT_FALSE(stats.rejected);
  EXPECT_FALSE(stats.evicted);
  EXPECT_GT(stats.events_sent, 0u);
  EXPECT_EQ(awareness_hub.events_ingested(), stats.events_sent);
  EXPECT_TRUE(awareness_hub.link_errors().empty()) << "orderly goodbye is not an outage";
  // A faultless TV stream through the hub must not trip the comparator.
  EXPECT_TRUE(awareness_hub.fleet().monitor("tv0").errors().empty());
  awareness_hub.stop();
}

// ============================================================ supervision

namespace {

/// A hub publisher running as a real child process. The destructor
/// SIGKILLs and reaps a child the test did not reap itself, so a failed
/// assertion never leaves a process behind.
struct PublisherProcess {
  pid_t pid = -1;

  explicit PublisherProcess(const hub::PublisherConfig& config) {
    pid = ::fork();
    if (pid == 0) ::_exit(hub::run_hub_publisher(config));
  }
  PublisherProcess(const PublisherProcess&) = delete;
  PublisherProcess& operator=(const PublisherProcess&) = delete;
  ~PublisherProcess() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  /// Reap the child; returns its wait status.
  int reap() {
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    pid = -1;
    return status;
  }
};

}  // namespace

// The hard crash case: the SUO process dies from SIGKILL, so no
// kShutdown goodbye ever arrives. The hub must see the EOF, report the
// outage exactly once and gate the slot shut; a restarted publisher
// must reattach and stream again without a second report.
TEST(HubSupervision, SigkilledPublisherIsReportedOnceAndReconnects) {
  hub::HubConfig config;
  config.probe_liveness = false;  // the EOF alone must reveal the crash
  hub::AwarenessHub awareness_hub(config);
  const auto gate = awareness_hub.add_slot("tv0");
  ASSERT_TRUE(awareness_hub.start());

  hub::PublisherConfig pub;
  pub.hub_path = awareness_hub.path();
  pub.name = "tv0";
  pub.horizon = rt::sec(120);  // outlives the test: only SIGKILL ends it
  pub.key_period = rt::msec(100);
  pub.pace_us = 1000;

  PublisherProcess doomed(pub);
  ASSERT_GT(doomed.pid, 0);
  ASSERT_TRUE(pump_until(awareness_hub, [&] {
    return gate->load() && awareness_hub.events_ingested() > 0;
  }));

  ASSERT_EQ(::kill(doomed.pid, SIGKILL), 0);
  const int killed = doomed.reap();
  EXPECT_TRUE(WIFSIGNALED(killed) && WTERMSIG(killed) == SIGKILL);
  ASSERT_TRUE(pump_until(awareness_hub, [&] { return awareness_hub.connection_count() == 0; }));
  EXPECT_FALSE(gate->load());
  ASSERT_EQ(awareness_hub.link_errors().size(), 1u);
  EXPECT_EQ(awareness_hub.link_errors()[0].observable, "hub.link/tv0");
  EXPECT_EQ(awareness_hub.metrics().counter("hub.outages"), 1u);

  // A restarted publisher reattaches (the first reconnect after an
  // outage is free), streams, and leaves with an orderly goodbye.
  const std::uint64_t ingested_before = awareness_hub.events_ingested();
  pub.horizon = rt::msec(600);
  pub.pace_us = 2000;  // ~60 ms of wall time up, so the gate is seen open
  PublisherProcess restarted(pub);
  ASSERT_GT(restarted.pid, 0);
  bool reattached = false;
  ASSERT_TRUE(pump_until(awareness_hub, [&] {
    reattached = reattached || gate->load();
    return reattached && awareness_hub.events_ingested() > ingested_before &&
           awareness_hub.connection_count() == 0;
  }));
  const int finished = restarted.reap();
  EXPECT_TRUE(WIFEXITED(finished) && WEXITSTATUS(finished) == 0);
  EXPECT_EQ(awareness_hub.metrics().counter("hub.accepted"), 2u);
  EXPECT_EQ(awareness_hub.link_errors().size(), 1u) << "reconnect and goodbye are not outages";
  EXPECT_EQ(awareness_hub.metrics().counter("hub.outages"), 1u);
  awareness_hub.stop();
}

// ============================================================== campaign

// The differential gate for the whole subsystem: the same seeded
// campaign through (a) the single-scheduler in-process bus, (b) an
// in-process 2-shard fleet, and (c) the epoll hub multiplexing every
// aspect over real AF_UNIX connections into a 2-shard fleet must agree
// on every verdict, every detection latency and every golden-trace
// fingerprint. The fingerprints filter to comparator./model. counters,
// so hub.* and ipc.* transport metrics are free to differ — semantics
// are not.
TEST(HubCampaign, HubMatchesInProcessAndIpcVerdictForVerdict) {
  tk::CampaignConfig base;
  base.seed = 77;
  base.scenarios = 20;
  base.draw.aspects = 8;
  base.draw.horizon = rt::msec(400);

  tk::CampaignConfig sharded = base;
  sharded.executor.shards = 2;
  tk::CampaignConfig hb = base;
  hb.executor.ipc = tk::IpcMode::kHub;
  hb.executor.shards = 2;

  const auto in_process = tk::CampaignRunner(base).run();
  const auto sharded_run = tk::CampaignRunner(sharded).run();
  const auto hub_run = tk::CampaignRunner(hb).run();

  ASSERT_EQ(in_process.results.size(), 20u);
  ASSERT_EQ(sharded_run.results.size(), 20u);
  ASSERT_EQ(hub_run.results.size(), 20u);
  for (std::size_t i = 0; i < in_process.results.size(); ++i) {
    const auto& ref = in_process.results[i];
    for (const auto* other : {&sharded_run.results[i], &hub_run.results[i]}) {
      EXPECT_EQ(ref.verdict, other->verdict) << ref.name;
      EXPECT_EQ(ref.detection_latency, other->detection_latency) << ref.name;
      EXPECT_EQ(ref.recovered, other->recovered) << ref.name;
      const auto diff = tk::GoldenTrace::diff(ref.trace, other->trace);
      EXPECT_TRUE(diff.identical) << ref.name << ": " << diff.describe();
    }
  }
  EXPECT_EQ(in_process.golden_trace().fingerprint(), sharded_run.golden_trace().fingerprint());
  EXPECT_EQ(in_process.golden_trace().fingerprint(), hub_run.golden_trace().fingerprint());
}

TEST(HubCampaign, KillAndRestartThroughHubQuiescesAndCompletes) {
  tk::ScenarioScript script;
  script.name("hub-kill-restart").aspects(2).horizon(rt::msec(500));
  script.every(rt::msec(20), rt::msec(20), rt::msec(480));

  tk::ExecutorConfig config;
  config.ipc = tk::IpcMode::kHub;
  config.suo_down_at = rt::msec(120);
  config.suo_up_at = rt::msec(240);

  tk::ScenarioExecutor executor(config);
  const auto result = executor.run(script);

  EXPECT_EQ(result.link_outages, 1u);
  // No fault was planned and the outage itself must not manufacture
  // comparator errors: commands in the window reach neither the model
  // nor the system, and the slot gates quiesce comparison.
  EXPECT_EQ(result.verdict, tk::Verdict::kTrueNegative);
  EXPECT_EQ(result.errors_on_target + result.errors_off_target, 0u);

  bool down_traced = false;
  bool up_traced = false;
  for (const auto& line : result.trace.lines()) {
    if (line.find("link down") != std::string::npos) down_traced = true;
    if (line.find("link up") != std::string::npos) up_traced = true;
  }
  EXPECT_TRUE(down_traced);
  EXPECT_TRUE(up_traced);

  tk::ScenarioExecutor executor2(config);
  const auto replay = executor2.run(script);
  EXPECT_EQ(result.trace.fingerprint(), replay.trace.fingerprint());
}

}  // namespace
