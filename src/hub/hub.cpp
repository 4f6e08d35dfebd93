#include "hub/hub.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "ipc/transport.hpp"

namespace trader::hub {

namespace {

/// Bucket edges for frames-per-drain batches (power of two grid).
std::vector<double> batch_bounds() { return {1, 2, 4, 8, 16, 32, 64, 128, 256}; }

std::string auto_path() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  return "@trader-hub-" + std::to_string(::getpid()) + "-" + std::to_string(n);
}

}  // namespace

AwarenessHub::AwarenessHub(HubConfig config)
    : config_(std::move(config)),
      fleet_(core::ShardedFleetConfig{config_.shards, config_.epoch, config_.seed}),
      diag_(config_.diag, &metrics_),
      recovery_(config_.recovery, diag_, &metrics_) {
  if (config_.path.empty()) config_.path = auto_path();
  install_live_send();
  if (config_.journal.enabled) {
    journal_ = std::make_unique<journal::HubJournal>(config_.journal, &metrics_);
  }
  journal_parts_ = {&diag_, &recovery_, this};
  loop_.set_metrics(&metrics_);
  spectra_frames_ = &metrics_.counter("hub.spectra_frames");
  conn_counters_.frames_in = &metrics_.counter("hub.frames_in");
  conn_counters_.frames_out = &metrics_.counter("hub.frames_out");
  conn_counters_.bytes_in = &metrics_.counter("hub.bytes_in");
  conn_counters_.bytes_out = &metrics_.counter("hub.bytes_out");
  conn_counters_.decode_errors = &metrics_.counter("hub.decode_errors");
  conn_counters_.backpressure = &metrics_.counter("hub.backpressure");
  conn_counters_.batch_frames = &metrics_.histogram("hub.batch_frames", batch_bounds());
  connections_gauge_ = &metrics_.gauge("hub.connections");
  accepted_ = &metrics_.counter("hub.accepted");
  rejected_ = &metrics_.counter("hub.rejected");
  evicted_ = &metrics_.counter("hub.evicted");
  outages_ = &metrics_.counter("hub.outages");
  probes_ = &metrics_.counter("hub.probes");
  rtt_ns_ = &metrics_.histogram("hub.rtt_ns");
}

AwarenessHub::~AwarenessHub() { stop(); }

std::shared_ptr<std::atomic<bool>> AwarenessHub::add_slot(const std::string& name) {
  auto it = slots_.find(name);
  if (it != slots_.end()) return it->second->gate;
  auto slot = std::make_unique<Slot>();
  slot->name = name;
  // Derive the jitter stream per slot so backoff is deterministic per
  // slot name but decorrelated across the fleet.
  ipc::SupervisorConfig sup = config_.supervisor;
  sup.jitter_seed ^= std::hash<std::string>{}(name);
  slot->supervisor = ipc::ProcessSupervisor(sup);
  slot->gate = std::make_shared<std::atomic<bool>>(false);
  auto* raw = slot.get();
  slots_.emplace(name, std::move(slot));
  return raw->gate;
}

std::shared_ptr<std::atomic<bool>> AwarenessHub::slot_gate(const std::string& name) {
  return add_slot(name);
}

core::AwarenessMonitor& AwarenessHub::add_monitor(const std::string& slot,
                                                  const std::string& aspect,
                                                  core::MonitorBuilder builder) {
  add_slot(slot);
  return fleet_.add_monitor(aspect, std::move(builder));
}

void AwarenessHub::install_live_send() {
  recovery_.set_send([this](const std::string& name, const ipc::Frame& f) {
    auto it = slots_.find(name);
    if (it == slots_.end() || it->second->conn == nullptr) return false;
    ipc::Frame out = f;
    out.seq = ++it->second->seq;
    return it->second->conn->send(out);
  });
}

bool AwarenessHub::start() {
  if (listen_fd_ >= 0) return true;
  if (!loop_.valid()) return false;
  if (journal_ != nullptr && !journal_->active() && !recover_from_journal()) {
    return false;  // fail closed: a damaged journal must not serve guessed state
  }
  listen_fd_ = ipc::listen_unix(config_.path, config_.listen_backlog);
  if (listen_fd_ < 0) return false;
  ipc::set_nonblocking(listen_fd_, true);
  loop_.add_fd(listen_fd_, EPOLLIN, [this](std::uint32_t ev) { on_accept_ready(ev); });
  if (config_.probe_liveness) {
    const std::int64_t interval = config_.heartbeat_interval_ms * 1'000'000;
    probe_timer_ = loop_.add_timer(interval, interval, [this] { probe_tick(); });
  }
  fleet_.start();
  trace(runtime::TraceLevel::kInfo, "listening on " + config_.path);
  return true;
}

void AwarenessHub::stop() {
  if (listen_fd_ < 0 && connections_.empty()) return;
  stopping_ = true;  // suppress outage reports for our own teardown
  if (probe_timer_ != 0) {
    loop_.cancel_timer(probe_timer_);
    probe_timer_ = 0;
  }
  // Orderly goodbye to every live peer, then drop the links.
  std::vector<Peer*> peers;
  peers.reserve(connections_.size());
  for (auto& [raw, owned] : connections_) peers.push_back(raw);
  for (Peer* p : peers) {
    ipc::Frame bye;
    bye.type = ipc::FrameType::kShutdown;
    bye.detail = "hub stopping";
    p->conn->send(bye);
    p->conn->close(CloseReason::kEvicted);
  }
  reap();
  if (listen_fd_ >= 0) {
    loop_.defer_close(listen_fd_);
    ipc::unlink_unix(config_.path);
    listen_fd_ = -1;
  }
  fleet_.stop();
  // Clean shutdown = checkpoint: the next start() restores from the
  // snapshot alone instead of replaying the whole tail.
  if (journal_ != nullptr && journal_->active()) {
    journal_->checkpoint_now(journal_parts_);
  }
  stopping_ = false;
}

void AwarenessHub::simulate_crash() {
  if (journal_ != nullptr) journal_->abandon();
  stopping_ = true;  // a crash reports no outages: the hub died, not the links
  std::vector<Peer*> peers;
  peers.reserve(connections_.size());
  for (auto& [raw, owned] : connections_) peers.push_back(raw);
  for (Peer* p : peers) p->conn->close(CloseReason::kEvicted);
  reap();
  if (probe_timer_ != 0) {
    loop_.cancel_timer(probe_timer_);
    probe_timer_ = 0;
  }
  if (listen_fd_ >= 0) {
    loop_.defer_close(listen_fd_);
    ipc::unlink_unix(config_.path);
    listen_fd_ = -1;
  }
  fleet_.stop();
  stopping_ = false;
}

int AwarenessHub::poll(int timeout_ms) {
  const int n = loop_.poll(timeout_ms);
  reap();
  if (config_.auto_advance) auto_advance();
  // Actuate after advancing: decisions are keyed on the fleet's virtual
  // clock, so a lockstep driver sees the same action sequence at any
  // shard count or poll cadence.
  if (config_.recovery.enabled) {
    // The tick itself is journaled — actuation decisions are pure
    // functions of (state, virtual time), so replaying the tick times
    // re-makes the same decisions.
    if (journal_ != nullptr) journal_->append_tick(fleet_.now());
    recovery_.tick(fleet_.now());
  }
  if (journal_ != nullptr) journal_->on_batch_end(journal_parts_);
  return n;
}

void AwarenessHub::run() {
  while (!loop_.stop_requested()) {
    if (poll(-1) < 0) break;
  }
}

bool AwarenessHub::slot_up(const std::string& name) const {
  const auto it = slots_.find(name);
  return it != slots_.end() && it->second->gate->load(std::memory_order_relaxed);
}

const ipc::ProcessSupervisor* AwarenessHub::slot_supervisor(const std::string& name) const {
  const auto it = slots_.find(name);
  return it != slots_.end() ? &it->second->supervisor : nullptr;
}

runtime::MetricsSnapshot AwarenessHub::metrics() const {
  runtime::MetricsSnapshot snap = metrics_.snapshot();
  snap.merge(fleet_.metrics());
  return snap;
}

void AwarenessHub::on_accept_ready(std::uint32_t /*events*/) {
  // Drain the whole accept backlog: under an accept storm the listener
  // becomes readable once for many pending connections.
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient accept failure
    }
    auto peer = std::make_unique<Peer>();
    Peer* raw = peer.get();
    peer->conn = std::make_unique<HubConnection>(
        loop_, fd, config_.limits, conn_counters_,
        [this, raw](const ipc::Frame& f) { on_frame(raw, f); },
        [this, raw](CloseReason r) { on_close(raw, r); });
    connections_.emplace(raw, std::move(peer));
    connections_gauge_->set(static_cast<double>(connections_.size()));
  }
}

void AwarenessHub::on_frame(Peer* peer, const ipc::Frame& f) {
  if (peer->slot == nullptr) {
    handle_hello(peer, f);
    return;
  }
  switch (f.type) {
    case ipc::FrameType::kInputEvent:
    case ipc::FrameType::kOutputEvent:
    case ipc::FrameType::kSpectrum:
    case ipc::FrameType::kRecoverAck:
      // Write-ahead: the journal holds the frame before the hub's state
      // reflects it, so a crash between the two replays the mutation
      // instead of losing it.
      if (journal_ != nullptr) journal_->append_frame(peer->slot->name, f);
      apply_frame(*peer->slot, f);
      break;
    case ipc::FrameType::kHeartbeatAck: {
      Slot& slot = *peer->slot;
      slot.acked_since_probe = true;
      slot.supervisor.on_heartbeat_ack();
      if (slot.probe_outstanding && f.nonce == slot.probe_nonce) {
        slot.probe_outstanding = false;
        rtt_ns_->record(static_cast<double>(EventLoop::now_ns() - slot.probe_sent_ns));
      }
      break;
    }
    case ipc::FrameType::kHeartbeat: {
      // Peer-initiated probe: echo the nonce back.
      ipc::Frame ack;
      ack.type = ipc::FrameType::kHeartbeatAck;
      ack.seq = ++peer->slot->seq;
      ack.nonce = f.nonce;
      peer->conn->send(ack);
      break;
    }
    case ipc::FrameType::kShutdown:
      peer->orderly = true;
      peer->conn->close(CloseReason::kPeerClosed);
      break;
    default:
      // kHello after handshake, kHelloAck / kRecover toward the hub:
      // protocol violations on this link direction.
      reject(peer, std::string("unexpected ") + ipc::to_string(f.type));
      break;
  }
}

void AwarenessHub::handle_hello(Peer* peer, const ipc::Frame& f) {
  if (f.type != ipc::FrameType::kHello) {
    reject(peer, "handshake expected");
    return;
  }
  const std::uint8_t version = ipc::negotiate_version(config_.min_version, config_.max_version,
                                                      f.min_version, f.max_version);
  if (version == 0) {
    reject(peer, "version mismatch");
    return;
  }
  const auto it = slots_.find(f.detail);
  if (it == slots_.end()) {
    reject(peer, "unknown slot: " + f.detail);
    return;
  }
  Slot& slot = *it->second;
  if (slot.conn != nullptr) {
    reject(peer, "slot busy: " + slot.name);
    return;
  }
  if (slot.supervisor.exhausted()) {
    reject(peer, "slot failed: " + slot.name);
    return;
  }
  if (EventLoop::now_ns() < slot.earliest_reconnect_ns) {
    // Reconnect storm protection: the slot's capped backoff window is
    // enforced hub-side, so a crash-looping SUO cannot thrash the loop.
    reject(peer, "backoff: " + slot.name);
    return;
  }

  ipc::Frame ack;
  ack.type = ipc::FrameType::kHelloAck;
  ack.version = version;
  ack.seq = ++slot.seq;
  ack.detail = slot.name;
  ack.min_version = config_.min_version;
  ack.max_version = config_.max_version;
  if (!peer->conn->send(ack)) return;

  if (journal_ != nullptr) journal_->append_slot_up(slot.name, version, fleet_.now());
  peer->slot = &slot;
  slot.conn = peer->conn.get();
  slot.probe_outstanding = false;
  slot.acked_since_probe = true;
  slot.up_since_ns = EventLoop::now_ns();
  slot.negotiated_version = version;
  slot.supervisor.on_connected();
  slot.gate->store(true, std::memory_order_relaxed);
  recovery_.slot_up(slot.name, version);
  accepted_->inc();
  trace(runtime::TraceLevel::kInfo, "slot up: " + slot.name);
}

void AwarenessHub::reject(Peer* peer, const std::string& why) {
  rejected_->inc();
  trace(runtime::TraceLevel::kWarning, "rejected: " + why);
  ipc::Frame bye;
  bye.type = ipc::FrameType::kShutdown;
  bye.detail = why;
  peer->conn->send(bye);
  peer->orderly = peer->slot == nullptr;  // unclaimed rejects are not outages
  peer->conn->close(CloseReason::kEvicted);
}

void AwarenessHub::apply_frame(Slot& slot, const ipc::Frame& f) {
  switch (f.type) {
    case ipc::FrameType::kInputEvent:
    case ipc::FrameType::kOutputEvent:
      ingest(slot, f);
      break;
    case ipc::FrameType::kSpectrum:
      spectra_frames_->inc();
      diag_.ingest(slot.name, f);
      break;
    case ipc::FrameType::kRecoverAck:
      recovery_.on_ack(slot.name, f);
      break;
    default:
      break;  // non-state-bearing types are never journaled or replayed
  }
}

void AwarenessHub::ingest(Slot& slot, const ipc::Frame& f) {
  runtime::Event ev = f.event;
  if (config_.namespace_topics) ev.topic = slot.name + "/" + ev.topic;
  if (ev.timestamp > slot.watermark) slot.watermark = ev.timestamp;
  fleet_.publish(ev);
  ++events_ingested_;
  if (ingest_tap_) ingest_tap_(ev);
}

void AwarenessHub::probe_tick() {
  for (auto& [name, slot] : slots_) {
    if (slot->conn == nullptr) continue;
    if (!slot->acked_since_probe) {
      // The previous probe went unanswered; the supervisor decides when
      // the miss streak amounts to a dead link.
      if (slot->supervisor.on_heartbeat_miss()) {
        trace(runtime::TraceLevel::kWarning, "liveness lost: " + name);
        evicted_->inc();
        slot->conn->close(CloseReason::kEvicted);
        continue;  // on_close handled slot teardown
      }
    }
    probes_->inc();
    slot->probe_nonce = ++nonce_counter_;
    slot->probe_sent_ns = EventLoop::now_ns();
    slot->probe_outstanding = true;
    slot->acked_since_probe = false;
    ipc::Frame probe;
    probe.type = ipc::FrameType::kHeartbeat;
    probe.seq = ++slot->seq;
    probe.nonce = slot->probe_nonce;
    slot->conn->send(probe);
  }
}

void AwarenessHub::on_close(Peer* peer, CloseReason reason) {
  if (reason == CloseReason::kBackpressure || reason == CloseReason::kProtocolError) {
    evicted_->inc();
  }
  if (peer->slot != nullptr && peer->slot->conn == peer->conn.get()) {
    Slot& slot = *peer->slot;
    slot.conn = nullptr;
    trace(runtime::TraceLevel::kWarning,
          "slot down: " + slot.name + " (" + to_string(reason) + ")");
    slot_down(slot, peer->orderly || stopping_);
  }
  // Move ownership to the graveyard: the HubConnection object must
  // outlive the stack frames of the callback that closed it.
  const auto it = connections_.find(peer);
  if (it != connections_.end()) {
    dead_.push_back(std::move(it->second));
    connections_.erase(it);
  }
  connections_gauge_->set(static_cast<double>(connections_.size()));
}

void AwarenessHub::slot_down(Slot& slot, bool orderly) {
  if (journal_ != nullptr) journal_->append_slot_down(slot.name, orderly, fleet_.now());
  const bool was_up = slot.gate->exchange(false, std::memory_order_relaxed);
  slot.supervisor.on_disconnected();
  // Crash-loop accounting. The supervisor resets its attempt counter on
  // every successful connect, so left alone the "first attempt is free"
  // rule would make every reconnect free — a SUO that dies right after
  // its handshake could thrash the loop forever. The hub therefore
  // tracks consecutive *unstable* sessions (ended by a crash before
  // surviving one liveness window) and charges one extra attempt per
  // prior unstable session, walking the supervisor's capped seeded
  // exponential even though each session technically "connected".
  const std::int64_t window_ns =
      config_.heartbeat_interval_ms * 1'000'000 * config_.supervisor.heartbeat_miss_threshold;
  const bool stable =
      orderly || (slot.up_since_ns > 0 && EventLoop::now_ns() - slot.up_since_ns >= window_ns);
  slot.unstable_downs = stable ? 0 : slot.unstable_downs + 1;
  // Enforce the backoff window for the *next* reconnect attempt. The
  // first attempt after an outage is free (0ms) — a freshly restarted
  // SUO is picked up immediately; a crash loop pays capped exponential.
  std::int64_t backoff_ms = slot.supervisor.next_backoff_ms();
  for (int i = 1; i < slot.unstable_downs && backoff_ms >= 0; ++i) {
    backoff_ms = slot.supervisor.next_backoff_ms();
  }
  slot.earliest_reconnect_ns =
      backoff_ms > 0 ? EventLoop::now_ns() + backoff_ms * 1'000'000 : 0;
  slot.negotiated_version = 0;
  recovery_.slot_down(slot.name);
  // Diagnosis state persists across ordinary outages (the reconnecting
  // SUO keeps accumulating into the same spectra), but a permanently
  // failed slot will never report again — free its aggregator state
  // and its escalation-ladder state with it.
  if (slot.supervisor.exhausted()) {
    diag_.retire_slot(slot.name);
    recovery_.retire_slot(slot.name);
  }
  if (!was_up || orderly) return;

  // Exactly one outage report per up->down transition; while the link
  // stays dead the gated models quiesce instead of flooding errors.
  outages_->inc();
  core::ErrorReport report;
  report.observable = "hub.link/" + slot.name;
  report.expected = std::string("up");
  report.observed = std::string("down");
  report.deviation = 1.0;
  report.consecutive = 1;
  report.detected_at = fleet_.now();
  report.first_deviation_at = fleet_.now();
  link_errors_.push_back(report);
  if (notify_ != nullptr) notify_->on_error(report);
}

bool AwarenessHub::recover_from_journal() {
  replaying_ = true;
  // Replay must not actuate sockets that no longer exist: the journaled
  // ticks already made these send decisions once, and their observable
  // effects (the acks) are further down the WAL. A phantom send that
  // reports success re-walks the same state machine without I/O.
  recovery_.set_send([](const std::string&, const ipc::Frame&) { return true; });
  recovery_info_ = journal_->recover(journal_parts_, *this);
  install_live_send();
  replaying_ = false;
  if (!recovery_info_.ok) {
    trace(runtime::TraceLevel::kError, "journal recovery failed: " + recovery_info_.error);
    return false;
  }
  // Replayed slots may be logically up, but no socket survived the
  // restart: force every slot down so gates quiesce and reconnects are
  // accepted immediately. The restart is the hub's fault, not the
  // slots' — no backoff charge, no crash-loop accounting, no outage
  // report (link_errors_ is process-scoped by design).
  for (auto& [name, slot] : slots_) {
    slot->gate->store(false, std::memory_order_relaxed);
    slot->conn = nullptr;
    slot->negotiated_version = 0;
    slot->earliest_reconnect_ns = 0;
    slot->up_since_ns = 0;
    slot->unstable_downs = 0;
    slot->probe_outstanding = false;
    slot->acked_since_probe = true;
    if (slot->supervisor.up()) slot->supervisor.on_disconnected();
    recovery_.slot_down(name);
  }
  if (recovery_info_.from_checkpoint || recovery_info_.replayed_records > 0) {
    trace(runtime::TraceLevel::kInfo,
          "journal recovery: checkpoint seq " + std::to_string(recovery_info_.checkpoint_seq) +
              ", replayed " + std::to_string(recovery_info_.replayed_records) + " records");
  }
  return true;
}

void AwarenessHub::replay_frame(const std::string& slot_name, const ipc::Frame& f) {
  add_slot(slot_name);
  apply_frame(*slots_.find(slot_name)->second, f);
}

void AwarenessHub::replay_slot_up(const std::string& slot_name, std::uint8_t version) {
  add_slot(slot_name);
  Slot& slot = *slots_.find(slot_name)->second;
  slot.negotiated_version = version;
  slot.gate->store(true, std::memory_order_relaxed);
  slot.supervisor.on_connected();
  recovery_.slot_up(slot_name, version);
}

void AwarenessHub::replay_slot_down(const std::string& slot_name, bool /*orderly*/) {
  const auto it = slots_.find(slot_name);
  if (it == slots_.end()) return;
  Slot& slot = *it->second;
  slot.gate->store(false, std::memory_order_relaxed);
  slot.negotiated_version = 0;
  if (slot.supervisor.up()) slot.supervisor.on_disconnected();
  recovery_.slot_down(slot_name);
  // Backoff windows, crash-loop charges and outage reports are
  // wall-clock scoped and deliberately NOT part of the replayed state;
  // the permanent-failure retirement is.
  if (slot.supervisor.exhausted()) {
    diag_.retire_slot(slot_name);
    recovery_.retire_slot(slot_name);
  }
}

void AwarenessHub::replay_tick(runtime::SimTime now) { recovery_.tick(now); }

void AwarenessHub::save_state(journal::Encoder& out) const {
  out.u64(events_ingested_);
  out.u32(static_cast<std::uint32_t>(slots_.size()));
  for (const auto& [name, slot] : slots_) {
    out.str(name);
    out.i64(slot->watermark);
    out.u32(slot->seq);
    const ipc::SupervisorSnapshot snap = slot->supervisor.snapshot();
    out.u8(snap.link_state);
    out.u32(static_cast<std::uint32_t>(snap.attempts));
    out.u32(static_cast<std::uint32_t>(snap.misses));
    out.boolean(snap.was_up);
    out.u64(snap.outages);
    out.u64(snap.reconnects);
    out.u64(snap.jitter_rng);
  }
}

bool AwarenessHub::load_state(journal::Decoder& in, std::uint32_t version) {
  if (version != 1) return false;
  events_ingested_ = in.u64();
  const std::uint32_t count = in.u32();
  for (std::uint32_t i = 0; i < count && in.ok(); ++i) {
    const std::string name = in.str();
    if (!in.ok()) break;
    // Merge by name: the embedding app may have pre-registered slots
    // (gates are already handed out), so restore into them in place.
    add_slot(name);
    Slot& slot = *slots_.find(name)->second;
    slot.watermark = in.i64();
    slot.seq = in.u32();
    ipc::SupervisorSnapshot snap;
    snap.link_state = in.u8();
    snap.attempts = static_cast<std::int32_t>(in.u32());
    snap.misses = static_cast<std::int32_t>(in.u32());
    snap.was_up = in.boolean();
    snap.outages = in.u64();
    snap.reconnects = in.u64();
    snap.jitter_rng = in.u64();
    slot.supervisor.restore(snap);
  }
  return in.done();
}

void AwarenessHub::auto_advance() {
  bool any = false;
  runtime::SimTime watermark = 0;
  for (const auto& [name, slot] : slots_) {
    if (slot->conn == nullptr) continue;
    if (!any || slot->watermark < watermark) watermark = slot->watermark;
    any = true;
  }
  if (any && watermark > fleet_.now()) fleet_.run_until(watermark);
}

void AwarenessHub::reap() { dead_.clear(); }

void AwarenessHub::trace(runtime::TraceLevel level, const std::string& msg) {
  if (trace_ != nullptr) trace_->log(fleet_.now(), level, "hub", msg);
}

}  // namespace trader::hub
