// Process supervision for the out-of-process SUO.
//
// A remote SUO can die (crash, SIGKILL, deploy), hang, or drop off the
// scheduler; the monitor must notice, degrade gracefully, and come
// back without flooding the error stream. ProcessSupervisor is the
// pure state machine behind that policy:
//
//       on_connected                    miss < threshold
//   kDown ------------> kUp <---------------------------- kDegraded
//     ^                  | on_heartbeat_miss                   |
//     |                  v                                     | misses reach
//     |              kDegraded ---------------------------------
//     |                  | threshold reached (link declared dead)
//     | backoff spent    v
//   kConnecting <----- kDown          max_attempts spent -> kFailed
//
// It owns no sockets and no threads: its caller (one per AwarenessHub
// slot) feeds it events and asks it how long to back off.
// Backoff is capped exponential with deterministic seeded jitter, so
// reconnect behaviour is reproducible in tests while still decorrelated
// across real fleet members.
#pragma once

#include <cstdint>

#include "runtime/metrics.hpp"
#include "runtime/rng.hpp"

namespace trader::ipc {

struct SupervisorConfig {
  /// Consecutive heartbeat misses before the link is declared dead.
  int heartbeat_miss_threshold = 3;
  /// First reconnect delay; doubles per failed attempt.
  std::int64_t backoff_initial_ms = 20;
  /// Cap on the reconnect delay.
  std::int64_t backoff_max_ms = 2000;
  /// Multiplicative jitter: delay *= uniform(1 - j, 1 + j).
  double backoff_jitter = 0.2;
  /// Reconnect attempts before giving up for good (0 = unlimited).
  int max_attempts = 0;
  /// Seed of the jitter stream (deterministic per supervisor).
  std::uint64_t jitter_seed = 0x5edc0de;
};

enum class LinkState : std::uint8_t { kDown, kConnecting, kUp, kDegraded, kFailed };

const char* to_string(LinkState s);

/// Copyable snapshot of a supervisor's dynamic state (see
/// ProcessSupervisor::snapshot / restore).
struct SupervisorSnapshot {
  std::uint8_t link_state = 0;
  std::int32_t attempts = 0;
  std::int32_t misses = 0;
  bool was_up = false;
  std::uint64_t outages = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t jitter_rng = 0;  ///< Position in the jitter stream.
};

class ProcessSupervisor {
 public:
  explicit ProcessSupervisor(SupervisorConfig config = {});

  LinkState state() const { return state_; }
  bool up() const { return state_ == LinkState::kUp || state_ == LinkState::kDegraded; }
  bool exhausted() const { return state_ == LinkState::kFailed; }

  /// A connection (or reconnection) completed its handshake.
  void on_connected();

  /// The transport failed (EOF, write error, protocol error, timeout on
  /// a lockstep ack). Counts one outage per up->down transition, which
  /// is what keeps a dead SUO from flooding the error tap.
  void on_disconnected();

  /// A heartbeat ack arrived: clears the miss streak.
  void on_heartbeat_ack();

  /// A heartbeat went unanswered. Returns true when the miss streak
  /// reaches the threshold — the caller must treat the link as dead
  /// (the supervisor transitions itself via on_disconnected()).
  bool on_heartbeat_miss();

  /// Delay to wait before the next reconnect attempt, advancing the
  /// attempt counter. Returns -1 once max_attempts is exhausted (state
  /// becomes kFailed). First attempt after an outage returns 0 — a
  /// freshly restarted SUO should be picked up immediately.
  std::int64_t next_backoff_ms();

  int attempts() const { return attempts_; }
  int consecutive_misses() const { return misses_; }
  std::uint64_t outages() const { return outages_; }
  std::uint64_t reconnects() const { return reconnects_; }

  /// Mirror outage/reconnect/miss counts into "ipc.*" counters.
  void set_metrics(runtime::MetricsRegistry* m);

  /// Full dynamic state as a plain snapshot, so the durable hub can
  /// checkpoint supervisors without this module knowing about the
  /// journal's encoding. Config and metrics wiring are not part of the
  /// snapshot — they belong to the process, not the history.
  SupervisorSnapshot snapshot() const;
  void restore(const SupervisorSnapshot& s);

 private:
  SupervisorConfig config_;
  runtime::Rng jitter_;
  LinkState state_ = LinkState::kDown;
  int attempts_ = 0;       ///< Failed attempts in the current outage.
  int misses_ = 0;
  bool was_up_ = false;
  std::uint64_t outages_ = 0;
  std::uint64_t reconnects_ = 0;
  runtime::Counter* outages_metric_ = nullptr;
  runtime::Counter* reconnects_metric_ = nullptr;
  runtime::Counter* misses_metric_ = nullptr;
};

}  // namespace trader::ipc
