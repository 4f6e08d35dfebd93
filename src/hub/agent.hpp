// HubPublisher: the SUO side of a hub link.
//
// A hub publisher *pushes*: it hosts its own simulated TV and its own
// virtual clock, connects out to the AwarenessHub, claims a slot with
// kHello, and streams every tv.input / tv.output event as a frame
// while answering the hub's liveness probes. This is the ArVI-style
// topology — many instrumented systems feeding one central monitor —
// and it is what a real fielded SUO would run: no knowledge of the
// fleet, just "send what you observe, answer pings, say goodbye".
//
// run_hub_publisher() is the whole child-process body used by the
// hub_host example (fork per SUO), by the forked SIGKILL test and by
// in-process test threads.
#pragma once

#include <cstdint>
#include <string>

#include "diagnosis/synthetic_program.hpp"
#include "runtime/sim_time.hpp"
#include "tv/tv_system.hpp"

namespace trader::hub {

/// Optional spectrum streaming (fleet-level online diagnosis). When
/// enabled the publisher also hosts a SyntheticProgram: every synthetic
/// key press runs one instrumented program step whose block coverage +
/// error verdict is shipped to the hub as kSpectrum frames — but only
/// when the negotiated protocol version carries them (a v1 hub simply
/// never sees spectra; the event stream is unaffected).
struct PublisherDiagConfig {
  bool enabled = false;
  diagnosis::SyntheticProgramConfig program;
  /// Seed the program fault into this feature (SIZE_MAX = no fault).
  std::size_t fault_feature = SIZE_MAX;
  std::size_t fault_index = 0;
  /// Ship pending spectra every N sealed steps.
  std::size_t flush_steps = 8;
};

struct PublisherConfig {
  std::string hub_path;    ///< AF_UNIX path of the hub listener.
  std::string name;        ///< Slot to claim (kHello peer name).
  tv::TvConfig tv;
  std::uint64_t seed = 7;  ///< Key-press stream seed (per publisher).
  /// Virtual time per loop iteration and total virtual horizon.
  runtime::SimDuration step = runtime::msec(20);
  runtime::SimTime horizon = runtime::msec(3000);
  /// A seeded remote-control key press every `key_period` of virtual
  /// time (0 = no synthetic input).
  runtime::SimDuration key_period = runtime::msec(200);
  /// Wall-clock pause per iteration, microseconds — paces the stream so
  /// liveness probing has time to happen (0 = stream flat out).
  std::int64_t pace_us = 0;
  int connect_timeout_ms = 2000;
  PublisherDiagConfig diag;
};

struct PublisherStats {
  std::uint64_t events_sent = 0;
  std::uint64_t probes_answered = 0;
  std::uint64_t spectrum_steps = 0;   ///< Sealed instrumented steps.
  std::uint64_t spectrum_frames = 0;  ///< kSpectrum frames shipped.
  std::uint64_t recover_commands = 0;    ///< kRecover frames executed.
  std::uint64_t recover_repairs = 0;     ///< Executions that cleared the fault.
  std::uint64_t recover_duplicates = 0;  ///< Replayed cached acks (hub retries).
  std::uint8_t negotiated_version = 0;  ///< From the kHelloAck.
  bool rejected = false;   ///< Hub refused the kHello.
  bool evicted = false;    ///< Hub closed the link before the horizon.
};

/// Connect, claim the slot, stream to the horizon, say kShutdown.
/// Returns 0 on an orderly run, 1 on connect/handshake failure, 2 when
/// the hub dropped the link mid-stream. `out` (optional) receives the
/// final stats.
int run_hub_publisher(const PublisherConfig& config, PublisherStats* out = nullptr);

}  // namespace trader::hub
