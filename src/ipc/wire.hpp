// Wire protocol for the out-of-process SUO link.
//
// The paper's awareness framework runs the System Under Observation as
// a separate Linux process connected over Unix domain sockets (Fig. 2);
// this module defines the byte-level contract that crosses that
// boundary. Frames are length-prefixed and versioned:
//
//   offset size field
//   0      4    magic 0x54524452 ("TRDR", little-endian)
//   4      1    protocol version
//   5      1    frame type
//   6      2    reserved (must be zero)
//   8      4    sequence number
//   12     8    virtual timestamp (microseconds, signed)
//   20     4    payload length (<= kMaxFramePayload)
//   24     4    payload checksum (FNV-1a 32 over the payload bytes)
//   28     ...  payload
//
// Strings are u32 length + bytes; runtime::Value is a 1-byte tag (the
// variant index) + payload. Protocol v2 adds the kSpectrum frame
// (batched SFL spectra toward the hub, see SpectrumStep below);
// protocol v3 adds the kRecover / kRecoverAck pair (hub-commanded
// recovery actuation on a remote SUO). Peers negotiate the version
// through the kHello [min,max] range exchange and only send feature
// frames on links that negotiated the matching minimum
// (kSpectrumMinVersion / kRecoverMinVersion).
// Decoding fails closed: any malformed
// header or payload poisons the decoder until reset() — a frame is
// either delivered whole and checksum-clean or not at all, so a
// corrupted stream can never leak partial state into the monitor.
// Sequence number and timestamp are deliberately outside the checksum
// footprint only in the sense that the checksum covers the payload;
// header integrity is enforced field-by-field (magic, version range,
// known type, zero reserved bits, bounded length).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/event.hpp"
#include "runtime/sim_time.hpp"

namespace trader::ipc {

inline constexpr std::uint32_t kMagic = 0x54524452;  // "TRDR"
inline constexpr std::uint8_t kMinProtocolVersion = 1;
inline constexpr std::uint8_t kProtocolVersion = 3;
/// First protocol version that carries kSpectrum frames. A peer whose
/// negotiated version is lower must not send them (and a v1 decoder
/// would fail closed on the unknown type if it did).
inline constexpr std::uint8_t kSpectrumMinVersion = 2;
/// First protocol version that carries kRecover / kRecoverAck frames.
/// The hub must never send a recovery command to a peer that
/// negotiated lower — a v2 decoder fails closed on the unknown type.
inline constexpr std::uint8_t kRecoverMinVersion = 3;
inline constexpr std::size_t kHeaderSize = 28;
/// Upper bound on payload size; a header announcing more is rejected
/// before any allocation happens (flood protection).
inline constexpr std::size_t kMaxFramePayload = 64 * 1024;

/// Frame taxonomy of the SUO link. Values are explicit because they are
/// the on-wire type byte and the journal's record of it. 5 and 6 are
/// reserved: older peers used them for a retired control frame pair, so
/// they must not be reused; they decode as kBadType like any unknown
/// type.
enum class FrameType : std::uint8_t {
  kHello = 1,         ///< Client -> server: version range + peer name.
  kHelloAck = 2,      ///< Server -> client: negotiated version.
  kInputEvent = 3,    ///< SUO input event (user action observed).
  kOutputEvent = 4,   ///< SUO observable update.
  kHeartbeat = 7,     ///< Liveness probe.
  kHeartbeatAck = 8,  ///< Liveness echo.
  kShutdown = 9,      ///< Orderly teardown or handshake rejection.
  kSpectrum = 10,     ///< SUO -> hub: batched SFL spectra (since v2).
  kRecover = 11,      ///< Hub -> SUO: targeted recovery command (since v3).
  kRecoverAck = 12,   ///< SUO -> hub: recovery outcome (since v3).
};

const char* to_string(FrameType t);

/// One program spectrum inside a kSpectrum frame: the sorted-unique ids
/// of the blocks executed during one scenario step, plus whether the
/// step showed an error (§4.4 Zoeteweij et al. — the error-vector bit).
///
/// Payload grammar (strict, fail-closed like every other frame):
///   u32 block_count            id universe; every id must be < this
///   u32 step_count
///   per step: u8  error        0 or 1, anything else is malformed
///             u32 executed     number of block ids
///             u32[executed]    strictly ascending block ids
struct SpectrumStep {
  bool error = false;
  std::vector<std::uint32_t> blocks;  ///< Strictly ascending, < block_count.

  friend bool operator==(const SpectrumStep& a, const SpectrumStep& b) {
    return a.error == b.error && a.blocks == b.blocks;
  }
};

/// kRecover payload grammar (strict, fail-closed):
///   u8  action         recovery::RecoveryAction ordinal; give-up (4)
///                      never crosses the wire — the hub quarantines
///                      locally — so any value >= 4 is malformed
///   u64 token          idempotency token; the ack must echo it
///   u32 block          top suspect block id (SUO resolves component)
///   str unit           hub's belief of the suspect component name
///
/// kRecoverAck payload grammar:
///   u8  action         echoed command action, same < 4 bound
///   u64 token          echoed idempotency token
///   u8  ok             0 or 1, anything else is malformed
///   str unit           echoed unit
///   str detail         free-form outcome note
///
/// One decoded (or to-be-encoded) protocol frame. Only the fields of
/// the frame's type are meaningful; the rest stay default.
struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::uint8_t version = kProtocolVersion;
  std::uint32_t seq = 0;
  runtime::SimTime time = 0;

  runtime::Event event;                           ///< kInputEvent / kOutputEvent.
  bool ok = true;                                 ///< kRecoverAck status.
  std::string detail;                             ///< Ack detail / hello peer / shutdown reason.
  std::uint8_t min_version = kMinProtocolVersion; ///< kHello / kHelloAck.
  std::uint8_t max_version = kProtocolVersion;    ///< kHello / kHelloAck.
  std::uint64_t nonce = 0;                        ///< kHeartbeat / kHeartbeatAck.
  std::uint32_t block_count = 0;                  ///< kSpectrum id universe.
  std::vector<SpectrumStep> spectra;              ///< kSpectrum batch.
  std::uint8_t action = 0;                        ///< kRecover / kRecoverAck ladder rung.
  std::uint64_t token = 0;                        ///< kRecover / kRecoverAck idempotency.
  std::uint32_t block = 0;                        ///< kRecover suspect block id.
  std::string unit;                               ///< kRecover / kRecoverAck component.
};

/// FNV-1a 32-bit over a byte range — the checksum every frame payload
/// carries. Exposed because the hub's WAL and checkpoint files reuse
/// the same integrity primitive: one discipline on the wire and on
/// disk, one set of tests pinning it.
std::uint32_t fnv1a32(const std::uint8_t* data, std::size_t n);

/// Encode a frame. Returns an empty vector when the payload would
/// exceed kMaxFramePayload (the caller counts an encode error — an
/// oversized observable must not tear the stream mid-frame).
std::vector<std::uint8_t> encode_frame(const Frame& f);

/// Why decoding stopped.
enum class DecodeStatus : std::uint8_t {
  kOk,            ///< A frame was produced.
  kNeedMore,      ///< Partial frame buffered; feed more bytes.
  kBadMagic,
  kBadVersion,    ///< Header version outside [kMinProtocolVersion, kProtocolVersion].
  kBadType,
  kFrameTooLarge,
  kBadChecksum,
  kMalformed,     ///< Reserved bits set or payload structure invalid.
};

const char* to_string(DecodeStatus s);

/// True for the statuses that poison the stream (everything except
/// kOk / kNeedMore).
bool is_decode_error(DecodeStatus s);

/// Highest protocol version both ranges support, or 0 when the ranges
/// are disjoint (handshake must be rejected).
std::uint8_t negotiate_version(std::uint8_t local_min, std::uint8_t local_max,
                               std::uint8_t remote_min, std::uint8_t remote_max);

/// Streaming frame decoder. Feed arbitrary byte chunks; next() yields
/// complete frames. Fails closed: after the first error status the
/// decoder refuses further work until reset(), because a framing error
/// means byte alignment is lost and everything after it is garbage.
class FrameDecoder {
 public:
  void feed(const std::uint8_t* data, std::size_t n);

  /// Decode the next buffered frame into `out`. kOk fills `out`;
  /// kNeedMore leaves it untouched; an error poisons the decoder.
  DecodeStatus next(Frame& out);

  bool poisoned() const { return poisoned_; }
  std::size_t buffered() const { return buf_.size() - pos_; }
  void reset();

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  bool poisoned_ = false;
};

}  // namespace trader::ipc
