#include "ipc/wire.hpp"

#include <cstring>

namespace trader::ipc {

namespace {

// ------------------------------------------------------------- primitives

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void put_value(std::vector<std::uint8_t>& out, const runtime::Value& v) {
  put_u8(out, static_cast<std::uint8_t>(v.index()));
  switch (v.index()) {
    case 0:
      put_i64(out, std::get<std::int64_t>(v));
      break;
    case 1: {
      std::uint64_t bits = 0;
      const double d = std::get<double>(v);
      std::memcpy(&bits, &d, sizeof(bits));
      put_u64(out, bits);
      break;
    }
    case 2:
      put_str(out, std::get<std::string>(v));
      break;
    case 3:
      put_u8(out, std::get<bool>(v) ? 1 : 0);
      break;
  }
}

/// Bounds-checked payload reader: every accessor trips `fail` instead
/// of reading past the end, so a malformed length field can never walk
/// the decoder off the buffer.
struct Reader {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t pos = 0;
  bool fail = false;

  bool need(std::size_t k) {
    if (fail || n - pos < k) {
      fail = true;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return p[pos++];
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(p[pos]) |
                      static_cast<std::uint16_t>(p[pos + 1]) << 8;
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[pos + i]) << (8 * i);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[pos + i]) << (8 * i);
    pos += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str() {
    const std::uint32_t len = u32();
    if (!need(len)) return {};
    std::string s(reinterpret_cast<const char*>(p + pos), len);
    pos += len;
    return s;
  }
  runtime::Value value() {
    const std::uint8_t tag = u8();
    switch (tag) {
      case 0:
        return i64();
      case 1: {
        const std::uint64_t bits = u64();
        double d = 0.0;
        std::memcpy(&d, &bits, sizeof(d));
        return d;
      }
      case 2:
        return str();
      case 3: {
        const std::uint8_t b = u8();
        if (b > 1) fail = true;  // strict: a bool byte is 0 or 1
        return b == 1;
      }
      default:
        fail = true;
        return std::int64_t{0};
    }
  }
  bool done() const { return !fail && pos == n; }
};

}  // namespace

// Non-static: the journal reuses the wire checksum (see wire.hpp).
std::uint32_t fnv1a32(const std::uint8_t* p, std::size_t n) {
  std::uint32_t h = 0x811c9dc5u;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x01000193u;
  }
  return h;
}

namespace {

void put_event(std::vector<std::uint8_t>& out, const runtime::Event& ev) {
  put_str(out, ev.topic);
  put_str(out, ev.name);
  put_u32(out, static_cast<std::uint32_t>(ev.fields.size()));
  for (const auto& [key, value] : ev.fields) {
    put_str(out, key);
    put_value(out, value);
  }
}

bool read_event(Reader& r, runtime::Event& ev) {
  ev.topic = r.str();
  ev.name = r.str();
  const std::uint32_t count = r.u32();
  if (r.fail || count > kMaxFramePayload) return false;
  for (std::uint32_t i = 0; i < count && !r.fail; ++i) {
    std::string key = r.str();
    runtime::Value value = r.value();
    if (!r.fail) ev.fields.emplace(std::move(key), std::move(value));
  }
  return !r.fail;
}

/// Type bytes 5 and 6 are reserved (see FrameType): they fall in the
/// gap between the event and liveness ranges and fail closed.
bool known_type(std::uint8_t t) {
  return (t >= static_cast<std::uint8_t>(FrameType::kHello) &&
          t <= static_cast<std::uint8_t>(FrameType::kOutputEvent)) ||
         (t >= static_cast<std::uint8_t>(FrameType::kHeartbeat) &&
          t <= static_cast<std::uint8_t>(FrameType::kRecoverAck));
}

/// Recovery actions are strict: give-up (4) is a hub-local verdict and
/// never crosses the wire, so the on-wire action space is exactly the
/// four actuatable rungs of the §5 ladder.
constexpr std::uint8_t kMaxWireRecoveryAction = 3;

void put_spectra(std::vector<std::uint8_t>& out, const Frame& f) {
  put_u32(out, f.block_count);
  put_u32(out, static_cast<std::uint32_t>(f.spectra.size()));
  for (const SpectrumStep& step : f.spectra) {
    put_u8(out, step.error ? 1 : 0);
    put_u32(out, static_cast<std::uint32_t>(step.blocks.size()));
    for (const std::uint32_t b : step.blocks) put_u32(out, b);
  }
}

/// Spectrum payloads are strict: the error byte is 0/1, ids are
/// strictly ascending and inside the announced block universe — a
/// corrupted spectrum must never feed a phantom block into a ranking.
bool read_spectra(Reader& r, Frame& out) {
  out.block_count = r.u32();
  const std::uint32_t steps = r.u32();
  if (r.fail || steps > kMaxFramePayload) return false;
  out.spectra.reserve(steps);
  for (std::uint32_t s = 0; s < steps && !r.fail; ++s) {
    SpectrumStep step;
    const std::uint8_t err = r.u8();
    if (err > 1) return false;
    step.error = err == 1;
    const std::uint32_t executed = r.u32();
    if (r.fail || executed > kMaxFramePayload) return false;
    step.blocks.reserve(executed);
    std::uint32_t prev = 0;
    for (std::uint32_t i = 0; i < executed; ++i) {
      const std::uint32_t b = r.u32();
      if (r.fail) return false;
      if (b >= out.block_count) return false;
      if (i > 0 && b <= prev) return false;  // strictly ascending
      prev = b;
      step.blocks.push_back(b);
    }
    out.spectra.push_back(std::move(step));
  }
  return !r.fail;
}

/// Decode one payload; returns false on any structural violation
/// (including trailing bytes — a valid frame consumes exactly its
/// announced length).
bool decode_payload(FrameType type, const std::uint8_t* p, std::size_t n, Frame& out) {
  Reader r{p, n};
  switch (type) {
    case FrameType::kHello:
    case FrameType::kHelloAck:
      out.min_version = r.u8();
      out.max_version = r.u8();
      out.detail = r.str();
      break;
    case FrameType::kInputEvent:
    case FrameType::kOutputEvent:
      if (!read_event(r, out.event)) return false;
      // The timestamp rides in the frame header (senders set f.time from
      // ev.timestamp), not the payload — restore it so consumers see the
      // publisher's virtual clock (watermarks, auto-advance).
      out.event.timestamp = out.time;
      break;
    case FrameType::kHeartbeat:
    case FrameType::kHeartbeatAck:
      out.nonce = r.u64();
      break;
    case FrameType::kShutdown:
      out.detail = r.str();
      break;
    case FrameType::kSpectrum:
      if (!read_spectra(r, out)) return false;
      break;
    case FrameType::kRecover:
      out.action = r.u8();
      if (out.action > kMaxWireRecoveryAction) return false;
      out.token = r.u64();
      out.block = r.u32();
      out.unit = r.str();
      break;
    case FrameType::kRecoverAck: {
      out.action = r.u8();
      if (out.action > kMaxWireRecoveryAction) return false;
      out.token = r.u64();
      const std::uint8_t ok = r.u8();
      if (ok > 1) return false;
      out.ok = ok == 1;
      out.unit = r.str();
      out.detail = r.str();
      break;
    }
  }
  return r.done();
}

}  // namespace

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kHello:
      return "hello";
    case FrameType::kHelloAck:
      return "hello-ack";
    case FrameType::kInputEvent:
      return "input-event";
    case FrameType::kOutputEvent:
      return "output-event";
    case FrameType::kHeartbeat:
      return "heartbeat";
    case FrameType::kHeartbeatAck:
      return "heartbeat-ack";
    case FrameType::kShutdown:
      return "shutdown";
    case FrameType::kSpectrum:
      return "spectrum";
    case FrameType::kRecover:
      return "recover";
    case FrameType::kRecoverAck:
      return "recover-ack";
  }
  return "?";
}

const char* to_string(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kNeedMore:
      return "need-more";
    case DecodeStatus::kBadMagic:
      return "bad-magic";
    case DecodeStatus::kBadVersion:
      return "bad-version";
    case DecodeStatus::kBadType:
      return "bad-type";
    case DecodeStatus::kFrameTooLarge:
      return "frame-too-large";
    case DecodeStatus::kBadChecksum:
      return "bad-checksum";
    case DecodeStatus::kMalformed:
      return "malformed";
  }
  return "?";
}

bool is_decode_error(DecodeStatus s) {
  return s != DecodeStatus::kOk && s != DecodeStatus::kNeedMore;
}

std::uint8_t negotiate_version(std::uint8_t local_min, std::uint8_t local_max,
                               std::uint8_t remote_min, std::uint8_t remote_max) {
  const std::uint8_t lo = local_min > remote_min ? local_min : remote_min;
  const std::uint8_t hi = local_max < remote_max ? local_max : remote_max;
  return lo <= hi ? hi : 0;
}

std::vector<std::uint8_t> encode_frame(const Frame& f) {
  std::vector<std::uint8_t> payload;
  switch (f.type) {
    case FrameType::kHello:
    case FrameType::kHelloAck:
      put_u8(payload, f.min_version);
      put_u8(payload, f.max_version);
      put_str(payload, f.detail);
      break;
    case FrameType::kInputEvent:
    case FrameType::kOutputEvent:
      put_event(payload, f.event);
      break;
    case FrameType::kHeartbeat:
    case FrameType::kHeartbeatAck:
      put_u64(payload, f.nonce);
      break;
    case FrameType::kShutdown:
      put_str(payload, f.detail);
      break;
    case FrameType::kSpectrum:
      put_spectra(payload, f);
      break;
    case FrameType::kRecover:
      put_u8(payload, f.action);
      put_u64(payload, f.token);
      put_u32(payload, f.block);
      put_str(payload, f.unit);
      break;
    case FrameType::kRecoverAck:
      put_u8(payload, f.action);
      put_u64(payload, f.token);
      put_u8(payload, f.ok ? 1 : 0);
      put_str(payload, f.unit);
      put_str(payload, f.detail);
      break;
  }
  if (payload.size() > kMaxFramePayload) return {};

  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + payload.size());
  put_u32(out, kMagic);
  put_u8(out, f.version);
  put_u8(out, static_cast<std::uint8_t>(f.type));
  put_u16(out, 0);  // reserved
  put_u32(out, f.seq);
  put_i64(out, f.time);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, fnv1a32(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  if (poisoned_) return;  // fail closed: no bytes accepted after an error
  // Compact consumed prefix before growing (bounded memory per link).
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

DecodeStatus FrameDecoder::next(Frame& out) {
  if (poisoned_) return DecodeStatus::kMalformed;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kHeaderSize) return DecodeStatus::kNeedMore;
  const std::uint8_t* h = buf_.data() + pos_;

  Reader header{h, kHeaderSize};
  const std::uint32_t magic = header.u32();
  const std::uint8_t version = header.u8();
  const std::uint8_t type = header.u8();
  const std::uint16_t reserved = header.u16();
  const std::uint32_t seq = header.u32();
  const std::int64_t time = header.i64();
  const std::uint32_t payload_len = header.u32();
  const std::uint32_t checksum = header.u32();

  auto poison = [&](DecodeStatus s) {
    poisoned_ = true;
    return s;
  };
  if (magic != kMagic) return poison(DecodeStatus::kBadMagic);
  if (version < kMinProtocolVersion || version > kProtocolVersion) {
    // Hello frames must survive a version skew, or negotiation could
    // never happen; the payload carries the peer's supported range.
    const bool hello = type == static_cast<std::uint8_t>(FrameType::kHello) ||
                       type == static_cast<std::uint8_t>(FrameType::kHelloAck);
    if (!hello) return poison(DecodeStatus::kBadVersion);
  }
  if (!known_type(type)) return poison(DecodeStatus::kBadType);
  if (reserved != 0) return poison(DecodeStatus::kMalformed);
  if (payload_len > kMaxFramePayload) return poison(DecodeStatus::kFrameTooLarge);
  if (avail < kHeaderSize + payload_len) return DecodeStatus::kNeedMore;

  const std::uint8_t* payload = h + kHeaderSize;
  if (fnv1a32(payload, payload_len) != checksum) return poison(DecodeStatus::kBadChecksum);

  Frame f;
  f.type = static_cast<FrameType>(type);
  f.version = version;
  f.seq = seq;
  f.time = time;
  if (!decode_payload(f.type, payload, payload_len, f)) return poison(DecodeStatus::kMalformed);

  pos_ += kHeaderSize + payload_len;
  out = std::move(f);
  return DecodeStatus::kOk;
}

void FrameDecoder::reset() {
  buf_.clear();
  pos_ = 0;
  poisoned_ = false;
}

}  // namespace trader::ipc
