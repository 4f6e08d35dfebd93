// Framed socket transport for the SUO link.
//
// Two deployment shapes, one code path:
//   * AF_UNIX sockets — the paper's real process boundary (hub
//     publishers in their own processes, the AwarenessHub in another);
//   * socketpair(AF_UNIX) — both ends in one process, so tier-1 tests
//     and benches stay hermetic and fast while still exercising the
//     real kernel stream path and the full encode/decode machinery.
//
// FramedSocket owns the fd, speaks whole frames (wire.hpp), and mirrors
// its traffic into "ipc.*" metrics: frames/bytes in both directions
// plus encode/decode error counters. All ipc.* instruments are
// wall-clock- and kernel-timing-dependent, so they are intentionally
// excluded from golden-trace fingerprints (see testkit/golden_trace.hpp).
#pragma once

#include <sys/uio.h>

#include <string>
#include <utility>

#include "ipc/wire.hpp"
#include "runtime/metrics.hpp"

namespace trader::ipc {

// ---------------------------------------------------------------------------
// Shared fd-level I/O. One EINTR/EAGAIN policy for every socket user:
// the blocking FramedSocket path and the hub's nonblocking event loop
// call the same helpers instead of each reimplementing errno handling.

enum class IoStatus : std::uint8_t {
  kOk,          ///< `n` bytes transferred (n may be < requested: partial).
  kWouldBlock,  ///< Nonblocking fd has no capacity/data right now (n == 0).
  kClosed,      ///< Orderly EOF (reads) or EPIPE/ECONNRESET (writes).
  kError,       ///< Unrecoverable errno; treat the fd as dead.
};

/// Set or clear O_NONBLOCK. Returns false on fcntl failure.
bool set_nonblocking(int fd, bool on);

/// One read(2) with EINTR retry. kOk fills `n` (>= 1).
IoStatus read_some(int fd, void* buf, std::size_t cap, std::size_t& n);

/// One send(2) (MSG_NOSIGNAL) with EINTR retry; kOk may be a partial
/// write — callers own the resume-from-offset loop.
IoStatus write_some(int fd, const void* data, std::size_t len, std::size_t& n);

/// Gathered write of up to `iovcnt` buffers (the hub's coalesced queue
/// flush). Same partial-write contract as write_some.
IoStatus writev_some(int fd, const iovec* iov, int iovcnt, std::size_t& n);

/// A connected stream socket speaking length-prefixed frames.
class FramedSocket {
 public:
  FramedSocket() = default;
  explicit FramedSocket(int fd) : fd_(fd) {}
  ~FramedSocket();

  FramedSocket(FramedSocket&& other) noexcept;
  FramedSocket& operator=(FramedSocket&& other) noexcept;
  FramedSocket(const FramedSocket&) = delete;
  FramedSocket& operator=(const FramedSocket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Relinquish ownership of the fd without closing it (handing a
  /// handshaken socket to a nonblocking writer).
  int release() {
    const int fd = fd_;
    fd_ = -1;
    decoder_.reset();
    return fd;
  }

  /// Resolve ipc.* instruments in `m` (nullptr detaches).
  void set_metrics(runtime::MetricsRegistry* m);

  /// Write one frame fully. False means the peer is gone (EPIPE /
  /// reset) or the frame failed to encode; the socket is closed on a
  /// write error so the caller sees a dead link, not a torn stream.
  bool send(const Frame& f);

  enum class RecvStatus : std::uint8_t {
    kFrame,          ///< `out` holds a frame.
    kTimeout,        ///< Nothing complete within the timeout.
    kClosed,         ///< Orderly EOF or connection reset.
    kProtocolError,  ///< Decode failure — stream poisoned, socket closed.
  };

  /// Read until one whole frame is available or `timeout_ms` elapses.
  /// timeout_ms == 0 polls: it drains only what is already readable.
  RecvStatus recv(Frame& out, int timeout_ms);

  /// Status of the last decode attempt (diagnostics for protocol errors).
  DecodeStatus last_decode_status() const { return last_status_; }

  void close();

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
  DecodeStatus last_status_ = DecodeStatus::kNeedMore;
  runtime::Counter* frames_sent_ = nullptr;
  runtime::Counter* frames_received_ = nullptr;
  runtime::Counter* bytes_sent_ = nullptr;
  runtime::Counter* bytes_received_ = nullptr;
  runtime::Counter* encode_errors_ = nullptr;
  runtime::Counter* decode_errors_ = nullptr;
};

/// Connected in-process pair (socketpair(AF_UNIX, SOCK_STREAM)).
std::pair<FramedSocket, FramedSocket> socketpair_transport();

/// Bind + listen on a Unix domain socket path. A stale file at `path`
/// is unlinked first. Paths starting with '@' use the Linux abstract
/// namespace (no filesystem entry, auto-cleanup). Returns the listening
/// fd, or -1 on error.
int listen_unix(const std::string& path, int backlog = 4);

/// Accept one connection, waiting up to `timeout_ms` (-1 = forever).
/// Returns the connected fd, or -1 on timeout/error.
int accept_unix(int listen_fd, int timeout_ms);

/// Connect to a Unix domain socket path. Returns fd or -1.
int connect_unix(const std::string& path);

/// Connect with retries until `timeout_ms` elapses — covers the race
/// between starting a hub and its listener coming up.
int connect_unix_retry(const std::string& path, int timeout_ms);

/// Remove a filesystem socket path (no-op for abstract '@' paths).
void unlink_unix(const std::string& path);

}  // namespace trader::ipc
