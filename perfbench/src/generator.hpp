// The load generator: one forked process, one thread, one AF_UNIX
// connection per slot (at most 4). It replays a schedule that was
// generated from the workload seed before the fork, open loop: item i
// is due at t0 + due_ns and is sent when due, however far the hub has
// fallen behind. Items due together are coalesced into one write per
// connection. The wall time of every send lands in shared memory, so
// the driver can time each frame from its due time and report how late
// the generator ran.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "ipc/wire.hpp"

namespace perfbench {

struct GenItem {
  std::uint32_t slot = 0;
  std::uint32_t index = 0;   ///< Source-defined (frame or chunk number).
  std::int64_t due_ns = 0;   ///< Relative to t0.
};

/// Mode-specific behaviour, executed inside the child process.
class GenSource {
 public:
  virtual ~GenSource() = default;
  /// Append the wire bytes of `item` to `out`.
  virtual void append_bytes(std::size_t i, const GenItem& item, std::vector<std::uint8_t>& out) = 0;
  /// A frame from the hub arrived on `slot`; fill `reply` and return
  /// true to answer it.
  virtual bool on_frame(std::uint32_t slot, const trader::ipc::Frame& f, trader::ipc::Frame& reply,
                        std::int64_t rx_ns) {
    (void)slot, (void)f, (void)reply, (void)rx_ns;
    return false;
  }
};

/// Control block shared with the child (MAP_SHARED anonymous memory).
struct GenShared {
  std::atomic<std::int64_t> t0_ns{0};
  std::atomic<int> connected{0};
  std::atomic<int> done{0};      ///< Child: schedule finished.
  std::atomic<int> release{0};   ///< Parent: say goodbye and exit.
  std::atomic<int> status{0};    ///< 0 ok, 1 connect failed, 2 link lost.
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> write_failures{0};
};

/// Anonymous shared memory that survives fork; zero-filled.
void* shared_alloc(std::size_t bytes);
void shared_free(void* p, std::size_t bytes);

template <typename T>
class SharedArray {
 public:
  explicit SharedArray(std::size_t n = 0) : n_(n) {
    if (n_ > 0) data_ = static_cast<T*>(shared_alloc(n_ * sizeof(T)));
  }
  ~SharedArray() {
    if (data_ != nullptr) shared_free(data_, n_ * sizeof(T));
  }
  SharedArray(const SharedArray&) = delete;
  SharedArray& operator=(const SharedArray&) = delete;
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
  T* data_ = nullptr;
};

class Generator {
 public:
  Generator(std::vector<std::string> slots, std::vector<GenItem> items);
  ~Generator();

  /// Fork the child; it connects to `path` and claims every slot.
  /// `stop_on_link_loss`: a dead link ends the child quietly (the hub
  /// was killed on purpose) instead of counting a failure.
  void spawn(const std::string& path, GenSource& source, bool stop_on_link_loss = false);

  bool connected() const { return shared_->connected.load() != 0; }
  int status() const { return shared_->status.load(); }
  void go(std::int64_t t0_ns) { shared_->t0_ns.store(t0_ns); }
  bool done() const { return shared_->done.load() != 0; }
  void release() { shared_->release.store(1); }
  /// Wait for the child to exit; returns its exit status (-1 on signal).
  int join();
  /// Kill and reap (error paths).
  void kill();

  std::uint64_t sent() const { return shared_->sent.load(); }
  std::uint64_t write_failures() const { return shared_->write_failures.load(); }
  const std::vector<GenItem>& items() const { return items_; }
  /// Wall time the item was queued on its connection (0 = never sent).
  std::int64_t send_ns(std::size_t i) const { return send_ns_[i]; }

 private:
  void child_main(const std::string& path, GenSource& source, bool stop_on_link_loss);

  std::vector<std::string> slots_;
  std::vector<GenItem> items_;
  GenShared* shared_ = nullptr;
  SharedArray<std::int64_t> send_ns_;
  int pid_ = 0;
};

}  // namespace perfbench
