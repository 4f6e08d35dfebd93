#include "generator.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <stdexcept>

#include "common.hpp"
#include "ipc/transport.hpp"

namespace perfbench {

namespace ipc = trader::ipc;

void* shared_alloc(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("mmap failed");
  return p;
}

void shared_free(void* p, std::size_t bytes) { ::munmap(p, bytes); }

Generator::Generator(std::vector<std::string> slots, std::vector<GenItem> items)
    : slots_(std::move(slots)),
      items_(std::move(items)),
      send_ns_(items_.size()) {
  shared_ = new (shared_alloc(sizeof(GenShared))) GenShared();
}

Generator::~Generator() {
  kill();
  shared_free(shared_, sizeof(GenShared));
}

void Generator::spawn(const std::string& path, GenSource& source, bool stop_on_link_loss) {
  std::fflush(stdout);
  std::fflush(stderr);
  const int pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    try {
      child_main(path, source, stop_on_link_loss);
    } catch (...) {
      shared_->status.store(1);
      shared_->done.store(1);
      ::_exit(2);
    }
    ::_exit(0);
  }
  pid_ = pid;
  watchdog().set_child(pid);
}

int Generator::join() {
  if (pid_ <= 0) return 0;
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = 0;
  watchdog().set_child(0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void Generator::kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = 0;
  watchdog().set_child(0);
}

void Generator::child_main(const std::string& path, GenSource& source, bool stop_on_link_loss) {
  ::signal(SIGPIPE, SIG_IGN);
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  GenShared& sh = *shared_;
  const std::size_t n_slots = slots_.size();

  std::vector<int> fds;
  for (const std::string& name : slots_) {
    const int fd = ipc::connect_unix_retry(path, 10000);
    if (fd < 0) throw std::runtime_error("connect");
    ipc::FramedSocket sock(fd);
    ipc::Frame hello;
    hello.type = ipc::FrameType::kHello;
    hello.detail = name;
    ipc::Frame ack;
    if (!sock.send(hello) ||
        sock.recv(ack, 10000) != ipc::FramedSocket::RecvStatus::kFrame ||
        ack.type != ipc::FrameType::kHelloAck) {
      throw std::runtime_error("handshake");
    }
    fds.push_back(sock.release());
    ipc::set_nonblocking(fds.back(), true);
  }
  std::vector<ipc::FrameDecoder> decoders(n_slots);
  std::vector<pollfd> pfds(n_slots);
  std::vector<std::uint32_t> out_seq(n_slots, 1u << 30);
  // Per-connection outbound bytes not yet taken by the kernel. Writes
  // never block, and each connection is refilled as soon as its own
  // backlog falls below kOutboxCap: a full socket waits in ppoll while
  // the others keep streaming, so the hub is never left idle waiting
  // for the generator to encode the next batch.
  constexpr std::size_t kOutboxCap = 32 * 1024;
  std::vector<std::vector<std::uint8_t>> out(n_slots);
  std::vector<std::size_t> out_off(n_slots, 0);
  bool link_lost = false;

  const auto lose_link = [&] {
    link_lost = true;
    if (!stop_on_link_loss) sh.status.store(2);
  };
  const auto pending = [&] {
    for (std::size_t s = 0; s < n_slots; ++s) {
      if (out_off[s] < out[s].size()) return true;
    }
    return false;
  };
  const auto flush = [&](std::size_t s) {
    while (out_off[s] < out[s].size()) {
      std::size_t n = 0;
      const ipc::IoStatus st =
          ipc::write_some(fds[s], out[s].data() + out_off[s], out[s].size() - out_off[s], n);
      if (st == ipc::IoStatus::kWouldBlock) return;
      if (st != ipc::IoStatus::kOk) {
        sh.write_failures.fetch_add(1);
        lose_link();
        return;
      }
      out_off[s] += n;
    }
    out[s].clear();
    out_off[s] = 0;
  };
  const auto backlog = [&](std::size_t s) { return out[s].size() - out_off[s]; };
  const auto compact = [&](std::size_t s) {
    if (out_off[s] < 256 * 1024) return;
    out[s].erase(out[s].begin(), out[s].begin() + static_cast<std::ptrdiff_t>(out_off[s]));
    out_off[s] = 0;
  };

  // Wait up to `timeout_ns` for the hub: answer what it sent (kRecover,
  // probes) and push queued bytes into sockets that have room.
  std::vector<std::uint8_t> rbuf(64 * 1024);
  const auto service = [&](std::int64_t timeout_ns) {
    for (std::size_t s = 0; s < n_slots; ++s) {
      pfds[s] = pollfd{fds[s],
                       static_cast<short>(POLLIN | (out_off[s] < out[s].size() ? POLLOUT : 0)), 0};
    }
    timespec ts{timeout_ns / 1'000'000'000LL, timeout_ns % 1'000'000'000LL};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) return;
    for (std::size_t s = 0; s < n_slots && !link_lost; ++s) {
      if ((pfds[s].revents & POLLOUT) != 0) flush(s);
      if ((pfds[s].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      std::size_t n = 0;
      const ipc::IoStatus st = ipc::read_some(fds[s], rbuf.data(), rbuf.size(), n);
      if (st == ipc::IoStatus::kWouldBlock) continue;
      if (st != ipc::IoStatus::kOk || n == 0) {
        lose_link();
        return;
      }
      const std::int64_t rx = now_ns();
      decoders[s].feed(rbuf.data(), n);
      ipc::Frame f;
      while (decoders[s].next(f) == ipc::DecodeStatus::kOk) {
        ipc::Frame reply;
        if (!source.on_frame(static_cast<std::uint32_t>(s), f, reply, rx)) continue;
        reply.seq = ++out_seq[s];
        const auto bytes = ipc::encode_frame(reply);
        out[s].insert(out[s].end(), bytes.begin(), bytes.end());
        flush(s);
      }
      if (decoders[s].poisoned()) {
        lose_link();
        return;
      }
    }
  };

  sh.connected.store(1);
  while (sh.t0_ns.load() == 0 && sh.release.load() == 0 && !link_lost) service(200'000);
  const std::int64_t t0 = sh.t0_ns.load();

  std::size_t i = 0;
  const std::size_t total = items_.size();
  while (i < total && !link_lost && sh.release.load() == 0) {
    if (backlog(items_[i].slot) >= kOutboxCap) {
      service(1'000'000);  // that connection is still full
      continue;
    }
    const std::int64_t now = now_ns();
    const std::int64_t due = t0 + items_[i].due_ns;
    if (now < due) {
      service(due - now);
      continue;
    }
    // Coalesce everything already due.
    std::size_t end = i;
    std::size_t bytes = 0;
    while (end < total && end - i < 256 && bytes < 256 * 1024 &&
           t0 + items_[end].due_ns <= now &&
           backlog(items_[end].slot) < kOutboxCap) {
      std::vector<std::uint8_t>& buf = out[items_[end].slot];
      const std::size_t before = buf.size();
      source.append_bytes(end, items_[end], buf);
      bytes += buf.size() - before;
      ++end;
    }
    const std::int64_t stamp = now_ns();
    for (std::size_t k = i; k < end; ++k) send_ns_[k] = stamp;
    for (std::size_t s = 0; s < n_slots && !link_lost; ++s) {
      flush(s);
      compact(s);
    }
    if (link_lost) {
      for (std::size_t k = i; k < end; ++k) send_ns_[k] = 0;
      break;
    }
    sh.sent.fetch_add(end - i);
    i = end;
  }
  while (pending() && !link_lost) service(1'000'000);
  sh.done.store(1);
  while (sh.release.load() == 0 && !link_lost) service(1'000'000);
  if (!link_lost) {
    for (std::size_t s = 0; s < n_slots; ++s) {
      ipc::Frame bye;
      bye.type = ipc::FrameType::kShutdown;
      bye.seq = ++out_seq[s];
      bye.detail = "schedule complete";
      const auto b = ipc::encode_frame(bye);
      out[s].insert(out[s].end(), b.begin(), b.end());
      flush(s);
    }
    const std::int64_t deadline = now_ns() + 5'000'000'000LL;
    while (pending() && !link_lost && now_ns() < deadline) service(1'000'000);
  }
  for (int fd : fds) ::close(fd);
}

}  // namespace perfbench
