// E16: the cost of the process boundary (src/ipc).
//
// The paper's awareness framework observes the SUO "with minimal
// probe effect"; moving the SUO out of process trades shared-memory
// observation for a wire. This bench quantifies that trade as frame
// throughput — how many observable-update frames per second one link
// carries (encode -> kernel stream -> decode) — on an in-process
// socketpair and on a genuine AF_UNIX listener/connect pair, the
// socket kind every hub connection uses. Results land in
// BENCH_ipc.json for scripts/check.sh.
#include "bench_common.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <thread>
#include <vector>

#include "ipc/transport.hpp"
#include "ipc/wire.hpp"

namespace rt = trader::runtime;
namespace ipc = trader::ipc;
using trader::bench::Table;
using trader::bench::banner;
using trader::bench::fmt;

namespace {

double now_ms() {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ipc::Frame sample_output_frame() {
  ipc::Frame f;
  f.type = ipc::FrameType::kOutputEvent;
  f.time = rt::msec(20);
  f.event.topic = "tv.output";
  f.event.name = "sound_level";
  f.event.fields["value"] = std::int64_t{35};
  f.event.fields["quality"] = 0.97;
  return f;
}

/// The two kernel streams measured; the names are BENCH_ipc.json's
/// "transport" values.
enum class Transport { kSocketpair, kUnix };

const char* to_string(Transport t) { return t == Transport::kSocketpair ? "socketpair" : "unix"; }

/// Make one connected FramedSocket pair on the requested transport.
std::pair<ipc::FramedSocket, ipc::FramedSocket> make_pair_on(Transport transport) {
  if (transport == Transport::kSocketpair) return ipc::socketpair_transport();
  const std::string path = "@trader-bench-ipc-" + std::to_string(::getpid());
  const int listener = ipc::listen_unix(path);
  const int client = ipc::connect_unix_retry(path, 2000);
  const int server = ipc::accept_unix(listener, 2000);
  ::close(listener);
  return {ipc::FramedSocket(server), ipc::FramedSocket(client)};
}

struct ThroughputRun {
  double frames_per_sec = 0.0;
  double mb_per_sec = 0.0;
};

/// One writer thread floods frames; the main thread drains and counts.
ThroughputRun run_throughput(Transport transport, int frames) {
  auto [rx, tx] = make_pair_on(transport);
  const auto encoded_size = ipc::encode_frame(sample_output_frame()).size();

  std::thread writer([&tx = tx, frames]() {
    const ipc::Frame f = sample_output_frame();
    for (int i = 0; i < frames; ++i) {
      if (!tx.send(f)) break;
    }
    tx.close();
  });

  int received = 0;
  const double start = now_ms();
  ipc::Frame in;
  while (rx.recv(in, 2000) == ipc::FramedSocket::RecvStatus::kFrame) ++received;
  const double wall_ms = now_ms() - start;
  writer.join();

  ThroughputRun run;
  run.frames_per_sec = received / (wall_ms / 1000.0);
  run.mb_per_sec =
      static_cast<double>(received) * static_cast<double>(encoded_size) / 1e6 / (wall_ms / 1000.0);
  return run;
}

void report() {
  banner("E16", "the cost of the process boundary (out-of-process SUO)");

  const int frames = 200000;
  const std::vector<Transport> transports{Transport::kSocketpair, Transport::kUnix};

  std::vector<ThroughputRun> tputs;
  for (const auto& t : transports) tputs.push_back(run_throughput(t, frames));

  Table t({"transport", "frames/sec", "MB/sec"});
  for (std::size_t i = 0; i < transports.size(); ++i) {
    t.row({to_string(transports[i]), fmt(tputs[i].frames_per_sec, 0),
           fmt(tputs[i].mb_per_sec, 1)});
  }
  t.print();
  std::printf("every observable update crosses this wire once; a 50 Hz TV emitting ~10\n"
              "observables needs ~500 frames/sec — orders of magnitude under either\n"
              "transport's ceiling, so the process boundary does not throttle awareness.\n\n");

  std::ofstream json("BENCH_ipc.json");
  json << "{\n  \"experiment\": \"bench_ipc\",\n";
  json << "  \"frames\": " << frames << ",\n";
  json << "  \"transports\": [\n";
  for (std::size_t i = 0; i < transports.size(); ++i) {
    json << "    {\"transport\": \"" << to_string(transports[i]) << "\""
         << ", \"frames_per_sec\": " << fmt(tputs[i].frames_per_sec, 0)
         << ", \"mb_per_sec\": " << fmt(tputs[i].mb_per_sec, 2) << "}"
         << (i + 1 < transports.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_ipc.json (throughput per transport)\n");
}

// ------------------------------------------------------- microbenchmarks

void BM_EncodeOutputEvent(benchmark::State& state) {
  const ipc::Frame f = sample_output_frame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ipc::encode_frame(f));
  }
}
BENCHMARK(BM_EncodeOutputEvent);

void BM_DecodeOutputEvent(benchmark::State& state) {
  const auto bytes = ipc::encode_frame(sample_output_frame());
  for (auto _ : state) {
    ipc::FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    ipc::Frame out;
    benchmark::DoNotOptimize(decoder.next(out));
  }
}
BENCHMARK(BM_DecodeOutputEvent);

void BM_SocketpairRoundTrip(benchmark::State& state) {
  auto [a, b] = ipc::socketpair_transport();
  const ipc::Frame f = sample_output_frame();
  for (auto _ : state) {
    a.send(f);
    ipc::Frame echo;
    b.recv(echo, 1000);
    b.send(echo);
    ipc::Frame back;
    a.recv(back, 1000);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_SocketpairRoundTrip);

}  // namespace

TRADER_BENCH_MAIN(report)
