// tv_events: four TVs stream key presses and observable updates into
// one hub whose monitors compare them against the shared compiled spec
// model. Phase A offers a fixed rate and times every frame from its due
// time to its verdict; phase B floods the rest of the stream and counts
// frames carried to a verdict per second.
//
// Verdict: a frame with virtual timestamp ts has been compared once the
// fleet's clock reaches ts. The driver advances the fleet itself, to the
// minimum over slots of the newest ingested timestamp (what the hub's
// auto_advance computes), so the fleet's time is its own span.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <thread>

#include "core/model_program.hpp"
#include "core/monitor_builder.hpp"
#include "core/sharded_fleet.hpp"
#include "faults/injector.hpp"
#include "generator.hpp"
#include "hub/hub.hpp"
#include "ipc/wire.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"
#include "tv/keys.hpp"
#include "tv/spec_model.hpp"
#include "tv/tv_system.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace rt = trader::runtime;
namespace ipc = trader::ipc;
namespace hub = trader::hub;
namespace core = trader::core;
namespace tv = trader::tv;
namespace flt = trader::faults;

namespace {

constexpr std::size_t kSlots = 4;
/// Phase A offered load, frames/s: ~18% of the flood rate and ~40% of
/// the highest open-loop rate that kept up on a 4-core host; README.md
/// says why not half of the flood rate.
constexpr double kRateA = 40000;
/// Phase B stream length per second of phase B, sized so the flood
/// lasts about that long at the rate measured on that host.
constexpr double kFloodPerSecond = 230000;
/// Longest phase B, seconds: the flood's stream is held in memory, so a
/// longer run lengthens phase A instead.
constexpr double kMaxFloodSeconds = 5.0;
constexpr rt::SimDuration kKeyPeriod = rt::msec(10);
constexpr rt::SimDuration kEpoch = rt::msec(10);
constexpr std::uint64_t kFleetSeed = 0x5eed;

/// The generated stream, encoded once, in send order.
struct Trace {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> offset;  ///< n + 1 entries.
  std::vector<std::uint8_t> slot;
  std::vector<rt::SimTime> ts;
  std::array<std::vector<std::uint32_t>, kSlots> of_slot;  ///< Item ids per slot.
  std::size_t size() const { return slot.size(); }
};

struct SlotStream {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> offset;
  std::vector<rt::SimTime> ts;
};

/// One TV simulated under its own scheduler: a seeded viewer presses a
/// key every kKeyPeriod and a seeded fault plan disturbs the set; every
/// tv.input / tv.output event becomes one encoded frame.
SlotStream simulate_slot(std::uint64_t seed, std::size_t slot, std::size_t frames) {
  static constexpr tv::Key kViewerKeys[] = {
      tv::Key::kChannelUp, tv::Key::kChannelDown, tv::Key::kVolumeUp,
      tv::Key::kVolumeDown, tv::Key::kDigit1,     tv::Key::kDigit2,
  };
  struct FaultChoice {
    flt::FaultKind kind;
    const char* target;
  };
  static constexpr FaultChoice kFaults[] = {
      {flt::FaultKind::kMessageLoss, "cmd.audio"},
      {flt::FaultKind::kMessageLoss, "cmd.tuner"},
      {flt::FaultKind::kStuckComponent, "audio"},
      {flt::FaultKind::kStuckComponent, "tuner"},
      {flt::FaultKind::kMemoryCorruption, "control.volume"},
  };

  SlotStream out;
  out.bytes.reserve(frames * 128);
  out.offset.reserve(frames + 1);
  out.ts.reserve(frames);
  rt::Scheduler sched;
  rt::EventBus bus;
  const std::uint64_t slot_seed = seed * 0x9e3779b97f4a7c15ULL + slot * 0x632be59bd9b4e019ULL;
  flt::FaultInjector injector{rt::Rng(slot_seed ^ 0xfa17)};
  tv::TvConfig cfg;
  cfg.seed = slot_seed;
  tv::TvSystem set(sched, bus, injector, cfg);
  std::uint32_t seq = 0;
  const auto encode = [&](const rt::Event& ev, ipc::FrameType type) {
    if (out.ts.size() >= frames) return;
    ipc::Frame f;
    f.type = type;
    f.seq = ++seq;
    f.time = ev.timestamp;
    f.event = ev;
    const auto b = ipc::encode_frame(f);
    out.offset.push_back(static_cast<std::uint32_t>(out.bytes.size()));
    out.bytes.insert(out.bytes.end(), b.begin(), b.end());
    out.ts.push_back(ev.timestamp);
  };
  bus.subscribe("tv.input", [&](const rt::Event& ev) { encode(ev, ipc::FrameType::kInputEvent); });
  bus.subscribe("tv.output",
                [&](const rt::Event& ev) { encode(ev, ipc::FrameType::kOutputEvent); });

  rt::Rng rng(slot_seed);
  set.start();
  // Slots press on interleaved grids so the merged stream alternates.
  const rt::SimTime phase = static_cast<rt::SimTime>(slot) * kKeyPeriod / kSlots;
  sched.run_until(rt::msec(10) + phase);
  set.press(tv::Key::kPower);
  rt::SimTime next_key = rt::msec(100) + phase;
  rt::SimTime next_fault = rt::msec(500) + rng.uniform_int(0, rt::msec(500));
  while (out.ts.size() < frames) {
    if (next_key >= next_fault) {
      // Faults never overlap (spacing > duration), so the plan holds only
      // the next one; a growing plan would make every lookup linear in it.
      injector.clear_plan();
      const auto& choice = kFaults[rng.uniform_int(0, std::size(kFaults) - 1)];
      injector.schedule(flt::FaultSpec{choice.kind, choice.target, next_fault,
                                       rt::msec(50) + rng.uniform_int(0, rt::msec(250)), 1.0, {}});
      next_fault += rt::msec(1000) + rng.uniform_int(0, rt::msec(1000));
    }
    sched.run_until(next_key);
    set.press(kViewerKeys[rng.uniform_int(0, std::size(kViewerKeys) - 1)]);
    next_key += kKeyPeriod;
  }
  out.offset.push_back(static_cast<std::uint32_t>(out.bytes.size()));
  return out;
}

/// Merge the slot streams by (timestamp, slot) and keep the first `total`.
std::unique_ptr<Trace> make_trace(std::uint64_t seed, std::size_t total) {
  std::array<SlotStream, kSlots> streams;
  const std::size_t per_slot = total / kSlots + total / 32 + 64;
  {
    // The slots are independent simulations: one thread each.
    std::vector<std::thread> workers;
    for (std::size_t s = 0; s < kSlots; ++s) {
      workers.emplace_back([&streams, seed, s, per_slot] {
        streams[s] = simulate_slot(seed, s, per_slot);
      });
    }
    for (auto& w : workers) w.join();
  }
  auto trace = std::make_unique<Trace>();
  trace->bytes.reserve(total * 128);
  trace->offset.reserve(total + 1);
  std::array<std::size_t, kSlots> next{};
  while (trace->size() < total) {
    std::size_t best = kSlots;
    for (std::size_t s = 0; s < kSlots; ++s) {
      if (next[s] >= streams[s].ts.size()) continue;
      if (best == kSlots || streams[s].ts[next[s]] < streams[best].ts[next[best]]) best = s;
    }
    require(best < kSlots, "trace_generation_short");
    const SlotStream& st = streams[best];
    const std::size_t k = next[best]++;
    trace->of_slot[best].push_back(static_cast<std::uint32_t>(trace->size()));
    trace->offset.push_back(static_cast<std::uint32_t>(trace->bytes.size()));
    trace->bytes.insert(trace->bytes.end(), st.bytes.begin() + st.offset[k],
                        st.bytes.begin() + st.offset[k + 1]);
    trace->slot.push_back(static_cast<std::uint8_t>(best));
    trace->ts.push_back(st.ts[k]);
  }
  trace->offset.push_back(static_cast<std::uint32_t>(trace->bytes.size()));
  return trace;
}

class TvSource : public GenSource {
 public:
  explicit TvSource(const Trace& t) : t_(t) {}
  void append_bytes(std::size_t i, const GenItem&, std::vector<std::uint8_t>& out) override {
    out.insert(out.end(), t_.bytes.begin() + t_.offset[i], t_.bytes.begin() + t_.offset[i + 1]);
  }

 private:
  const Trace& t_;
};

core::MonitorBuilder tv_monitor(const std::string& slot, const core::ModelProgramPtr& program) {
  core::MonitorBuilder builder;
  builder.with_program(program)
      .input_topic(slot + "/tv.input")
      .output_topic(slot + "/tv.output")
      .comparison_period(rt::msec(50))
      .startup_grace(rt::msec(100));
  for (const char* obs : {"sound_level", "screen_state", "channel", "powered"}) {
    builder.threshold(obs, 0.0, 3);
  }
  return builder;
}

ipc::Frame decode_one(const Trace& t, std::size_t i) {
  ipc::FrameDecoder dec;
  dec.feed(t.bytes.data() + t.offset[i], t.offset[i + 1] - t.offset[i]);
  ipc::Frame f;
  require(dec.next(f) == ipc::DecodeStatus::kOk, "trace_frame_decodes");
  return f;
}

/// Everything one set-up builds; torn down before the next repetition.
struct Rig {
  std::unique_ptr<Trace> trace;
  std::unique_ptr<TvSource> source;
  std::unique_ptr<Generator> gen;
  core::ModelProgramPtr program;
  std::unique_ptr<hub::AwarenessHub> hub;
};

void teardown(Rig& rig) {
  if (rig.gen != nullptr) {
    rig.gen->release();
    const std::int64_t deadline = now_ns() + 10'000'000'000LL;
    while (rig.hub != nullptr && rig.hub->connection_count() > 0 && now_ns() < deadline) {
      watchdog().progress("teardown poll");
      rig.hub->poll(5);
    }
    require(rig.gen->join() == 0, "generator_exit_clean");
  }
  rig = Rig{};
}

void setup(Rig& rig, const Options& opt, std::size_t total, std::size_t n_a, double t_b_s) {
  rig.trace = make_trace(opt.seed, total);
  std::vector<GenItem> items(total);
  for (std::size_t i = 0; i < total; ++i) {
    items[i].slot = rig.trace->slot[i];
    items[i].index = static_cast<std::uint32_t>(i);
    items[i].due_ns = i < n_a ? static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / kRateA)
                              : static_cast<std::int64_t>(t_b_s * 1e9);
  }
  std::vector<std::string> names;
  for (std::size_t s = 0; s < kSlots; ++s) names.push_back(slot_name(s));
  rig.gen = std::make_unique<Generator>(names, std::move(items));
  rig.source = std::make_unique<TvSource>(*rig.trace);
  const std::string path = hub_path();
  rig.gen->spawn(path, *rig.source);

  rig.program = core::compile_model(tv::build_tv_spec_model());
  hub::HubConfig config;
  config.path = path;
  config.shards = 2;
  config.epoch = kEpoch;
  config.seed = kFleetSeed;
  config.probe_liveness = false;
  config.namespace_topics = true;
  rig.hub = std::make_unique<hub::AwarenessHub>(config);
  for (std::size_t s = 0; s < kSlots; ++s) {
    rig.hub->add_monitor(slot_name(s), slot_name(s), tv_monitor(slot_name(s), rig.program));
  }
  require(rig.hub->start(), "hub_start");
  const std::int64_t deadline = now_ns() + 20'000'000'000LL;
  for (;;) {
    watchdog().progress("setup poll");
    rig.hub->poll(1);
    std::size_t up = 0;
    for (std::size_t s = 0; s < kSlots; ++s) up += rig.hub->slot_up(slot_name(s)) ? 1 : 0;
    if (up == kSlots && rig.gen->connected()) break;
    require(rig.gen->status() == 0, "generator_connect");
    require(now_ns() < deadline, "setup_connect_timeout");
  }
}

bool same_errors(const std::vector<core::AspectError>& a, const std::vector<core::AspectError>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.aspect != y.aspect || x.report.observable != y.report.observable ||
        x.report.detected_at != y.report.detected_at ||
        x.report.first_deviation_at != y.report.first_deviation_at ||
        x.report.consecutive != y.report.consecutive ||
        rt::to_string(x.report.expected) != rt::to_string(y.report.expected) ||
        rt::to_string(x.report.observed) != rt::to_string(y.report.observed)) {
      return false;
    }
  }
  return true;
}

/// Median of the even (traced) or odd (untraced) windows of a traced run.
double median_of_half(const std::vector<double>& per_window, bool even, const char* what) {
  std::vector<double> half;
  for (std::size_t i = even ? 0 : 1; i < per_window.size(); i += 2) half.push_back(per_window[i]);
  return median(half, what);
}

}  // namespace

Result run_tv_events(const Options& opt) {
  const bool traced = tracer().traced_run();
  const double d_b = std::min(kMaxFloodSeconds, 0.5 * opt.seconds);
  const double d_a = opt.seconds - d_b;
  const double t_b = d_a + 0.1;  // phase B starts once phase A has drained
  const auto n_a = static_cast<std::size_t>(kRateA * d_a);
  const auto n_b = static_cast<std::size_t>(kFloodPerSecond * d_b);
  const std::size_t total = n_a + n_b;
  watchdog().set_attempted(total);

  Result r;
  Rig rig;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    teardown(rig);
    const std::int64_t t = now_ns();
    setup(rig, opt, total, n_a, t_b);
    setup_s.push_back(static_cast<double>(now_ns() - t) / 1e9);
  }
  const Trace& trace = *rig.trace;
  hub::AwarenessHub& h = *rig.hub;
  Generator& gen = *rig.gen;

  // Ingest tap: which frame arrived (slot, per-slot index), at what
  // fleet time it was published, and (traced) the wall time.
  std::array<std::size_t, kSlots> ingested{};
  std::array<std::vector<rt::SimTime>, kSlots> ingest_vt;
  std::array<std::vector<std::int64_t>, kSlots> ingest_wall;
  std::array<rt::SimTime, kSlots> watermark{};
  std::vector<std::uint8_t> order;
  order.reserve(total);
  std::size_t overflow = 0;
  for (std::size_t s = 0; s < kSlots; ++s) {
    ingest_vt[s].resize(trace.of_slot[s].size());
    if (traced) ingest_wall[s].resize(trace.of_slot[s].size());
  }
  h.set_ingest_tap([&](const rt::Event& ev) {
    const auto s = static_cast<std::size_t>(ev.topic[1] - '0');
    if (s >= kSlots || ingested[s] >= ingest_vt[s].size()) {
      ++overflow;
      return;
    }
    const std::size_t k = ingested[s]++;
    ingest_vt[s][k] = h.now();
    if (traced) ingest_wall[s][k] = now_ns();
    watermark[s] = ev.timestamp;
    order.push_back(static_cast<std::uint8_t>(s));
  });

  Samples verdict("verdict_latency");
  verdict.reserve(n_a);
  // The same latencies by tenth of phase A (due time).
  std::vector<Samples> verdict_w(kWindows, Samples("verdict_latency_window"));
  Samples ingest_lat("ingest_latency"), lag("advance_lag");
  Samples frames_per_poll("frames_per_poll");
  if (traced) {
    ingest_lat.reserve(n_a);
    lag.reserve(n_a);
  }
  std::array<std::size_t, kSlots> vptr{};
  std::size_t verdicted = 0;
  std::int64_t busy_ns = 0;
  // Traced run: frames ingested by traced polls, verdicts after traced
  // advances (the per-layer costs are per frame of the traced windows).
  std::size_t traced_ingested = 0, traced_verdicts = 0;
  Marks cpu_a(n_a, kWindows), flood(n_b, kWindows);
  std::uint64_t polls = 0, advances = 0;

  const std::int64_t t0 = now_ns() + 20'000'000;
  const std::int64_t cpu0 = process_cpu_ns();
  gen.go(t0);
  const std::int64_t deadline =
      t0 + static_cast<std::int64_t>((t_b + 3 * d_b + 20) * 1e9);
  bool flushed = false;
  while (verdicted < total) {
    // A traced run records spans in the even windows of each phase only.
    const bool trace_now = traced && (verdicted < n_a ? cpu_a.closed() : flood.closed()) % 2 == 0;
    tracer().pause(traced && !trace_now);
    require(now_ns() < deadline, "frames_not_verdicted");
    require(gen.status() == 0, "generator_link");
    const std::size_t before = order.size();
    const auto counts_before = ingested;
    {
      watchdog().progress("AwarenessHub::poll");
      Span sp("poll", "hub");
      const std::int64_t p0 = traced ? now_ns() : 0;
      require(h.poll(1) >= 0, "hub_poll");
      if (order.size() > before) {
        const std::size_t s = order[before];
        sp.tag(static_cast<std::int32_t>(s), static_cast<std::int64_t>(counts_before[s]));
        if (traced) busy_ns += now_ns() - p0;
        if (trace_now) traced_ingested += order.size() - before;
        frames_per_poll.add(static_cast<double>(order.size() - before));
      }
      ++polls;
    }
    rt::SimTime target = watermark[0];
    for (std::size_t s = 1; s < kSlots; ++s) target = std::min(target, watermark[s]);
    if (!flushed && order.size() == total) {
      // The stream ended: nothing will lift the slowest slot's
      // watermark any more, so run to the newest frame.
      for (std::size_t s = 0; s < kSlots; ++s) target = std::max(target, watermark[s]);
      flushed = true;
    }
    if (target > h.now()) {
      watchdog().progress("AwarenessHub::run_until");
      Span sp("run_until", "core");
      for (std::size_t s = 0; s < kSlots; ++s) {
        if (vptr[s] < ingested[s]) {
          sp.tag(static_cast<std::int32_t>(s), static_cast<std::int64_t>(vptr[s]));
          break;
        }
      }
      h.run_until(target);
      ++advances;
    }
    const std::size_t verdicted_before = verdicted;
    const rt::SimTime vnow = h.now();
    const std::int64_t wall = now_ns();
    for (std::size_t s = 0; s < kSlots; ++s) {
      const auto& items = trace.of_slot[s];
      while (vptr[s] < ingested[s] && trace.ts[items[vptr[s]]] <= vnow) {
        const std::size_t k = vptr[s]++;
        const std::size_t item = items[k];
        ++verdicted;
        if (item >= n_a) {
          flood.done([wall] { return wall; });
          continue;
        }
        const std::int64_t due = t0 + gen.items()[item].due_ns;
        verdict.add(static_cast<double>(wall - due));
        verdict_w[std::min(kWindows - 1, item * kWindows / n_a)].add(static_cast<double>(wall - due));
        if (traced) {
          ingest_lat.add(static_cast<double>(ingest_wall[s][k] - due));
          lag.add(static_cast<double>(wall - ingest_wall[s][k]));
        }
        cpu_a.done(process_cpu_ns);
      }
    }
    if (trace_now) traced_verdicts += verdicted - verdicted_before;
  }
  tracer().pause(false);
  const std::int64_t stream_end = now_ns();
  require(overflow == 0, "frame_ingested_once");
  for (std::size_t s = 0; s < kSlots; ++s) {
    require(ingested[s] == trace.of_slot[s].size(), "frame_ingested_once");
  }
  require(h.events_ingested() == total, "frame_ingested_once");
  require(gen.sent() == total, "generator_sent_all");
  const rt::MetricsSnapshot snap = h.metrics();
  require(snap.counter("hub.decode_errors") == 0, "hub_decode_errors");
  require(snap.counter("hub.evicted") == 0, "hub_evicted");

  r.attempted = total;
  r.failed = 0;
  r.put("setup_s", median(setup_s, "setup_s"), "s");
  // Latency: the median over the ten windows of each window's p50 and
  // p90 (README.md: host stalls of a few seconds hit most runs here).
  for (const auto& [name, q] : {std::pair<const char*, double>{"latency_ms", 0.5},
                                {"latency_tail_ms", kTailQ}}) {
    std::vector<double> per_window;
    for (Samples& w : verdict_w) per_window.push_back(w.quantile(q));
    r.put_windows(name, per_window, 1e-6, "ms");
    r.sample_counts[name] = verdict.count();
  }
  r.notes["latency_p50_ms.pooled"] = fmt_num(verdict.quantile(0.50) * 1e-6);
  r.notes["latency_tail_ms.pooled"] = fmt_num(verdict.quantile(kTailQ) * 1e-6);
  r.notes["latency_p99_ms.pooled"] = fmt_num(verdict.quantile(0.99) * 1e-6);
  const std::vector<double> flood_rates = flood.rates(t0 + gen.items()[n_a].due_ns, "flood");
  const std::vector<double> cpu_ns = cpu_a.per_op(cpu0, "cpu");
  r.put_windows("throughput_per_s", flood_rates, 1.0, "1/s");
  r.put_windows("cpu_us_per_op", cpu_ns, 1e-3, "us");
  r.notes["phase_a_rate_fps"] = fmt_num(kRateA);
  r.notes["phase_a_frames"] = std::to_string(n_a);
  r.notes["phase_b_frames"] = std::to_string(n_b);
  r.notes["meaning"] =
      "latency = frame due time to verdict (p50, p90 per tenth of phase A, median of the 10); "
      "throughput = phase B frames carried to a verdict per second (median of 10 windows); "
      "cpu = driver process CPU per phase A frame (median of 10 windows)";

  // Orderly end of stream, then the error-report replay check.
  const std::vector<core::AspectError> hub_errors = h.fleet().errors();
  const rt::SimTime final_vt = h.now();
  {
    gen.release();
    const std::int64_t end_deadline = now_ns() + 10'000'000'000LL;
    while (h.connection_count() > 0 && now_ns() < end_deadline) {
      watchdog().progress("teardown poll");
      h.poll(5);
    }
    require(gen.join() == 0, "generator_exit_clean");
  }
  require(!hub_errors.empty(), "error_reports_nonzero");
  {
    watchdog().progress("replay check");
    core::ShardedFleet fleet(core::ShardedFleetConfig{1, kEpoch, kFleetSeed});
    for (std::size_t s = 0; s < kSlots; ++s) {
      fleet.add_monitor(slot_name(s), tv_monitor(slot_name(s), rig.program));
    }
    fleet.start();
    std::array<std::size_t, kSlots> k{};
    for (const std::uint8_t s : order) {
      const std::size_t idx = k[s]++;
      if (ingest_vt[s][idx] > fleet.now()) fleet.run_until(ingest_vt[s][idx]);
      ipc::Frame f = decode_one(trace, trace.of_slot[s][idx]);
      f.event.topic = slot_name(s) + "/" + f.event.topic;
      fleet.publish(f.event);
    }
    fleet.run_until(final_vt);
    require(same_errors(hub_errors, fleet.errors()), "error_reports_match_replay");
    fleet.stop();
  }
  r.notes["error_reports"] = std::to_string(hub_errors.size());

  if (traced) {
    // Standalone replay of the captured bytes through the wire decoder.
    std::size_t decoded = 0;
    std::int64_t decode_ns = 0;
    {
      Span sp("FrameDecoder::next", "ipc");
      const std::int64_t d0 = now_ns();
      ipc::FrameDecoder dec;
      ipc::Frame f;
      for (std::size_t off = 0; off < trace.bytes.size(); off += 64 * 1024) {
        dec.feed(trace.bytes.data() + off, std::min<std::size_t>(64 * 1024, trace.bytes.size() - off));
        while (dec.next(f) == ipc::DecodeStatus::kOk) ++decoded;
      }
      decode_ns = now_ns() - d0;
    }
    require(decoded == total, "standalone_decode_count");
    const auto totals = tracer().totals_by_name();
    const auto span_ns = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : static_cast<double>(it->second.first);
    };
    const double n = static_cast<double>(total);
    r.put_layer("ipc.decode_ns_per_frame", static_cast<double>(decode_ns) / n, "ns");
    r.put_layer("ipc.bytes_per_frame", static_cast<double>(trace.bytes.size()) / n, "B");
    r.put_layer("hub.poll_us_per_frame",
                span_ns("poll") / 1e3 / static_cast<double>(std::max<std::size_t>(1, traced_ingested)),
                "us");
    r.put_layer("hub.poll_busy_frac",
                static_cast<double>(busy_ns) / static_cast<double>(stream_end - t0), "ratio");
    r.put_layer_q("hub.frames_per_poll_p50", frames_per_poll, 0.50, 1.0, "count");
    r.put_layer_q("hub.frames_per_poll_p99", frames_per_poll, 0.99, 1.0, "count");
    r.put_layer_q("hub.ingest_p50_us", ingest_lat, 0.50, 1e-3, "us");
    r.put_layer_q("hub.ingest_p99_us", ingest_lat, 0.99, 1e-3, "us");
    r.put_layer("hub.decode_errors", static_cast<double>(snap.counter("hub.decode_errors")), "count");
    r.put_layer("hub.backpressure", static_cast<double>(snap.counter("hub.backpressure")), "count");
    r.put_layer("hub.evicted", static_cast<double>(snap.counter("hub.evicted")), "count");
    r.put_layer("core.advance_us_per_event",
                span_ns("run_until") / 1e3 /
                    static_cast<double>(std::max<std::size_t>(1, traced_verdicts)),
                "us");
    r.put_layer("core.events_per_advance", n / static_cast<double>(std::max<std::uint64_t>(1, advances)),
                "count");
    r.put_layer_q("core.advance_lag_p50_ms", lag, 0.50, 1e-6, "ms");
    r.put_layer_q("core.advance_lag_p99_ms", lag, 0.99, 1e-6, "ms");
    r.put_layer("core.error_reports", static_cast<double>(hub_errors.size()), "count");
    Samples late("generator_late");
    for (std::size_t i = 0; i < n_a; ++i) {
      late.add(static_cast<double>(gen.send_ns(i) - (t0 + gen.items()[i].due_ns)));
    }
    r.put_layer_q("gen.late_p99_ms", late, 0.99, 1e-6, "ms");
    r.put_layer("gen.sent", static_cast<double>(gen.sent()), "count");
    r.put_layer("gen.failed", static_cast<double>(gen.write_failures() + (total - gen.sent())),
                "count");
    r.notes["polls"] = std::to_string(polls);
    r.put_layer_q("e2e.latency_p50_ms", verdict, 0.50, 1e-6, "ms");
    r.put_layer_q("e2e.latency_p99_ms", verdict, 0.99, 1e-6, "ms");
    // Tracing overhead: traced (even) against untraced (odd) windows.
    const double cpu_t = median_of_half(cpu_ns, true, "cpu_traced") * 1e-3;
    const double cpu_u = median_of_half(cpu_ns, false, "cpu_untraced") * 1e-3;
    r.put_layer("trace.overhead_pct", (cpu_t / cpu_u - 1.0) * 100.0, "%");
    r.overhead["cpu_us_per_op"] = {cpu_u, cpu_t, "us"};
    r.overhead["throughput_per_s"] = {median_of_half(flood_rates, false, "flood_untraced"),
                                      median_of_half(flood_rates, true, "flood_traced"), "1/s"};
  }
  rig.hub.reset();
  rig.gen.reset();
  return r;
}

}  // namespace perfbench
