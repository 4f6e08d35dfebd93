// hub_restart: four instrumented programs stream their block spectra
// into a journaled hub that folds them into SFL rankings and drives the
// recovery ladder. Set-up kills that hub cold at a seed-chosen point
// between two checkpoints; one operation then restarts it: a hub built
// on a fresh copy of the crashed journal, start() (checkpoint load and
// WAL-tail replay), and a check that the recovered state equals the
// state at the crash.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>

#include "diagnosis/spectrum.hpp"
#include "diagnosis/synthetic_program.hpp"
#include "fleetdiag/aggregator.hpp"
#include "fleetdiag/reporter.hpp"
#include "generator.hpp"
#include "hub/hub.hpp"
#include "hub/recovery.hpp"
#include "journal/checkpoint.hpp"
#include "journal/wal.hpp"
#include "observation/coverage.hpp"
#include "recovery/escalation.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace rt = trader::runtime;
namespace ipc = trader::ipc;
namespace hub = trader::hub;
namespace dg = trader::diagnosis;
namespace fd = trader::fleetdiag;
namespace jr = trader::journal;
namespace rec = trader::recovery;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kSlots = 4;
constexpr std::size_t kStepsPerFrame = 8;
constexpr std::size_t kPool = 4096;             ///< Distinct steps per slot.
constexpr std::uint32_t kBlocks = 2000;         ///< Instrumented blocks per program.
/// Virtual time per step. The recovery ladder's cooldowns and ack
/// timeouts run on this clock.
constexpr rt::SimDuration kStepVt = rt::msec(1);
constexpr std::uint64_t kRearmSteps = 400;      ///< Fault re-arms this long after a repair.
/// Set-up stream, frames/s, and its length: longer than the journal
/// needs to pass its first checkpoint and the crash point after it.
constexpr double kCrashDrillRate = 2000;
constexpr std::size_t kCrashDrillFrames = 2500 * kSlots;

dg::SyntheticProgramConfig program_config(std::uint64_t seed) {
  dg::SyntheticProgramConfig c;
  c.total_blocks = kBlocks;
  c.feature_count = 8;
  c.seed = seed;
  return c;
}

struct PoolStep {
  std::vector<std::uint32_t> blocks;  ///< Strictly ascending.
  bool hits_fault = false;
};

/// Per-slot spectra, generated from the seed before the fork.
struct SlotPlan {
  bool faulty = false;
  std::size_t fault_feature = 0;
  std::uint32_t fault_block = 0;
  std::vector<PoolStep> pool;
};

std::array<SlotPlan, kSlots> make_plans(std::uint64_t seed) {
  rt::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5bec);
  // Two of the four slots carry a fault, in a seeded feature.
  std::array<std::size_t, kSlots> ids{0, 1, 2, 3};
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    std::swap(ids[i], ids[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }
  std::array<SlotPlan, kSlots> plans;
  for (std::size_t s = 0; s < kSlots; ++s) {
    SlotPlan& p = plans[s];
    dg::SyntheticProgram program(program_config(seed * 31 + s));
    p.faulty = s == ids[0] || s == ids[1];
    p.fault_feature = static_cast<std::size_t>(rng.uniform_int(0, 7));
    p.fault_block = static_cast<std::uint32_t>(program.feature_begin(p.fault_feature));
    trader::observation::BlockCoverageRecorder coverage(program.block_count());
    p.pool.resize(kPool);
    for (auto& step : p.pool) {
      const auto feature = static_cast<std::size_t>(rng.uniform_int(0, 7));
      program.run_step(feature, coverage);
      for (std::size_t b : coverage.current_touched()) {
        step.blocks.push_back(static_cast<std::uint32_t>(b));
      }
      std::sort(step.blocks.begin(), step.blocks.end());
      step.hits_fault =
          p.faulty && std::binary_search(step.blocks.begin(), step.blocks.end(), p.fault_block);
      coverage.clear();
    }
  }
  return plans;
}

std::string unit_of(const dg::SyntheticProgram& program, std::size_t block) {
  const std::size_t f = program.feature_of(block);
  return f == SIZE_MAX ? std::string("common") : "feature" + std::to_string(f);
}



/// What the generator logs for the driver, in shared memory: every
/// error bit it sent and the number of repairs it performed.
struct SpectrumLog {
  explicit SpectrumLog(std::size_t max_steps)
      : max_steps(max_steps), err(kSlots * max_steps), steps_sent(kSlots), repairs(1) {}
  std::size_t max_steps;
  SharedArray<std::uint8_t> err;
  SharedArray<std::uint64_t> steps_sent;
  SharedArray<std::uint64_t> repairs;
};

/// Child-side behaviour: send chunks with the live fault state, ack
/// every kRecover, clear a fault by the repair rule of hub/agent.cpp (a
/// restart-class action that targets the faulty unit).
class SpectrumSource : public GenSource {
 public:
  /// Every chunk of the step pool is encoded once, with its fault
  /// manifesting and without; sending patches the header's sequence
  /// number and timestamp, which the payload checksum does not cover.
  SpectrumSource(const std::array<SlotPlan, kSlots>& plans, const dg::SyntheticProgram& shape,
                 SpectrumLog& log)
      : plans_(plans), shape_(shape), log_(log) {
    for (std::size_t s = 0; s < kSlots; ++s) {
      state_[s].armed = plans_[s].faulty;
      for (std::size_t c = 0; c < kPool / kStepsPerFrame; ++c) {
        for (int armed = 0; armed < 2; ++armed) {
          fd::SpectrumReporter reporter(fd::ReporterConfig{kBlocks, ipc::kMaxFramePayload, 0});
          for (std::size_t n = c * kStepsPerFrame; n < (c + 1) * kStepsPerFrame; ++n) {
            reporter.add_step(plans_[s].pool[n].blocks, armed != 0 && plans_[s].pool[n].hits_fault);
          }
          std::uint32_t seq = 0;
          const auto frames = reporter.flush(seq, 0);
          require(frames.size() == 1, "spectrum_chunk_fits_one_frame");
          encoded_[s][c][armed] = ipc::encode_frame(frames.front());
        }
      }
    }
  }

  void append_bytes(std::size_t, const GenItem& item, std::vector<std::uint8_t>& out) override {
    const std::size_t s = item.slot;
    SlotState& st = state_[s];
    const std::uint64_t first = static_cast<std::uint64_t>(item.index) * kStepsPerFrame;
    if (plans_[s].faulty && !st.armed && first >= st.rearm_at) st.armed = true;
    for (std::uint64_t n = first; n < first + kStepsPerFrame; ++n) {
      log_.err[s * log_.max_steps + n] = st.armed && plans_[s].pool[n % kPool].hits_fault ? 1 : 0;
    }
    st.next_step = first + kStepsPerFrame;
    const auto& bytes = encoded_[s][(first % kPool) / kStepsPerFrame][st.armed ? 1 : 0];
    const std::size_t at = out.size();
    out.insert(out.end(), bytes.begin(), bytes.end());
    const std::uint32_t seq = ++st.seq;
    const rt::SimTime time = static_cast<rt::SimTime>(st.next_step) * kStepVt;
    std::memcpy(out.data() + at + 8, &seq, sizeof seq);    // header: u32 seq at 8
    std::memcpy(out.data() + at + 12, &time, sizeof time);  // header: i64 time at 12
    log_.steps_sent[s] = st.next_step;
  }

  bool on_frame(std::uint32_t slot, const ipc::Frame& f, ipc::Frame& ack, std::int64_t) override {
    if (f.type != ipc::FrameType::kRecover) return false;
    SlotState& st = state_[slot];
    ack.type = ipc::FrameType::kRecoverAck;
    ack.time = static_cast<rt::SimTime>(st.next_step) * kStepVt;
    ack.action = f.action;
    ack.token = f.token;
    ack.unit = f.unit;
    ack.ok = true;
    if (f.token != 0 && f.token == st.last_token) {
      ack.detail = "duplicate";
      return true;
    }
    st.last_token = f.token;
    const auto action = static_cast<rec::RecoveryAction>(f.action);
    bool repairs = false;
    if (action == rec::RecoveryAction::kRestartUnit) {
      repairs = st.armed && shape_.feature_of(f.block) == plans_[slot].fault_feature;
    } else if (action == rec::RecoveryAction::kRestartDependents ||
               action == rec::RecoveryAction::kFullRestart) {
      repairs = st.armed;
    }
    ack.detail = repairs ? "repaired" : "restarted";
    if (!repairs) return true;
    st.armed = false;
    st.rearm_at = st.next_step + kRearmSteps;
    ++log_.repairs[0];
    return true;
  }

 private:
  struct SlotState {
    bool armed = false;
    std::uint64_t rearm_at = 0;
    std::uint64_t next_step = 0;
    std::uint64_t last_token = 0;
    std::uint32_t seq = 0;
  };
  const std::array<SlotPlan, kSlots>& plans_;
  const dg::SyntheticProgram& shape_;
  SpectrumLog& log_;
  std::array<std::array<std::array<std::vector<std::uint8_t>, 2>, kPool / kStepsPerFrame>, kSlots>
      encoded_;
  std::array<SlotState, kSlots> state_;
};

hub::HubConfig hub_config(const std::string& path, const std::string& journal_dir) {
  hub::HubConfig config;
  config.path = path;
  config.shards = 1;
  config.probe_liveness = false;
  config.diag.top_k = 10;
  config.diag.refresh_every = 1;
  config.recovery.enabled = true;
  config.recovery.stable_reports = 2;
  config.recovery.token_capacity = 8;
  config.recovery.token_refill_every = rt::msec(100);
  config.recovery.cooldown = rt::msec(100);
  config.recovery.cooldown_jitter = rt::msec(40);
  config.recovery.ack_timeout = rt::msec(500);
  config.recovery.escalation.failures_per_level = 1;
  // Failures count toward escalation for 200 ms of virtual time, less
  // than the re-arm interval: each recurrence starts a fresh ladder.
  // Under the 30 s default a fault that re-arms every 400 steps is a
  // flapper, and the ladder (by design) quarantines the slot.
  config.recovery.escalation.window = rt::msec(200);
  // Default fsync policy and checkpoint cadence.
  config.journal.enabled = !journal_dir.empty();
  config.journal.dir = journal_dir;
  return config;
}

std::unique_ptr<hub::AwarenessHub> make_hub(const std::string& path, const std::string& dir,
                                            const dg::SyntheticProgram& shape) {
  auto h = std::make_unique<hub::AwarenessHub>(hub_config(path, dir));
  for (std::size_t s = 0; s < kSlots; ++s) h->add_slot(slot_name(s));
  h->recovery().set_component_of([&shape](std::size_t block) { return unit_of(shape, block); });
  return h;
}

std::string fresh_dir(const Options& opt, const char* what) {
  static int n = 0;
  const std::string dir = opt.out_dir + "/" + what + "-" + std::to_string(::getpid()) + "-" +
                          std::to_string(n++);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Item schedule at a fixed rate: frames round-robin over the slots;
/// item i carries chunk i / kSlots of slot i % kSlots.
std::vector<GenItem> make_items(std::size_t n, double rate) {
  std::vector<GenItem> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i].slot = static_cast<std::uint32_t>(i % kSlots);
    items[i].index = static_cast<std::uint32_t>(i / kSlots);
    items[i].due_ns = static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate);
  }
  return items;
}

/// The generator's spectra, as an offline ranking input: per block, how
/// often it ran in failing and in passing steps.
struct OfflineCounts {
  std::vector<std::uint32_t> a11, a10;
  std::uint64_t fail = 0, pass = 0;
  OfflineCounts() : a11(kBlocks, 0), a10(kBlocks, 0) {}
  void add(const PoolStep& step, bool err) {
    auto& v = err ? a11 : a10;
    for (std::uint32_t b : step.blocks) ++v[b];
    ++(err ? fail : pass);
  }
  /// Ochiai ranking over executed blocks, score descending, block id
  /// ascending within a tie, computed with diagnosis::similarity.
  std::vector<dg::BlockScore> ranking() const {
    std::vector<dg::BlockScore> out;
    for (std::size_t b = 0; b < a11.size(); ++b) {
      if (a11[b] + a10[b] == 0) continue;
      dg::SflCounts k;
      k.a11 = a11[b];
      k.a10 = a10[b];
      k.a01 = static_cast<std::uint32_t>(fail - a11[b]);
      k.a00 = static_cast<std::uint32_t>(pass - a10[b]);
      out.push_back(dg::BlockScore{b, dg::similarity(dg::Coefficient::kOchiai, k)});
    }
    std::stable_sort(out.begin(), out.end(), [](const dg::BlockScore& x, const dg::BlockScore& y) {
      return x.score > y.score;
    });
    return out;
  }
};

bool same_ranking(const std::vector<dg::BlockScore>& a, const std::vector<dg::BlockScore>& b,
                  std::size_t limit = SIZE_MAX) {
  const std::size_t n = std::min(limit, a.size());
  if (std::min(limit, b.size()) != n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].block != b[i].block || a[i].score != b[i].score) return false;
  }
  return true;
}

/// Drive the hub one loop iteration: poll, then advance the fleet's
/// clock to the slowest slot's folded spectra (the recovery ladder's
/// cooldowns and timeouts run on that clock).
struct Driver {
  hub::AwarenessHub& h;
  std::array<std::uint64_t, kSlots> steps{};
  Samples frames_per_poll{"frames_per_poll"};

  void step() {
    const std::uint64_t before = total();
    {
      watchdog().progress("AwarenessHub::poll");
      Span sp("poll", "hub");
      require(h.poll(1) >= 0, "hub_poll");
      for (std::size_t s = 0; s < kSlots; ++s) steps[s] = h.diagnosis().health(slot_name(s)).steps;
    }
    if (total() > before) {
      frames_per_poll.add(static_cast<double>(total() - before) / kStepsPerFrame);
    }
    const std::uint64_t slowest = *std::min_element(steps.begin(), steps.end());
    const rt::SimTime target = static_cast<rt::SimTime>(slowest) * kStepVt;
    if (target > h.now()) {
      watchdog().progress("AwarenessHub::run_until");
      Span sp("run_until", "core");
      h.run_until(target);
    }
  }
  std::uint64_t total() const { return steps[0] + steps[1] + steps[2] + steps[3]; }
};

struct Stream {
  std::array<SlotPlan, kSlots> plans;
  std::unique_ptr<dg::SyntheticProgram> shape;
  std::unique_ptr<SpectrumLog> log;
  std::unique_ptr<SpectrumSource> source;
  std::unique_ptr<Generator> gen;
  std::unique_ptr<hub::AwarenessHub> hub;
  std::string journal_dir;
};

/// Build the stream and a journaled hub and connect every slot. The hub
/// will be killed cold, so the generator takes the dropped links as the
/// end of its run.
void build_stream(Stream& st, const Options& opt, std::vector<GenItem> items) {
  st.plans = make_plans(opt.seed);
  st.shape = std::make_unique<dg::SyntheticProgram>(program_config(0));
  const std::size_t max_steps = (items.size() / kSlots + 1) * kStepsPerFrame;
  st.log = std::make_unique<SpectrumLog>(max_steps);
  st.source = std::make_unique<SpectrumSource>(st.plans, *st.shape, *st.log);
  std::vector<std::string> names;
  for (std::size_t s = 0; s < kSlots; ++s) names.push_back(slot_name(s));
  st.gen = std::make_unique<Generator>(names, std::move(items));
  const std::string path = hub_path();
  st.gen->spawn(path, *st.source, /*stop_on_link_loss=*/true);
  st.journal_dir = fresh_dir(opt, "journal");
  st.hub = make_hub(path, st.journal_dir, *st.shape);
  require(st.hub->start(), "hub_start");
  const std::int64_t deadline = now_ns() + 20'000'000'000LL;
  for (;;) {
    watchdog().progress("setup poll");
    st.hub->poll(1);
    std::size_t up = 0;
    for (std::size_t s = 0; s < kSlots; ++s) up += st.hub->slot_up(slot_name(s)) ? 1 : 0;
    if (up == kSlots && st.gen->connected()) break;
    require(st.gen->status() == 0, "generator_connect");
    require(now_ns() < deadline, "setup_connect_timeout");
  }
}

/// The hub's per-slot and fleet rankings against an offline ranking over
/// exactly the spectra the generator logged for the steps it folded.
void check_rankings(Stream& st, const std::array<std::uint64_t, kSlots>& folded) {
  OfflineCounts fleet;
  for (std::size_t s = 0; s < kSlots; ++s) {
    require(folded[s] <= st.log->steps_sent[s], "folded_steps_were_sent");
    OfflineCounts one;
    for (std::uint64_t k = 0; k < folded[s]; ++k) {
      const bool err = st.log->err[s * st.log->max_steps + k] != 0;
      one.add(st.plans[s].pool[k % kPool], err);
      fleet.add(st.plans[s].pool[k % kPool], err);
    }
    const auto offline = one.ranking();
    require(same_ranking(st.hub->diagnosis().report(slot_name(s)).ranking, offline),
            "slot_ranking_matches_offline");
    require(same_ranking(st.hub->diagnosis().top_suspects(slot_name(s)), offline, 10),
            "slot_top_suspects_match_offline");
  }
  const auto offline = fleet.ranking();
  require(same_ranking(st.hub->diagnosis().fleet_report().ranking, offline),
          "fleet_ranking_matches_offline");
  require(same_ranking(st.hub->diagnosis().fleet_top_suspects(), offline, 10),
          "fleet_top_suspects_match_offline");
}

/// Standalone replays of the workload's captured spectra through the
/// ipc, fleetdiag and journal public APIs (traced pass only).
void layer_replays(Stream& st, hub::AwarenessHub& h, const Options& opt, Result& r,
                   double frames_per_batch) {
  const std::size_t max_frames = 2000;
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<ipc::Frame> decoded;
  std::size_t bytes = 0;
  for (std::size_t c = 0; frames.size() < max_frames; ++c) {
    bool any = false;
    for (std::size_t s = 0; s < kSlots && frames.size() < max_frames; ++s) {
      if ((c + 1) * kStepsPerFrame > st.log->steps_sent[s]) continue;
      any = true;
      fd::SpectrumReporter reporter(fd::ReporterConfig{kBlocks, ipc::kMaxFramePayload, 0});
      for (std::size_t n = c * kStepsPerFrame; n < (c + 1) * kStepsPerFrame; ++n) {
        reporter.add_step(st.plans[s].pool[n % kPool].blocks,
                          st.log->err[s * st.log->max_steps + n] != 0);
      }
      std::uint32_t seq = static_cast<std::uint32_t>(c);
      for (const auto& f : reporter.flush(seq, static_cast<rt::SimTime>(c) * kStepVt)) {
        frames.push_back(ipc::encode_frame(f));
        bytes += frames.back().size();
      }
    }
    if (!any) break;
  }
  require(!frames.empty(), "layer_replay_frames");
  {
    Span sp("FrameDecoder::next", "ipc");
    const std::int64_t t = now_ns();
    ipc::FrameDecoder dec;
    ipc::Frame f;
    for (const auto& b : frames) {
      dec.feed(b.data(), b.size());
      while (dec.next(f) == ipc::DecodeStatus::kOk) decoded.push_back(f);
    }
    const double n = static_cast<double>(frames.size());
    r.put_layer("ipc.decode_ns_per_frame", static_cast<double>(now_ns() - t) / n, "ns");
    r.put_layer("ipc.bytes_per_frame", static_cast<double>(bytes) / n, "B");
  }
  require(decoded.size() == frames.size(), "standalone_decode_count");
  {
    fd::FleetAggregator agg(hub_config("", "").diag);
    std::size_t steps = 0;
    {
      Span sp("FleetAggregator::ingest", "fleetdiag");
      const std::int64_t t = now_ns();
      for (std::size_t i = 0; i < decoded.size(); ++i) {
        steps += agg.ingest(slot_name(i % kSlots), decoded[i]);
      }
      r.put_layer("fleetdiag.fold_ns_per_step",
                  static_cast<double>(now_ns() - t) / static_cast<double>(steps), "ns");
    }
    Samples refresh("refresh"), query("query");
    for (int k = 0; k < 20; ++k) {
      {
        Span sp("refresh", "fleetdiag");
        const std::int64_t t = now_ns();
        agg.refresh();
        refresh.add(static_cast<double>(now_ns() - t));
      }
      {
        Span sp("top_suspects", "fleetdiag");
        const std::int64_t t = now_ns();
        for (std::size_t s = 0; s < kSlots; ++s) (void)agg.top_suspects(slot_name(s));
        (void)agg.fleet_top_suspects();
        query.add(static_cast<double>(now_ns() - t));
      }
    }
    r.put_layer_q("fleetdiag.refresh_us", refresh, 0.5, 1e-3, "us");
    r.put_layer_q("fleetdiag.query_us", query, 0.5, 1e-3, "us");
  }
  {
    // WAL appends with the workload's fsync policy and batch size.
    const std::string dir = fresh_dir(opt, "wal");
    jr::WalWriter wal;
    require(wal.open(dir, 1, 1 << 20, jr::FsyncPolicy::kBatch), "standalone_wal_open");
    Samples fsync_ns("fsync");
    const auto batch = static_cast<std::size_t>(std::max(1.0, std::round(frames_per_batch)));
    std::int64_t append_ns = 0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      {
        Span sp("WalWriter::append", "journal");
        const std::int64_t t = now_ns();
        require(wal.append(jr::WalRecordType::kFrame, slot_name(i % kSlots),
                           static_cast<rt::SimTime>(i), frames[i].data(), frames[i].size()) != 0,
                "standalone_wal_append");
        append_ns += now_ns() - t;
      }
      if ((i + 1) % batch == 0) {
        Span sp("WalWriter::sync", "journal");
        const std::int64_t t = now_ns();
        wal.sync();
        fsync_ns.add(static_cast<double>(now_ns() - t));
      }
    }
    r.put_layer("journal.append_ns_per_record",
                static_cast<double>(append_ns) / static_cast<double>(frames.size()), "ns");
    r.put_layer("journal.bytes_per_record",
                static_cast<double>(wal.stats().bytes) / static_cast<double>(wal.stats().records),
                "B");
    r.put_layer_q("journal.fsync_p99_us", fsync_ns, 0.99, 1e-3, "us");
    wal.close();
    fs::remove_all(dir);
  }
  {
    // Checkpoint write and load of the live hub's diagnosis + ladder state.
    const std::string dir = fresh_dir(opt, "ckpt");
    jr::CheckpointStore store(dir, 2);
    Samples write_ns("checkpoint_write"), load_ns("checkpoint_load");
    for (int k = 0; k < 5; ++k) {
      std::string err;
      {
        Span sp("CheckpointStore::write", "journal");
        const std::int64_t t = now_ns();
        require(store.write(static_cast<std::uint64_t>(k + 1),
                            {&h.diagnosis(), &h.recovery()}, &err),
                "standalone_checkpoint_write");
        write_ns.add(static_cast<double>(now_ns() - t));
      }
      fd::FleetAggregator agg(hub_config("", "").diag);
      hub::RecoveryOrchestrator orch(hub_config("", "").recovery, agg);
      std::uint64_t seq = 0;
      Span sp("CheckpointStore::load_latest", "journal");
      const std::int64_t t = now_ns();
      require(store.load_latest({&agg, &orch}, &seq, &err), "standalone_checkpoint_load");
      load_ns.add(static_cast<double>(now_ns() - t));
    }
    r.put_layer_q("journal.checkpoint_write_ms", write_ns, 0.5, 1e-6, "ms");
    r.put_layer_q("journal.checkpoint_load_ms", load_ns, 0.5, 1e-6, "ms");
    fs::remove_all(dir);
  }
}

void put_recovery_layers(Result& r, const hub::RecoveryStats& rs, std::uint64_t repairs) {
  r.put_layer("recovery.commands", static_cast<double>(rs.sent), "count");
  r.put_layer("recovery.repairs", static_cast<double>(repairs), "count");
  r.put_layer("recovery.useful_ratio",
              rs.sent > 0 ? static_cast<double>(repairs) / static_cast<double>(rs.sent) : 0.0,
              "ratio");
  r.put_layer("recovery.retries", static_cast<double>(rs.retries), "count");
  r.put_layer("recovery.timeouts", static_cast<double>(rs.timeouts), "count");
  r.put_layer("recovery.suppressed",
              static_cast<double>(rs.suppressed_unconverged + rs.suppressed_cooldown +
                                  rs.suppressed_tokens + rs.suppressed_version),
              "count");
}


/// Everything the restart must reproduce, captured just before the crash.
struct HubState {
  std::vector<std::vector<dg::BlockScore>> rankings;  ///< Per slot, then the fleet.
  std::vector<fd::SlotHealth> health;
  hub::RecoveryStats stats;
  std::uint64_t outstanding = 0;
  std::uint64_t events = 0;
  std::uint64_t reports = 0;
  std::uint64_t steps = 0;
};

HubState capture(hub::AwarenessHub& h) {
  HubState s;
  for (std::size_t k = 0; k < kSlots; ++k) {
    s.rankings.push_back(h.diagnosis().report(slot_name(k)).ranking);
    s.health.push_back(h.diagnosis().health(slot_name(k)));
    s.outstanding += h.recovery().has_outstanding(slot_name(k)) ? 1 : 0;
  }
  s.rankings.push_back(h.diagnosis().fleet_report().ranking);
  s.stats = h.recovery().stats();
  s.events = h.events_ingested();
  s.reports = h.diagnosis().reports_ingested();
  s.steps = h.diagnosis().steps_ingested();
  return s;
}

bool same_stats(const hub::RecoveryStats& a, const hub::RecoveryStats& b) {
  return a.sent == b.sent && a.retries == b.retries && a.timeouts == b.timeouts &&
         a.acked_ok == b.acked_ok && a.acked_fail == b.acked_fail &&
         a.duplicate_acks == b.duplicate_acks &&
         a.suppressed_unconverged == b.suppressed_unconverged &&
         a.suppressed_cooldown == b.suppressed_cooldown &&
         a.suppressed_tokens == b.suppressed_tokens &&
         a.suppressed_version == b.suppressed_version && a.quarantined == b.quarantined &&
         a.give_ups == b.give_ups && a.recovered == b.recovered &&
         a.send_failures == b.send_failures && a.policy_denied == b.policy_denied;
}

/// The recovered hub against the pre-crash capture. The restart forces
/// every slot down (no socket survives it), which drops each command
/// that was in flight: that, and only that, may differ.
void verify_restart(hub::AwarenessHub& h, const HubState& before, std::uint64_t tail) {
  const jr::JournalRecoveryInfo& info = h.journal_recovery();
  require(info.ok && info.from_checkpoint, "restart_from_checkpoint");
  require(info.truncated_bytes == 0, "restart_no_torn_tail");
  require(info.replayed_records == tail, "restart_replay_count");
  const HubState after = capture(h);
  for (std::size_t k = 0; k < before.rankings.size(); ++k) {
    require(same_ranking(after.rankings[k], before.rankings[k]), "restart_rankings");
  }
  for (std::size_t k = 0; k < kSlots; ++k) {
    const auto& x = after.health[k];
    const auto& y = before.health[k];
    require(x.reports == y.reports && x.steps == y.steps && x.error_steps == y.error_steps &&
                x.churn == y.churn && x.top_block == y.top_block,
            "restart_slot_health");
  }
  require(same_stats(after.stats, before.stats), "restart_recovery_stats");
  require(after.stats.lost == before.stats.lost + before.outstanding, "restart_lost_commands");
  require(after.events == before.events && after.reports == before.reports &&
              after.steps == before.steps,
          "restart_ingest_counts");
}

struct CrashedJournal {
  std::string dir;
  HubState state;
  std::uint64_t tail = 0;
  std::uint64_t checkpoint_seq = 0;
  double frames_per_poll = 1.0;
};

/// The seed-chosen crash point: the WAL tail, in records past the first
/// checkpoint, as a share of the hub's checkpoint cadence. A crash that
/// lands uniformly between two checkpoints leaves cadence/2 records to
/// replay on average. The seed picks a share in [0.49, 0.51]: the tail
/// follows the cadence, and runs on different seeds time the same work
/// to within 2% (replay dominates a restart, so a wider range would make
/// the seed, not the program, set the figures).
std::uint64_t crash_tail_for(std::uint64_t seed, std::uint64_t cadence) {
  rt::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x7e57);
  const double share = 0.49 + 0.02 * rng.uniform();
  return static_cast<std::uint64_t>(std::llround(share * static_cast<double>(cadence)));
}

/// Stream spectra into a journaled hub at a fixed rate and kill it cold
/// once its WAL holds the seed-chosen tail after its first checkpoint.
CrashedJournal build_crashed(const Options& opt, Stream& st) {
  build_stream(st, opt, make_items(kCrashDrillFrames, kCrashDrillRate));
  hub::AwarenessHub& h = *st.hub;
  Driver drv{h};
  st.gen->go(now_ns());
  const std::int64_t deadline = now_ns() + 60'000'000'000LL;
  jr::HubJournal& journal = *h.journal();
  const std::uint64_t cadence = journal.config().checkpoint_every_records;
  const std::uint64_t target = crash_tail_for(opt.seed, cadence);
  require(target > 0 && target < cadence, "restart_setup_crash_point");
  while (journal.checkpoint_stats().written == 0 || journal.records_since_checkpoint() < target) {
    require(now_ns() < deadline, "restart_setup_crash_point");
    require(!st.gen->done() || drv.total() < kCrashDrillFrames * kStepsPerFrame,
            "restart_setup_stream_short");
    drv.step();
  }
  // Between the first checkpoint and the second: one poll never appends
  // a whole cadence of records.
  require(journal.checkpoint_stats().written == 1, "restart_setup_crash_point");
  CrashedJournal c;
  c.state = capture(h);
  c.tail = journal.records_since_checkpoint();
  c.checkpoint_seq = journal.last_seq() - c.tail;
  check_rankings(st, drv.steps);
  h.simulate_crash();
  require(st.gen->join() == 0, "generator_exit_clean");
  st.gen.reset();
  c.dir = st.journal_dir;
  c.frames_per_poll = drv.frames_per_poll.count() > 0 ? drv.frames_per_poll.mean() : 1.0;
  st.hub.reset();
  st.journal_dir.clear();
  return c;
}

struct RestartTiming {
  double latency_ns;  ///< start() through to verified state.
  double cpu_ns;      ///< Driver CPU over the same span.
};

/// A fresh copy of the crashed journal for one restart. Files are hard
/// links: a restart only reads them, writes new files (the next WAL
/// segment, checkpoints) and unlinks retired ones, so the crashed
/// journal stays intact (verify_restart checks that no torn tail was
/// truncated in place), and no restart pays for ~20 MB of copied pages.
std::string journal_copy(const CrashedJournal& crashed, const Options& opt) {
  const std::string copy = fresh_dir(opt, "restart");
  fs::copy(crashed.dir, copy, fs::copy_options::recursive | fs::copy_options::create_hard_links);
  return copy;
}

/// One restart: a hub on a fresh copy of the crashed journal (the copy
/// is untimed), start(), verify, discard.
RestartTiming restart_once(const CrashedJournal& crashed, const Stream& st, const Options& opt) {
  const std::string copy = journal_copy(crashed, opt);
  watchdog().progress("AwarenessHub::start");
  RestartTiming t{};
  const std::int64_t c0 = process_cpu_ns();
  const std::int64_t t0 = now_ns();
  {
    auto h = make_hub(hub_path(), copy, *st.shape);
    {
      Span sp("start", "journal");
      require(h->start(), "restart_start");
    }
    verify_restart(*h, crashed.state, crashed.tail);
    t.latency_ns = static_cast<double>(now_ns() - t0);
    t.cpu_ns = static_cast<double>(process_cpu_ns() - c0);
    watchdog().progress("hub destroy");
    // Discard without the clean-stop checkpoint (and its fsync): the
    // copy is deleted next, and disk flushes are not part of a restart.
    h->simulate_crash();
  }
  fs::remove_all(copy);
  return t;
}

/// The journal's read side, per layer: standalone scan_wal and
/// load_latest on the crashed journal, and what start() spends beyond
/// them per replayed record (median of five restarts).
void journal_read_layers(const CrashedJournal& crashed, const Stream& st, const Options& opt,
                         Result& r) {
  Samples scan("scan"), load("load"), restart("restart");
  for (int k = 0; k < 5; ++k) {
    std::uint64_t seen = 0;
    {
      Span sp("scan_wal", "journal");
      const std::int64_t t = now_ns();
      const jr::WalScanResult res = jr::scan_wal(crashed.dir, crashed.checkpoint_seq, false,
                                                 [&seen](const jr::WalRecord&) {
                                                   ++seen;
                                                   return true;
                                                 });
      scan.add(static_cast<double>(now_ns() - t));
      require(res.usable() && seen == crashed.tail, "standalone_scan_count");
    }
    {
      fd::FleetAggregator agg(hub_config("", "").diag);
      hub::RecoveryOrchestrator orch(hub_config("", "").recovery, agg);
      jr::CheckpointStore store(crashed.dir, 2);
      std::uint64_t seq = 0;
      std::string err;
      Span sp("CheckpointStore::load_latest", "journal");
      const std::int64_t t = now_ns();
      require(store.load_latest({&agg, &orch}, &seq, &err) && seq == crashed.checkpoint_seq,
              "standalone_checkpoint_load");
      load.add(static_cast<double>(now_ns() - t));
    }
    restart.add(restart_once(crashed, st, opt).latency_ns);
  }
  const double scan_ns = scan.quantile(0.5), load_ns = load.quantile(0.5);
  r.put_layer("journal.scan_ms", scan_ns / 1e6, "ms");
  r.put_layer("journal.checkpoint_load_ms", load_ns / 1e6, "ms");
  r.put_layer("journal.replay_us_per_record",
              std::max(0.0, restart.quantile(0.5) - scan_ns - load_ns) / 1e3 /
                  static_cast<double>(crashed.tail),
              "us");
  r.put_layer("journal.tail_records", static_cast<double>(crashed.tail), "count");
}

}  // namespace

Result run_hub_restart(const Options& opt) {
  const bool traced = tracer().traced_run();

  Result r;
  std::vector<double> setup_s;
  CrashedJournal crashed;
  Stream st;  // the last crash drill's spectra feed the traced layer replays
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (!crashed.dir.empty()) fs::remove_all(crashed.dir);
    st = Stream{};
    const std::int64_t t = now_ns();
    crashed = build_crashed(opt, st);
    setup_s.push_back(static_cast<double>(now_ns() - t) / 1e9);
  }
  watchdog().set_attempted(1);

  // Restart for --seconds. A traced run records spans in every other
  // restart only; the two halves give the tracing overhead. Costs are
  // means over restarts: on the host this was built on, the p50 flipped
  // between two speed levels of the host ~40% apart (README.md).
  Samples latency("restart_latency"), cpu("restart_cpu");
  Samples cpu_traced("restart_cpu_traced");
  std::vector<double> in_order;  // untraced restart latencies, for the record's windows
  std::uint64_t ops = 0;
  const std::int64_t t_begin = now_ns();
  const std::int64_t t_end = t_begin + static_cast<std::int64_t>(opt.seconds * 1e9);
  while (now_ns() < t_end) {
    const bool trace_this = traced && ops % 2 == 0;
    tracer().pause(traced && !trace_this);
    const RestartTiming t = restart_once(crashed, st, opt);
    (trace_this ? cpu_traced : cpu).add(t.cpu_ns);
    if (!trace_this) {
      latency.add(t.latency_ns);
      in_order.push_back(t.latency_ns * 1e-6);
    }
    ++ops;
  }
  tracer().pause(false);
  const double loop_s = static_cast<double>(now_ns() - t_begin) / 1e9;
  watchdog().set_attempted(ops);

  r.attempted = ops;
  r.failed = 0;
  r.put("setup_s", median(setup_s, "setup_s"), "s");
  r.put("latency_ms", latency.mean() * 1e-6, "ms");
  r.sample_counts["latency_ms"] = latency.count();
  r.put_q("latency_tail_ms", latency, kTailQ, 1e-6, "ms");
  r.put("throughput_per_s", static_cast<double>(ops) / loop_s, "1/s");
  r.sample_counts["throughput_per_s"] = ops;
  r.put("cpu_us_per_op", cpu.mean() * 1e-3, "us");
  r.sample_counts["cpu_us_per_op"] = cpu.count();
  r.notes["latency_p50_ms.pooled"] = fmt_num(latency.quantile(0.50) * 1e-6);
  r.notes["latency_p99_ms.pooled"] = fmt_num(latency.quantile(0.99) * 1e-6);
  {
    // p50 of each tenth of the run, in order: how the host's speed moved.
    std::string list;
    for (std::size_t w = 0; w < kWindows; ++w) {
      Samples part("restart_window");
      for (std::size_t i = w * in_order.size() / kWindows; i < (w + 1) * in_order.size() / kWindows;
           ++i) {
        part.add(in_order[i]);
      }
      if (part.count() > 0) list += (list.empty() ? "" : " ") + fmt_num(part.quantile(0.5));
    }
    r.notes["latency_p50_ms.windows"] = list;
  }
  r.notes["crash_tail_records"] = std::to_string(crashed.tail);
  r.notes["checkpoint_seq"] = std::to_string(crashed.checkpoint_seq);
  r.notes["meaning"] =
      "latency = start() on a copy of the crashed journal through to verified state (mean and "
      "p90 over every restart of the run); throughput = restarts per second of the loop, the "
      "untimed copy and teardown included; cpu = driver CPU per restart (mean)";

  if (traced) {
    r.put_layer_q("e2e.latency_p50_ms", latency, 0.50, 1e-6, "ms");
    r.put_layer_q("e2e.latency_p99_ms", latency, 0.99, 1e-6, "ms");
    const double untraced_cpu = cpu.mean(), traced_cpu = cpu_traced.mean();
    r.put_layer("trace.overhead_pct", (traced_cpu / untraced_cpu - 1.0) * 100.0, "%");
    r.overhead["cpu_us_per_op"] = {untraced_cpu * 1e-3, traced_cpu * 1e-3, "us"};
    // The crash drill's spectra through the ipc, fleetdiag and journal
    // write-side APIs, and one more (untimed) restart for the state.
    const std::string copy = journal_copy(crashed, opt);
    {
      auto h = make_hub(hub_path(), copy, *st.shape);
      require(h->start(), "restart_start");
      layer_replays(st, *h, opt, r, crashed.frames_per_poll);
      const auto reports = h->diagnosis().reports_ingested();
      r.put_layer("fleetdiag.churn_per_report",
                  static_cast<double>(h->diagnosis().ranking_churn()) /
                      static_cast<double>(std::max<std::uint64_t>(1, reports)),
                  "ratio");
    }
    fs::remove_all(copy);
    journal_read_layers(crashed, st, opt, r);
    put_recovery_layers(r, crashed.state.stats, st.log->repairs[0]);
  }
  fs::remove_all(crashed.dir);
  return r;
}

}  // namespace perfbench
