// perfbench: the repo benchmark driver.
//
//   perfbench --workload tv_events|hub_restart --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--provenance JSON]
//
// --trace 0 runs the workload with tracing off and prints its
// end-to-end metrics. --trace 1 runs it with spans recorded in every
// other window (or operation) and prints the per-layer metrics plus the
// tracing overhead (traced against untraced windows of the same pass).
// The last stdout line is always the
// result object; a failed output check prints its name on stderr and
// exits 1 without a result, a hang is ended by the watchdog (exit 3).
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

std::string hub_path() {
  static std::atomic<int> n{0};
  return "@perfbench-" + std::to_string(::getpid()) + "-" + std::to_string(n++);
}

std::string slot_name(std::size_t k) { return "s" + std::to_string(k); }

const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"ipc.decode_ns_per_frame", "ns"},     {"ipc.bytes_per_frame", "B"},
      {"hub.poll_us_per_frame", "us"},       {"hub.poll_busy_frac", "ratio"},
      {"hub.frames_per_poll_p50", "count"},  {"hub.frames_per_poll_p99", "count"},
      {"hub.ingest_p50_us", "us"},           {"hub.ingest_p99_us", "us"},
      {"hub.decode_errors", "count"},        {"hub.backpressure", "count"},
      {"hub.evicted", "count"},              {"core.advance_us_per_event", "us"},
      {"core.events_per_advance", "count"},  {"core.advance_lag_p50_ms", "ms"},
      {"core.advance_lag_p99_ms", "ms"},     {"core.error_reports", "count"},
      {"fleetdiag.fold_ns_per_step", "ns"},  {"fleetdiag.refresh_us", "us"},
      {"fleetdiag.query_us", "us"},          {"fleetdiag.churn_per_report", "ratio"},
      {"recovery.commands", "count"},        {"recovery.repairs", "count"},
      {"recovery.useful_ratio", "ratio"},    {"recovery.retries", "count"},
      {"recovery.timeouts", "count"},        {"recovery.suppressed", "count"},
      {"journal.append_ns_per_record", "ns"},
      {"journal.bytes_per_record", "B"},     {"journal.fsync_p99_us", "us"},
      {"journal.checkpoint_write_ms", "ms"}, {"journal.scan_ms", "ms"},
      {"journal.checkpoint_load_ms", "ms"},  {"journal.replay_us_per_record", "us"},
      {"journal.tail_records", "count"},     {"gen.late_p99_ms", "ms"},
      {"gen.sent", "count"},                 {"gen.failed", "count"},
      {"self.ipc_ms", "ms"},                 {"self.hub_ms", "ms"},
      {"self.core_ms", "ms"},                {"self.fleetdiag_ms", "ms"},
      {"self.journal_ms", "ms"},             {"e2e.latency_p50_ms", "ms"},
      {"e2e.latency_p99_ms", "ms"},          {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  return names;
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload tv_events|hub_restart "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] [--provenance JSON]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  opt.out_dir = ".bench_build/perfbench-out";
  opt.provenance_json = "{}";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else if (a == "--provenance") {
      opt.provenance_json = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload.empty() || !have_trace) usage("--workload and --trace are required");
  if (opt.seconds <= 0) usage("--seconds must be positive");
  return opt;
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + json_escape(name) + "\": {\"value\": " + fmt_num(metric.value) +
           ", \"unit\": \"" + json_escape(metric.unit) + "\"}";
  }
  return out + "}";
}

std::string map_json(const std::map<std::string, std::string>& m, bool quote) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + json_escape(k) + "\": " + (quote ? "\"" + json_escape(v) + "\"" : v);
  }
  return out + "}";
}

/// Record of one run: provenance, every metric with its sample count,
/// notes, and (traced) the overhead table and the span file's name.
void write_record(const Options& opt, const Result& res, const std::string& extra) {
  const std::string base = opt.out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) +
                           "-trace" + (opt.trace ? "1" : "0");
  std::map<std::string, std::string> counts;
  for (const auto& [k, v] : res.sample_counts) counts[k] = std::to_string(v);
  std::ofstream out(base + ".json");
  out << "{\"workload\": \"" << json_escape(opt.workload) << "\", \"seed\": " << opt.seed
      << ", \"seconds\": " << fmt_num(opt.seconds) << ", \"provenance\": " << opt.provenance_json
      << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
      << ", \"metrics\": " << metrics_json(res.metrics)
      << ", \"per_layer\": " << metrics_json(res.layer)
      << ", \"sample_counts\": " << map_json(counts, false)
      << ", \"notes\": " << map_json(res.notes, true) << extra << "}\n";
}

void write_spans(const std::string& path) {
  std::ofstream out(path);
  out << "# name layer start_ns end_ns parent slot seq\n";
  for (const auto& s : tracer().spans()) {
    out << s.name << ' ' << s.layer << ' ' << s.start << ' ' << s.end << ' ' << s.parent << ' '
        << s.slot << ' ' << s.seq << '\n';
  }
}

int run(const Options& opt) {
  std::function<Result(const Options&)> fn;
  if (opt.workload == "tv_events") {
    fn = run_tv_events;
  } else if (opt.workload == "hub_restart") {
    fn = run_hub_restart;
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }
  if (opt.trace) tracer().enable(4'000'000);
  Result res = fn(opt);
  std::map<std::string, Metric> printed = res.metrics;
  std::string extra;
  if (opt.trace) {
    printed.clear();
    for (const auto& [name, unit] : layer_metric_names()) printed[name] = Metric{0.0, unit};
    for (const auto& [name, m] : res.layer) printed[name] = m;
    std::map<std::string, std::string> self_ms;
    for (const auto& [layer, ns] : tracer().self_time_by_layer()) {
      printed["self." + layer + "_ms"] = Metric{static_cast<double>(ns) / 1e6, "ms"};
      self_ms[layer] = fmt_num(static_cast<double>(ns) / 1e6);
    }
    printed["trace.spans"] = Metric{static_cast<double>(tracer().spans().size()), "count"};
    // Overhead table: untraced vs traced windows of the one pass.
    extra += ", \"tracing_overhead\": {";
    bool first = true;
    for (const auto& [name, o] : res.overhead) {
      extra += std::string(first ? "" : ", ") + "\"" + name + "\": {\"untraced\": " +
               fmt_num(o.untraced) + ", \"traced\": " + fmt_num(o.traced) +
               ", \"traced_minus_untraced\": " + fmt_num(o.traced - o.untraced) +
               ", \"unit\": \"" + o.unit + "\"}";
      first = false;
    }
    const std::string spans_file = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                                   std::to_string(opt.seed) + ".txt";
    write_spans(spans_file);
    extra += "}, \"self_time_ms\": " + map_json(self_ms, false) + ", \"spans_file\": \"" +
             json_escape(spans_file) + "\", \"spans_dropped\": " +
             std::to_string(tracer().dropped());
  }
  res.layer = printed;
  write_record(opt, res, extra);
  std::printf("{\"provenance\": %s}\n", opt.provenance_json.c_str());
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics_json(printed).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  const perfbench::Options opt = perfbench::parse(argc, argv);
  perfbench::watchdog().start(/*stall_s=*/30.0, /*limit_s=*/170.0);
  try {
    std::filesystem::create_directories(opt.out_dir);
    return perfbench::run(opt);
  } catch (const perfbench::CheckFailure& e) {
    std::fprintf(stderr, "perfbench: output check failed: %s\n", e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
  }
  perfbench::watchdog().reap_child();
  std::fflush(stderr);
  // Skip static destructors: a failed check may leave a hub mid-stream.
  ::_exit(1);
}
