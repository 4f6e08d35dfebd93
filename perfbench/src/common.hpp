// Shared plumbing of the repo benchmark: clocks, raw-sample quantiles,
// named check failures, in-memory spans, the watchdog and the result
// record. Everything here belongs to the benchmark, not to the program
// under test; the layers are only ever reached through their public
// headers from the workload files.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
}

/// User + system CPU of this process (all its threads), nanoseconds.
inline std::int64_t process_cpu_ns() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv_ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000LL + tv.tv_usec * 1000LL;
  };
  return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

std::string json_escape(const std::string& s);
/// A number with all its digits (%.17g); null when not finite.
std::string fmt_num(double v);

/// A failed output check. `what()` is the check's name; the run exits
/// nonzero and prints it instead of a result.
class CheckFailure : public std::runtime_error {
 public:
  explicit CheckFailure(const std::string& name) : std::runtime_error(name) {}
};

inline void require(bool ok, const std::string& check) {
  if (!ok) throw CheckFailure(check);
}

/// Cuts a phase of `total` operations into `windows` equal runs and
/// stamps a reading (wall or CPU time) each time one completes, so a
/// rate or a cost can be reported as the median over windows.
class Marks {
 public:
  Marks(std::size_t total, std::size_t windows) : total_(total), windows_(windows) {}
  /// Call after each completed operation; `read` is called only when a
  /// window closes.
  template <typename Read>
  void done(Read&& read) {
    ++count_;
    if (marks_.size() < windows_ && count_ * windows_ >= total_ * (marks_.size() + 1)) {
      marks_.push_back(read());
    }
  }
  bool complete() const { return marks_.size() == windows_; }
  /// Windows closed so far (the index of the window in progress).
  std::size_t closed() const { return marks_.size(); }
  /// Per window: reading delta per operation; the first window starts
  /// at `start`.
  std::vector<double> per_op(std::int64_t start, const std::string& what) const;
  /// Per window: operations per second of wall time.
  std::vector<double> rates(std::int64_t start_ns, const std::string& what) const;

 private:
  std::size_t total_, windows_, count_ = 0;
  std::vector<std::int64_t> marks_;
};

/// Raw samples; quantiles are computed from the sorted values (linear
/// interpolation between closest ranks), never from a bucket grid. A
/// quantile of an empty set is a failed check, not 0.
class Samples {
 public:
  explicit Samples(std::string name = {}) : name_(std::move(name)) {}
  void reserve(std::size_t n) { values_.reserve(n); }
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  std::size_t count() const { return values_.size(); }
  const std::string& name() const { return name_; }

  double quantile(double q) {
    require(!values_.empty(), "empty_samples:" + name_);
    sort();
    const double rank = q * static_cast<double>(values_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = lo + 1 < values_.size() ? lo + 1 : lo;
    const double frac = rank - static_cast<double>(lo);
    return values_[lo] * (1.0 - frac) + values_[hi] * frac;
  }
  double sum() const {
    double s = 0;
    for (double v : values_) s += v;
    return s;
  }
  double mean() const {
    require(!values_.empty(), "empty_samples:" + name_);
    return sum() / static_cast<double>(values_.size());
  }

 private:
  void sort();
  std::string name_;
  std::vector<double> values_;
  bool sorted_ = true;
};

/// Median of a handful of values (set-up repetitions, windows).
double median(std::vector<double> v, const std::string& what);

// ------------------------------------------------------------- tracing

/// One span: a timed call from the benchmark into a layer. `parent` is
/// the index of the enclosing span (-1 for a root); (slot, seq) is the
/// request id of the first frame the call handled (-1 when none).
struct SpanRec {
  const char* name;
  const char* layer;
  std::int64_t start;
  std::int64_t end;
  std::int32_t parent;
  std::int32_t slot;
  std::int64_t seq;
};

/// In-memory span store. Disabled (the timed runs) it costs one branch
/// per call site; enabled it appends to a pre-reserved vector. A traced
/// run pauses it in alternate windows, so traced and untraced windows
/// of one pass give the tracing overhead.
class Tracer {
 public:
  /// Spans are being recorded now.
  bool enabled() const { return enabled_ && !paused_; }
  /// This is a traced run (whether or not paused at the moment).
  bool traced_run() const { return enabled_; }
  void enable(std::size_t reserve);
  /// Call only between spans (none open).
  void pause(bool paused) { paused_ = paused; }

  std::int32_t open(const char* name, const char* layer, std::int32_t slot = -1,
                    std::int64_t seq = -1);
  void close(std::int32_t id);
  /// Attach a request id after the call (the frame it turned out to handle).
  void tag(std::int32_t id, std::int32_t slot, std::int64_t seq);

  const std::vector<SpanRec>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }

  /// Per-layer self time: each span's duration minus the time its
  /// children cover, summed per layer (nanoseconds).
  std::map<std::string, std::int64_t> self_time_by_layer() const;
  /// Total duration and call count per span name.
  std::map<std::string, std::pair<std::int64_t, std::uint64_t>> totals_by_name() const;

 private:
  bool enabled_ = false;
  bool paused_ = false;
  std::size_t cap_ = 0;
  std::size_t dropped_ = 0;
  std::vector<SpanRec> spans_;
  std::vector<std::int32_t> stack_;
};

Tracer& tracer();

/// RAII span; a no-op while tracing is off.
class Span {
 public:
  Span(const char* name, const char* layer, std::int32_t slot = -1, std::int64_t seq = -1)
      : id_(tracer().enabled() ? tracer().open(name, layer, slot, seq) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer().close(id_);
  }
  void tag(std::int32_t slot, std::int64_t seq) {
    if (id_ >= 0) tracer().tag(id_, slot, seq);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t id_;
};

// ------------------------------------------------------------ watchdog

/// Ends a stuck run as a failed run with a named cause. The driver
/// calls progress(where) around every call into the program; when no
/// progress is reported for `stall_s`, or the run exceeds `limit_s`,
/// the watchdog kills the generator, prints a failed result naming the
/// call that never returned, and exits with code 3.
class Watchdog {
 public:
  void start(double stall_s, double limit_s);
  void progress(const char* where) {
    where_.store(where, std::memory_order_relaxed);
    last_ns_.store(now_ns(), std::memory_order_relaxed);
  }
  void set_child(int pid) { child_.store(pid, std::memory_order_relaxed); }
  void set_attempted(std::uint64_t n) { attempted_.store(n, std::memory_order_relaxed); }
  /// Kill and reap the generator, if one is running (error exits).
  void reap_child();

 private:
  void loop(double stall_s, double limit_s);
  std::atomic<const char*> where_{"setup"};
  std::atomic<std::int64_t> last_ns_{0};
  std::atomic<int> child_{0};
  std::atomic<std::uint64_t> attempted_{1};
};

Watchdog& watchdog();

// -------------------------------------------------------------- result

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back: its operation counts, the end-to-end
/// metrics (timed run) or per-layer metrics (traced run), and any extra
/// lines for the written record (sample counts, spans summary).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Per-layer metrics (filled only by the traced pass).
  std::map<std::string, Metric> layer;
  /// Sample count behind each percentile metric, written to the record.
  std::map<std::string, std::size_t> sample_counts;
  /// Free-form facts for the record (rates, seeds, notes).
  std::map<std::string, std::string> notes;
  /// Traced run: end-to-end figures of its untraced and traced windows.
  struct Overhead {
    double untraced = 0.0;
    double traced = 0.0;
    std::string unit;
  };
  std::map<std::string, Overhead> overhead;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Median over windows as the metric; every window's value noted.
  void put_windows(const std::string& name, const std::vector<double>& per_window, double scale,
                   const std::string& unit);
  /// Pooled quantile over all samples as the metric, with its count.
  void put_q(const std::string& name, Samples& s, double q, double scale,
             const std::string& unit) {
    put(name, s.quantile(q) * scale, unit);
    sample_counts[name] = s.count();
  }
  void put_layer(const std::string& name, double value, const std::string& unit) {
    layer[name] = Metric{value, unit};
  }
  void put_layer_q(const std::string& name, Samples& s, double q, double scale,
                   const std::string& unit) {
    put_layer(name, s.quantile(q) * scale, unit);
    sample_counts[name] = s.count();
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< Scratch + record directory inside the checkout.
  std::string provenance_json;
};

}  // namespace perfbench
