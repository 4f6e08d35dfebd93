#include "common.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

void Samples::sort() {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double median(std::vector<double> v, const std::string& what) {
  Samples s(what);
  for (double x : v) s.add(x);
  return s.quantile(0.5);
}

namespace {

/// Operations completed when mark k (1-based) was taken.
double ops_at(std::size_t total, std::size_t windows, std::size_t k) {
  return static_cast<double>((total * k + windows - 1) / windows);
}

}  // namespace

std::vector<double> Marks::per_op(std::int64_t start, const std::string& what) const {
  require(complete(), "incomplete_windows:" + what);
  std::vector<double> per;
  std::int64_t prev = start;
  for (std::size_t k = 0; k < marks_.size(); ++k) {
    const double ops = ops_at(total_, windows_, k + 1) - ops_at(total_, windows_, k);
    per.push_back(static_cast<double>(marks_[k] - prev) / ops);
    prev = marks_[k];
  }
  return per;
}

std::vector<double> Marks::rates(std::int64_t start_ns, const std::string& what) const {
  std::vector<double> per = per_op(start_ns, what);
  for (double& ns_per_op : per) {
    require(ns_per_op > 0, "window_duration:" + what);
    ns_per_op = 1e9 / ns_per_op;
  }
  return per;
}

void Result::put_windows(const std::string& name, const std::vector<double>& per_window,
                         double scale, const std::string& unit) {
  std::vector<double> scaled;
  std::string list;
  for (double v : per_window) {
    scaled.push_back(v * scale);
    list += (list.empty() ? "" : " ") + fmt_num(v * scale);
  }
  put(name, median(scaled, name), unit);
  notes[name + ".windows"] = list;
}

// ------------------------------------------------------------- tracing

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::enable(std::size_t reserve) {
  enabled_ = true;
  cap_ = reserve;
  spans_.reserve(reserve);
}

std::int32_t Tracer::open(const char* name, const char* layer, std::int32_t slot,
                          std::int64_t seq) {
  if (spans_.size() >= cap_) {
    ++dropped_;
    return -1;
  }
  const auto id = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(SpanRec{name, layer, now_ns(), 0, parent, slot, seq});
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::tag(std::int32_t id, std::int32_t slot, std::int64_t seq) {
  auto& s = spans_[static_cast<std::size_t>(id)];
  s.slot = slot;
  s.seq = seq;
}

std::map<std::string, std::int64_t> Tracer::self_time_by_layer() const {
  // Spans nest strictly (one thread, RAII), so a parent's children never
  // overlap and their durations can simply be subtracted.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].layer] += (spans_[i].end - spans_[i].start) - child_ns[i];
  }
  return out;
}

std::map<std::string, std::pair<std::int64_t, std::uint64_t>> Tracer::totals_by_name() const {
  std::map<std::string, std::pair<std::int64_t, std::uint64_t>> out;
  for (const auto& s : spans_) {
    auto& t = out[s.name];
    t.first += s.end - s.start;
    ++t.second;
  }
  return out;
}

// ------------------------------------------------------------ watchdog

Watchdog& watchdog() {
  static Watchdog w;
  return w;
}

void Watchdog::start(double stall_s, double limit_s) {
  last_ns_.store(now_ns());
  std::thread([this, stall_s, limit_s] { loop(stall_s, limit_s); }).detach();
}

void Watchdog::reap_child() {
  const int child = child_.exchange(0);
  if (child > 0) {
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
  }
}

void Watchdog::loop(double stall_s, double limit_s) {
  const std::int64_t begin = now_ns();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const std::int64_t now = now_ns();
    const bool stalled = now - last_ns_.load() > static_cast<std::int64_t>(stall_s * 1e9);
    const bool overran = now - begin > static_cast<std::int64_t>(limit_s * 1e9);
    if (!stalled && !overran) continue;
    const char* where = where_.load();
    reap_child();
    std::fprintf(stderr, "perfbench: watchdog: %s in '%s' (no progress for %.1f s)\n",
                 stalled ? "hang" : "run over time limit", where,
                 static_cast<double>(now - last_ns_.load()) / 1e9);
    const std::uint64_t attempted = std::max<std::uint64_t>(1, attempted_.load());
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {}}\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(attempted));
    std::fflush(stdout);
    std::fflush(stderr);
    ::_exit(3);
  }
}

// -------------------------------------------------------------- output

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
