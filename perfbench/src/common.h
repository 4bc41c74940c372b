// Shared vocabulary of the llmp_perfbench program: run configuration,
// the outcome every workload returns, raw-sample quantiles and the
// outside-in span tracer.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/types.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time of the whole process (every thread), in ns. With paravirt
/// steal accounting in the guest kernel it leaves out the time the
/// hypervisor takes from the virtual CPUs, which wall time on a shared
/// host does not.
inline double process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Linear-interpolated quantile of raw samples (q in [0, 1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// One span recorded around a call the benchmark makes into a layer.
struct Span {
  const char* layer = "";   ///< src/ module the call enters
  std::string name;         ///< metric-facing name, e.g. "core.match4"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
  std::uint64_t op = 0;      ///< operation id (round, batch or request)
  std::uint64_t nodes = 0;   ///< list nodes the call processed
  /// Measured on another thread, overlapping its siblings (serve hooks).
  bool concurrent = false;
};

/// Keeps spans in memory while enabled; main() writes them out at
/// exit. Single-threaded: spans measured on other threads (serve hooks)
/// are added by the main thread once their futures are ready.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {
    spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  /// Opens a span; returns its index, or -1 when tracing is off.
  std::int64_t begin(const char* layer, std::string name, std::uint64_t op,
                     std::uint64_t nodes, std::int64_t parent = -1) {
    if (!enabled_) return -1;
    Span s;
    s.layer = layer;
    s.name = std::move(name);
    s.parent = parent;
    s.op = op;
    s.nodes = nodes;
    s.start_ns = ns(Clock::now());
    spans_.push_back(std::move(s));
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void end(std::int64_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = ns(Clock::now());
  }
  /// Records a span whose start and end were taken elsewhere; `concurrent`
  /// marks one measured on another thread, overlapping its siblings.
  void add(const char* layer, std::string name, Clock::time_point start,
           Clock::time_point end, std::int64_t parent, std::uint64_t op,
           std::uint64_t nodes, bool concurrent) {
    if (!enabled_) return;
    Span s;
    s.layer = layer;
    s.name = std::move(name);
    s.start_ns = ns(start);
    s.end_ns = ns(end);
    s.parent = parent;
    s.op = op;
    s.nodes = nodes;
    s.concurrent = concurrent;
    spans_.push_back(std::move(s));
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// RAII span; a no-op while the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* layer, std::string name, std::uint64_t op,
             std::uint64_t nodes, std::int64_t parent = -1)
      : tracer_(t), id_(t.begin(layer, std::move(name), op, nodes, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Sum of durations and nodes over every span with this name.
struct SpanTotal {
  double ns = 0;
  std::uint64_t nodes = 0;
  std::uint64_t count = 0;
};
inline SpanTotal span_total(const Tracer& t, const std::string& name) {
  SpanTotal total;
  for (const Span& s : t.spans()) {
    if (s.name != name) continue;
    total.ns += static_cast<double>(s.end_ns - s.start_ns);
    total.nodes += s.nodes;
    ++total.count;
  }
  return total;
}

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Sample counts and ratio bases, printed beside the result line.
  std::map<std::string, double> notes;
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  int setups = 5;            ///< set-up repetitions; setup_s is their median
  std::string spill_dir;   ///< engine spill files go here
  Tracer* tracer = nullptr;  ///< always set; enabled only when traced
  bool traced = false;       ///< the traced mode: per-layer metrics
  Clock::time_point process_start;
};

Outcome run_lib(const RunConfig& cfg);
Outcome run_serve(const RunConfig& cfg);

// ---- Independent output checks (checks.cpp) -------------------------------

/// The benchmark's own walk of a successor array: rank[v] = number of
/// links from v to the tail. Empty when the array is not one chain.
std::vector<std::uint64_t> walk_ranks(const std::vector<llmp::index_t>& next);

/// Every node in at most one chosen pointer, no pointer with both ends
/// free, `edges` equal to the chosen count, and
/// ceil((n-1)/3) <= edges <= floor(n/2); with `maximum`, exactly floor(n/2).
bool check_matching(const std::vector<llmp::index_t>& next,
                    const std::vector<std::uint8_t>& in_matching,
                    std::size_t edges, bool maximum);

bool check_ranks(const std::vector<std::uint64_t>& got,
                 const std::vector<std::uint64_t>& want);

/// Peak resident set of the process in MiB.
double peak_rss_mib();

/// Host CPU time in scheduler ticks from /proc/stat: time spent running
/// (user, nice, system, irq, softirq) and time the hypervisor took from
/// runnable virtual CPUs (steal). Zero when unreadable.
struct CpuTicks {
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;
};
CpuTicks cpu_ticks();

/// Share of the CPU time wanted between two readings that was stolen.
inline double steal_share(const CpuTicks& a, const CpuTicks& b) {
  const double steal = static_cast<double>(b.steal - a.steal);
  const double busy = static_cast<double>(b.busy - a.busy);
  return busy + steal > 0 ? steal / (busy + steal) : 0.0;
}

/// The end-to-end timing metrics of a timed phase.
struct Timing {
  double ns_per_node = 0;  ///< process CPU time / checked nodes
  double p50_ms = 0;       ///< median batch time
  double p90_ms = 0;       ///< 90th percentile batch time
  std::size_t samples = 0;  ///< batches in the windows they come from
};

/// Records the batches of a timed phase in windows of a few seconds and
/// the hypervisor's steal in each. The metrics come from the half of the
/// windows with the least steal: on a shared VM the host at times takes
/// 10-50% of the CPU time the benchmark wants, which would otherwise
/// decide the figures. Each metric is taken in each kept window and the
/// median over them is reported, so a slow spell of the host's memory
/// (which steal does not show) in a few windows moves it little, while a
/// cost the program pays throughout shows in every window.
///
/// Wall-clock batch times (`wall_clock`) also include the time the
/// hypervisor stole from the threads a batch waits on, and on the shared
/// host steal stays at 5-40% for minutes, longer than a run, so the
/// least-stolen windows are stolen too. Each window's percentiles are then
/// scaled by (1 - the window's steal share): the batch time with the
/// host's steal share taken out, as CPU time leaves it out of a single
/// thread's time. Batch times in CPU time are not scaled.
class TimedPhase {
 public:
  TimedPhase(double window_seconds, bool wall_clock)
      : window_seconds_(window_seconds),
        wall_clock_(wall_clock),
        first_(cpu_ticks()),
        last_(first_) {
    windows_.emplace_back();
  }

  /// One batch: its time as the percentiles take it, the process CPU time
  /// it cost and the nodes whose results were checked.
  void add(double ns, double cpu_ns, std::uint64_t nodes) {
    Window& w = windows_.back();
    w.cpu_ns += cpu_ns;
    w.nodes += nodes;
    w.ms.push_back(ns / 1e6);
    if (seconds_between(window_start_, Clock::now()) >= window_seconds_)
      close();
  }

  /// Closes the last window; call once, after the last batch.
  void finish() {
    if (!windows_.back().ms.empty()) close();
    windows_.pop_back();
  }

  double steal_share() const { return perfbench::steal_share(first_, last_); }
  std::size_t windows() const { return windows_.size(); }

  /// Metrics over the least-stolen half of the windows (ties keep the
  /// earlier window).
  Timing summarize() const {
    std::vector<const Window*> by_steal;
    for (const Window& w : windows_) by_steal.push_back(&w);
    std::stable_sort(by_steal.begin(), by_steal.end(),
                     [](const Window* a, const Window* b) {
                       return a->steal < b->steal;
                     });
    by_steal.resize((by_steal.size() + 1) / 2);
    std::vector<double> per_node, p50, p90;
    std::size_t samples = 0;
    for (const Window* w : by_steal) {
      per_node.push_back(
          w->nodes > 0 ? w->cpu_ns / static_cast<double>(w->nodes) : 0);
      const double unstolen = wall_clock_ ? 1.0 - w->steal : 1.0;
      p50.push_back(quantile(w->ms, 0.5) * unstolen);
      p90.push_back(quantile(w->ms, 0.9) * unstolen);
      samples += w->ms.size();
    }
    return {quantile(per_node, 0.5), quantile(p50, 0.5), quantile(p90, 0.5),
            samples};
  }

 private:
  struct Window {
    double cpu_ns = 0;
    std::uint64_t nodes = 0;
    std::vector<double> ms;
    double steal = 0;
  };

  void close() {
    const CpuTicks now = cpu_ticks();
    windows_.back().steal = perfbench::steal_share(last_, now);
    last_ = now;
    window_start_ = Clock::now();
    windows_.emplace_back();
  }

  double window_seconds_;
  bool wall_clock_;
  CpuTicks first_, last_;
  Clock::time_point window_start_ = Clock::now();
  std::vector<Window> windows_;
};

}  // namespace perfbench
