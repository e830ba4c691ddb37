// Shared pieces of the ocps benchmark binary: run options, the report a
// workload fills in, benchmark-side spans, quantiles and /proc readers.
//
// Spans here are the benchmark's own: they wrap each call the benchmark
// makes into a library layer (trace, locality, core, serve) and are kept
// in memory until the run ends. They are recorded only in traced runs;
// untraced runs time the same calls with a plain steady_clock stopwatch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace ocpsbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line options of one workload run (see main.cpp for flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool traced = false;        ///< record spans and scrape obs metrics
  std::string fault;          ///< test seam: corrupt one output ("alloc",
                              ///  "optimal"); empty in real runs
  std::string out_dir = ".bench_build/run";  ///< sockets, derived files
};

/// One measured number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports. `correct` drops to false on the first
/// failed output check; `violations` keeps the first few reasons.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> violations;
  ocps::json::Value info = ocps::json::Value(ocps::json::Object{});

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void violation(const std::string& why);
};

/// One benchmark-side span. `parent` is 0 for a root; `request` tags the
/// spans of one serve request; `arg` is a free numeric payload (the
/// program index on per-program layer spans).
struct Span {
  const char* name = nullptr;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::uint64_t arg = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// In-memory span store. Thread-safe; disabled tracers record nothing
/// and hand out id 0.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }
  std::uint64_t new_id() { return enabled_ ? next_id_.fetch_add(1) : 0; }
  std::uint64_t now_ns() const { return to_ns(Clock::now()); }
  std::uint64_t to_ns(Clock::time_point t) const;
  void record(const Span& span);
  std::vector<Span> spans() const;

  /// Sum of durations (seconds) of spans called `name` whose parent is
  /// `parent` — a layer's busy time inside one enclosing span.
  double child_seconds(const char* name, std::uint64_t parent) const;

  /// Writes every span as Chrome trace_event JSON.
  void write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: starts on construction, records on destruction.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::uint64_t parent = 0,
            std::uint64_t request = 0, std::uint64_t arg = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::uint64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

/// Quantile q in [0, 1] with linear interpolation between order
/// statistics (NumPy's default); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Process figures read from /proc/self.
struct ProcStats {
  double peak_rss_mb = 0.0;  ///< VmHWM
  double vm_mb = 0.0;        ///< VmSize
  double threads = 0.0;
  double maps = 0.0;         ///< lines of /proc/self/maps
  double fds = 0.0;          ///< entries of /proc/self/fd
};
ProcStats read_proc_stats();

/// Adds the /proc/self end-of-run figures: peak_rss_mb always, and the
/// proc.* per-layer gauges.
void add_proc_metrics(Report& report);

/// The committed footprint files ocps_cache/<name>_n400000.fp, one per
/// suite program in suite order: table1_cold's file-path check and the
/// serve workloads' profile set A.
std::vector<std::string> committed_profiles();

/// Seed-derived 64-bit mix (splitmix64 finaliser); mix(0) == 0.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace ocpsbench
