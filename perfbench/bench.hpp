#pragma once
/// \file bench.hpp
/// Shared declarations of the hdbench driver: run options, the result a
/// workload reports, sample statistics, and the in-memory span log the
/// traced runs record around calls into each library layer.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace hdbench {

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
  std::string git_sha = "unknown";
};

/// Median and quartiles of the repetitions behind one metric.
struct Summary {
  std::size_t reps = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

/// What a workload hands back to main(): metric values by the names
/// BENCHMARK.json declares (units live there), the correctness tally, and
/// the stamp that identifies the configuration it measured.
struct WorkloadResult {
  std::map<std::string, double> values;
  std::map<std::string, Summary> repetitions;
  std::size_t attempted = 0;  ///< operations put through a correctness check
  std::size_t failed = 0;     ///< operations that failed it
  std::size_t workers = 1;
  std::size_t dim = 0;
  std::string codebook;

  void add(const std::string& name, double value) { values[name] = value; }
  /// Adds the median of \p samples and records its quartiles in the stamp.
  void add_median(const std::string& name, const std::vector<double>& samples);
  /// Adds quantile \p q of \p samples (a latency percentile).
  void add_quantile(const std::string& name, const std::vector<double>& samples,
                    double q);
};

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 when
/// empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] Summary summarize(const std::vector<double>& samples);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mib();

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- span log -------------------------------------------------------------

/// Single-threaded span recorder with self-time accounting: a span's self
/// time is its duration minus the time its direct children cover. Per-name
/// aggregates cover every span; raw events (for the Chrome trace) are kept
/// up to a cap so long replays stay bounded in memory. Names must be string
/// literals.
class SpanLog {
 public:
  struct Stat {
    const char* name = "";
    std::uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  explicit SpanLog(std::uint32_t lane = 0, std::size_t event_cap = 50'000)
      : lane_(lane), event_cap_(event_cap) {
    events_.reserve(event_cap_);
  }

  void open(const char* name);
  /// Closes the innermost open span.
  void close() { close_as(stack_.back().name); }
  /// Closes the innermost open span, recording it under \p name (for calls
  /// whose stage is only known once they return).
  void close_as(const char* name, Clock::time_point end = Clock::now());

  [[nodiscard]] const std::vector<Stat>& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const Stat& stat(const char* name) const;
  /// Mean self time per call of \p name in microseconds (0 without calls).
  [[nodiscard]] double self_us_per_call(const char* name) const {
    const Stat& s = stat(name);
    return s.calls == 0 ? 0.0 : 1e6 * s.self_s / static_cast<double>(s.calls);
  }
  [[nodiscard]] const std::vector<hdtest::obs::TraceEvent>& events()
      const noexcept {
    return events_;
  }
  /// Records a span timed by the caller (no nesting).
  void record(const char* name, Clock::time_point start,
              Clock::time_point end);
  /// Folds another log's aggregates and events into this one.
  void merge(const SpanLog& other);

 private:
  struct Open {
    const char* name;
    Clock::time_point start;
    double child_s;
  };
  Stat& slot(const char* name);

  std::uint32_t lane_;
  std::size_t event_cap_;
  std::vector<Open> stack_;
  std::vector<Stat> stats_;
  std::vector<hdtest::obs::TraceEvent> events_;
};

/// RAII span on a SpanLog.
class Span {
 public:
  Span(SpanLog& log, const char* name) : log_(&log) { log_->open(name); }
  ~Span() { log_->close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
};

/// Writes the Chrome trace of \p log and a per-name summary table (self
/// time, calls, share of \p wall_s) to \p out_dir; returns the table text.
std::string export_trace(const SpanLog& log, double wall_s,
                         const std::string& out_dir, const std::string& stem);

// ---- workloads ------------------------------------------------------------

WorkloadResult run_campaign_workload(const RunOptions& options, bool gauss);
WorkloadResult run_serve_workload(const RunOptions& options);
WorkloadResult run_fleet_workload(const RunOptions& options);

}  // namespace hdbench
