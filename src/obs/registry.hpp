#pragma once
/// \file registry.hpp
/// Process-wide metrics: typed counters, gauges, and fixed-bucket latency
/// histograms behind a named registry with snapshot + export.
///
/// Design rules (docs/observability.md spells out the full contract):
///
///  - **Out-of-band by construction.** Instruments are lock-free relaxed
///    atomics; bumping one is a single `fetch_add(relaxed)` — no
///    allocation, no locking, no clock read — so instrumented code cannot
///    perturb campaign determinism or the dense-free hot path. Name
///    lookup (`Registry::counter(...)`) takes a mutex and may allocate,
///    so call sites resolve their handles once (constructor, function-local
///    static) and keep the pointer; handles stay valid for the registry's
///    lifetime.
///  - **Wall clocks live in src/obs/ only.** The registry itself never
///    reads a clock; latency histograms are fed durations measured by the
///    RAII types in trace.hpp (the sanctioned clock carve-out).
///  - **Monotone counters, point-in-time gauges.** Snapshots are
///    consistent-enough reads (each cell read once, relaxed); exact
///    cross-counter atomicity is explicitly not promised.
///
/// Exporters: Prometheus-style text exposition (`render_prometheus`) and a
/// JSON dump (`render_json`, ordered insertion, RFC 8259 string escaping).
/// Metric names may embed Prometheus labels
/// directly — `fuzz_mutants_total{strategy="rand"}` is one registry entry
/// whose exposition line is already well-formed.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hdtest::obs {

/// Monotonically increasing event tally. Relaxed atomics: safe to bump from
/// any thread, invisible next to the work it measures.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value (queue depth, active leases, ...). Last write wins.
class Gauge {
 public:
  void set(std::uint64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Fixed-bucket latency histogram over power-of-two boundaries: an observed
/// value lands in bucket `bit_width(value)`, i.e. bucket b (b >= 1) covers
/// [2^(b-1), 2^b - 1] and bucket 0 holds exact zeros. 40 buckets span
/// 1 ns .. ~9 min when fed nanoseconds. Recording is two relaxed adds;
/// quantiles are derived from the bucket counts at snapshot time, accurate
/// to one power-of-two boundary (the estimate is the bucket's inclusive
/// upper bound, so it never under-reports).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  void record(std::uint64_t value) noexcept {
    buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t bucket(std::size_t b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Bucket index for \p value (see the class comment for the geometry).
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) noexcept {
    std::size_t b = 0;
    while (value != 0) {
      value >>= 1;
      ++b;
    }
    return b < kBuckets ? b : kBuckets - 1;
  }

  /// Inclusive upper bound of bucket \p b (UINT64_MAX for the overflow
  /// bucket).
  [[nodiscard]] static std::uint64_t bucket_upper_bound(
      std::size_t b) noexcept {
    if (b + 1 >= kBuckets) return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// One sampled counter or gauge.
struct Sample {
  std::string name;
  std::uint64_t value = 0;
};

/// One sampled histogram, with derived-quantile helpers.
struct HistogramSample {
  std::string name;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  std::uint64_t sum = 0;

  /// Total observations (sum over buckets).
  [[nodiscard]] std::uint64_t events() const noexcept;

  /// Upper bound of the bucket containing the q-quantile observation
  /// (q in [0, 1]). For any recorded distribution this is >= the true
  /// quantile and <= 2x the true quantile + 1 (one bucket of slack).
  /// Returns 0 when no events were recorded.
  [[nodiscard]] std::uint64_t quantile_upper_bound(double q) const noexcept;
};

/// Consistent-enough point-in-time view of every instrument, name-sorted.
struct Snapshot {
  std::vector<Sample> counters;
  std::vector<Sample> gauges;
  std::vector<HistogramSample> histograms;

  /// Value of the named counter, or 0 when absent.
  [[nodiscard]] std::uint64_t counter_value(
      std::string_view name) const noexcept;
};

/// Named instrument store. `global()` is the process-wide registry every
/// instrumented subsystem uses; independent instances exist for tests.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry. First use also folds the six
  /// hdc::instrument dense-free counters in as externals (satellite
  /// contract: they appear in every snapshot without touching their
  /// note_* fast path).
  [[nodiscard]] static Registry& global();

  /// Finds or creates the named instrument. Returned references stay valid
  /// for the registry's lifetime. Takes a mutex — resolve once, off any
  /// hot loop, and keep the handle.
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  /// Exposes an externally owned relaxed-atomic cell as a counter in every
  /// snapshot (the hdc::instrument fold-in). The cell must outlive the
  /// registry.
  void bind_external(const std::string& name,
                     const std::atomic<std::uint64_t>* cell);

  [[nodiscard]] Snapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, const std::atomic<std::uint64_t>*> external_;
};

/// Global telemetry switch. Counters are always-on (a relaxed add is
/// cheaper than a branch worth protecting); the flag gates the optional
/// machinery — trace spans (clock reads), heartbeat emission, periodic
/// exposition — so a campaign with telemetry "off" does strictly less
/// ambient work while producing bit-identical records either way.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Prometheus-style text exposition (one `name value` line per counter and
/// gauge, `_bucket`/`_sum`/`_count` series per histogram).
[[nodiscard]] std::string render_prometheus(const Snapshot& snap);

/// JSON dump: one flat object, insertion-ordered, RFC 8259 escaping;
/// histograms expand to {buckets, sum, events, p50, p90, p99}.
[[nodiscard]] std::string render_json(const Snapshot& snap);

/// Replaces \p path with \p text atomically: writes `<path>.tmp` and renames
/// it over \p path, so a concurrent reader never sees a partial file. One
/// writer per path at a time. Returns false on I/O failure (the temp file is
/// removed); the drivers log-and-continue, telemetry must never kill a
/// campaign.
[[nodiscard]] bool write_text_file(const std::string& path,
                                   std::string_view text) noexcept;

}  // namespace hdtest::obs
