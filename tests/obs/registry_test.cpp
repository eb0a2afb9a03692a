/// \file registry_test.cpp
/// Metrics registry contract: bucket geometry, quantile accuracy against a
/// sorted-vector oracle, snapshot consistency under concurrent writers (the
/// TSan leg leans on this one), external-cell fold-in, and both exporters.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "obs/registry.hpp"

namespace hdtest::obs {
namespace {

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t tally = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++tally;
  }
  return tally;
}

TEST(ObsHistogram, BucketGeometryMatchesTheDocumentedPowersOfTwo) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  // Values past the top bucket collapse into the overflow bucket.
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), Histogram::kBuckets - 1);

  EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper_bound(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper_bound(10), 1023u);
  EXPECT_EQ(Histogram::bucket_upper_bound(Histogram::kBuckets - 1),
            ~std::uint64_t{0});
  // Every bucket's upper bound actually maps back into that bucket.
  for (std::size_t b = 0; b + 1 < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_upper_bound(b)), b) << b;
  }
}

// The header promises: for any recorded distribution the estimate is >= the
// true quantile and <= 2x the true quantile + 1. Check against a
// sorted-vector oracle over several seeded distributions.
TEST(ObsHistogram, QuantileUpperBoundBracketsTheSortedVectorOracle) {
  const double quantiles[] = {0.0, 0.10, 0.25, 0.50, 0.90, 0.99, 1.0};
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    std::mt19937_64 rng(seed);
    Histogram hist;
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 2000; ++i) {
      // Mix of scales: exact zeros, small counts, wide latencies.
      const auto scale = rng() % 3;
      std::uint64_t v = 0;
      if (scale == 1) v = rng() % 100;
      if (scale == 2) v = rng() % 10'000'000;
      hist.record(v);
      values.push_back(v);
    }
    std::sort(values.begin(), values.end());

    HistogramSample sample;
    sample.name = "oracle";
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      sample.buckets[b] = hist.bucket(b);
    }
    sample.sum = hist.sum();
    ASSERT_EQ(sample.events(), values.size());

    for (const double q : quantiles) {
      auto rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(values.size())));
      if (rank < 1) rank = 1;
      const std::uint64_t truth = values[rank - 1];
      const std::uint64_t estimate = sample.quantile_upper_bound(q);
      EXPECT_GE(estimate, truth) << "q=" << q << " seed=" << seed;
      EXPECT_LE(estimate, 2 * truth + 1) << "q=" << q << " seed=" << seed;
    }
  }
}

TEST(ObsHistogram, EmptyHistogramQuantilesAreZero) {
  HistogramSample sample;
  EXPECT_EQ(sample.events(), 0u);
  EXPECT_EQ(sample.quantile_upper_bound(0.5), 0u);
  EXPECT_EQ(sample.quantile_upper_bound(1.0), 0u);
}

// Writers bump instruments while a reader snapshots mid-flight: every
// snapshot must be internally sane (never ahead of the final totals) and
// the post-join snapshot exact. Run under TSan, this is also the data-race
// proof for the relaxed-atomic instrument cells.
TEST(ObsRegistry, SnapshotStaysConsistentUnderConcurrentIncrements) {
  Registry reg;
  Counter& events = reg.counter("events_total");
  Gauge& depth = reg.gauge("queue_depth");
  Histogram& lat = reg.histogram("latency_ns");

  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        events.add(1);
        depth.set(i);
        lat.record(i % 4096);
      }
      (void)t;
    });
  }

  for (int pass = 0; pass < 50; ++pass) {
    const Snapshot snap = reg.snapshot();
    EXPECT_LE(snap.counter_value("events_total"), kThreads * kPerThread);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_LE(snap.histograms[0].events(), kThreads * kPerThread);
  }
  for (auto& w : writers) w.join();

  const Snapshot final_snap = reg.snapshot();
  EXPECT_EQ(final_snap.counter_value("events_total"), kThreads * kPerThread);
  EXPECT_EQ(final_snap.histograms[0].events(), kThreads * kPerThread);
}

TEST(ObsRegistry, CounterValueFindsByNameAndDefaultsToZero) {
  Registry reg;
  reg.counter("present_total").add(7);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("present_total"), 7u);
  EXPECT_EQ(snap.counter_value("absent_total"), 0u);
}

TEST(ObsRegistry, RepeatedLookupsReturnTheSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("same_total");
  Counter& b = reg.counter("same_total");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(ObsRegistry, ExternalCellsAppearInterleavedInNameOrder) {
  Registry reg;
  std::atomic<std::uint64_t> cell{11};
  reg.counter("aaa_total").add(1);
  reg.counter("zzz_total").add(2);
  reg.bind_external("mmm_external_total", &cell);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "aaa_total");
  EXPECT_EQ(snap.counters[1].name, "mmm_external_total");
  EXPECT_EQ(snap.counters[2].name, "zzz_total");
  EXPECT_EQ(snap.counter_value("mmm_external_total"), 11u);
  cell.store(12);
  EXPECT_EQ(reg.snapshot().counter_value("mmm_external_total"), 12u);
}

// Satellite contract: the global registry folds the dense-free
// instrumentation counters in as externals — they show up in every
// snapshot without touching their note_* fast path.
TEST(ObsRegistry, GlobalRegistryExposesTheDenseFreeInstrumentCounters) {
  const Snapshot snap = Registry::global().snapshot();
  const char* expected[] = {
      "hdc_am_row_walks_total",
      "hdc_packed_am_rebuilds_total",
      "hdc_packed_codebook_builds_total",
      "hdc_codebook_row_rematerializations_total",
  };
  for (const char* name : expected) {
    const bool found = std::any_of(
        snap.counters.begin(), snap.counters.end(),
        [&](const Sample& s) { return s.name == name; });
    EXPECT_TRUE(found) << name;
  }
}

TEST(ObsRegistry, PrometheusGroupsLabelledSeriesUnderOneTypeLine) {
  Registry reg;
  reg.counter("fuzz_mutants_total{strategy=\"gauss\"}").add(5);
  reg.counter("fuzz_mutants_total{strategy=\"rand\"}").add(9);
  reg.counter("other_total").add(1);
  const std::string text = render_prometheus(reg.snapshot());
  EXPECT_EQ(count_occurrences(text, "# TYPE fuzz_mutants_total counter"), 1u);
  EXPECT_EQ(count_occurrences(text, "# TYPE other_total counter"), 1u);
  EXPECT_NE(text.find("fuzz_mutants_total{strategy=\"gauss\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("fuzz_mutants_total{strategy=\"rand\"} 9\n"),
            std::string::npos);
}

TEST(ObsRegistry, PrometheusHistogramSeriesAreCumulativeAndComplete) {
  Registry reg;
  Histogram& lat = reg.histogram("span_ns");
  lat.record(0);  // bucket 0
  lat.record(1);  // bucket 1
  lat.record(3);  // bucket 2
  lat.record(3);  // bucket 2
  const std::string text = render_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# TYPE span_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("span_ns_bucket{le=\"0\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("span_ns_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("span_ns_bucket{le=\"3\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("span_ns_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("span_ns_sum 7\n"), std::string::npos);
  EXPECT_NE(text.find("span_ns_count 4\n"), std::string::npos);
}

TEST(ObsRegistry, JsonDumpCarriesQuantilesAndEscapesNames) {
  Registry reg;
  reg.counter("with\"quote_total").add(2);
  reg.gauge("depth").set(4);
  Histogram& lat = reg.histogram("span_ns");
  for (int i = 0; i < 100; ++i) lat.record(100);
  const std::string text = render_json(reg.snapshot());
  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.back(), '}');
  EXPECT_NE(text.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(text.find("\"with\\\"quote_total\":2"), std::string::npos);
  EXPECT_NE(text.find("\"gauges\":{\"depth\":4}"), std::string::npos);
  // All observations are 100 -> every quantile reports bucket 7's upper
  // bound, 127.
  EXPECT_NE(text.find("\"events\":100"), std::string::npos);
  EXPECT_NE(text.find("\"p50\":127"), std::string::npos);
  EXPECT_NE(text.find("\"p99\":127"), std::string::npos);
}

// A reader polling the file while it is rewritten 1,000 times only ever sees
// a whole version: never a missing, empty, short or mixed file.
TEST(ObsRegistry, WriteTextFileNeverExposesAPartialFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("hdtest_atomic_write_" + std::to_string(::getpid()) + ".prom"))
          .string();
  const std::size_t size = 64 * 1024;
  ASSERT_TRUE(write_text_file(path, std::string(size, 'a')));
  std::atomic<bool> done{false};
  std::size_t reads = 0;
  std::size_t bad_reads = 0;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::ifstream in(path, std::ios::binary);
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      ++reads;
      const bool whole =
          text.size() == size &&
          std::all_of(text.begin(), text.end(),
                      [&](char c) { return c == text.front(); });
      if (!whole) ++bad_reads;
    }
  });
  bool all_written = true;
  for (int i = 0; i < 1000; ++i) {
    const auto fill = static_cast<char>('a' + i % 26);
    all_written &= write_text_file(path, std::string(size, fill));
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(all_written);
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(bad_reads, 0u) << "of " << reads << " reads";
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(ObsRegistry, WriteTextFileFailsCleanlyOnAMissingDirectory) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            "hdtest_no_such_dir" / "metrics.prom")
                               .string();
  EXPECT_FALSE(write_text_file(path, "x 1\n"));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

}  // namespace
}  // namespace hdtest::obs
