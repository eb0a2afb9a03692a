#pragma once
/// \file bench_common.hpp
/// Shared scaffolding for the paper-reproduction bench harnesses.
///
/// Every bench binary prints the paper's table/figure it reproduces, the
/// parameters used, and both a human-readable table and a CSV file under
/// bench_out/. Scale knobs come from the environment so the default run of
/// `for b in build/bench/*; do $b; done` finishes in minutes:
///
///   HDTEST_DIM          hypervector dimensionality   (default 4096)
///   HDTEST_TRAIN_PC     training images per class    (default 100)
///   HDTEST_TEST_PC      test images per class        (default 40)
///   HDTEST_FUZZ_IMAGES  images fuzzed per campaign   (default 100)
///   HDTEST_WORKERS      campaign worker threads      (default 4)
///   HDTEST_SEED         master experiment seed       (default 42)
///
/// HDTEST_DIM, HDTEST_TRAIN_PC and HDTEST_TEST_PC must be positive.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>

#include "data/synthetic_digits.hpp"
#include "hdc/classifier.hpp"
#include "util/timer.hpp"

namespace hdtest::benchutil {

/// Reads an unsigned integer environment override. A set value that is not a
/// plain decimal unsigned integer prints one "error:" line and exits 1, so a
/// typo never runs a bench at its default scale.
inline std::size_t env_u64(const char* name, std::size_t fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  const char* const last = text + std::strlen(text);
  std::size_t value = 0;
  const auto [end, ec] = std::from_chars(text, last, value);
  if (ec != std::errc{} || end != last) {
    std::fprintf(stderr, "error: %s=%s is not an unsigned integer\n", name,
                 text);
    std::exit(1);
  }
  return value;
}

/// env_u64 for a knob that sizes the model or its data: zero prints one
/// "error:" line and exits 1 instead of reaching an uncaught exception later.
inline std::size_t env_positive(const char* name, std::size_t fallback) {
  const std::size_t value = env_u64(name, fallback);
  if (value == 0) {
    std::fprintf(stderr, "error: %s=0 must be positive\n", name);
    std::exit(1);
  }
  return value;
}

/// Scale knobs shared by the fuzzing benches.
struct BenchParams {
  std::size_t dim = env_positive("HDTEST_DIM", 4096);
  std::size_t train_per_class = env_positive("HDTEST_TRAIN_PC", 100);
  std::size_t test_per_class = env_positive("HDTEST_TEST_PC", 40);
  std::size_t fuzz_images = env_u64("HDTEST_FUZZ_IMAGES", 100);
  std::size_t workers = env_u64("HDTEST_WORKERS", 4);
  std::uint64_t seed = env_u64("HDTEST_SEED", 42);
};

/// A trained model plus its train/test data.
struct Setup {
  BenchParams params;
  data::TrainTestPair data;
  std::unique_ptr<hdc::HdcClassifier> model;
  double train_seconds = 0.0;
  double clean_accuracy = 0.0;
};

/// Builds the standard experiment substrate: synthetic digits + the paper's
/// HDC model (random value memory), trained and evaluated.
inline Setup make_standard_setup(const BenchParams& params = {}) {
  Setup setup;
  setup.params = params;
  setup.data = data::make_digit_train_test(params.train_per_class,
                                           params.test_per_class, params.seed);
  hdc::ModelConfig config;
  config.dim = params.dim;
  config.seed = params.seed;
  setup.model = std::make_unique<hdc::HdcClassifier>(config, 28, 28, 10);
  const util::Stopwatch watch;
  setup.model->fit(setup.data.train);
  setup.train_seconds = watch.seconds();
  setup.clean_accuracy = setup.model->evaluate(setup.data.test).accuracy();
  return setup;
}

/// Prints the standard bench banner.
inline void print_banner(const char* title, const char* paper_artifact,
                         const Setup& setup) {
  std::printf("=== %s ===\n", title);
  std::printf("reproduces: %s\n", paper_artifact);
  std::printf(
      "setup: D=%zu, train=%zux10, test=%zux10, fuzz_images=%zu, seed=%llu\n",
      setup.params.dim, setup.params.train_per_class,
      setup.params.test_per_class, setup.params.fuzz_images,
      static_cast<unsigned long long>(setup.params.seed));
  std::printf("model: trained in %s, clean accuracy %.1f%% (paper: ~90%%)\n\n",
              util::format_duration(setup.train_seconds).c_str(),
              100.0 * setup.clean_accuracy);
}

/// Output directory for CSV artifacts (created on demand).
inline std::string out_dir() {
  const std::string dir = "bench_out";
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace hdtest::benchutil
