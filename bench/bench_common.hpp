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
/// EXPERIMENTS.md records the parameters used for the checked-in outputs.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

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

/// Scale knobs shared by the fuzzing benches.
struct BenchParams {
  std::size_t dim = env_u64("HDTEST_DIM", 4096);
  std::size_t train_per_class = env_u64("HDTEST_TRAIN_PC", 100);
  std::size_t test_per_class = env_u64("HDTEST_TEST_PC", 40);
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

/// Minimal ordered JSON object builder for machine-readable bench baselines
/// (the committed BENCH_*.json files that make the perf trajectory
/// comparable PR-over-PR). Values are rendered on insertion; nest by adding
/// a rendered object/array with add_raw(). No external dependency.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    return add_raw(key, buf);
  }

  JsonObject& add(const std::string& key, const std::string& value) {
    // Full RFC 8259 string escaping: quotes, backslashes, and control
    // characters (backend/strategy names come from env vars and subprocess
    // output, so they are not guaranteed printable).
    std::string quoted = "\"";
    for (const char c : value) {
      switch (c) {
        case '"': quoted += "\\\""; break;
        case '\\': quoted += "\\\\"; break;
        case '\b': quoted += "\\b"; break;
        case '\f': quoted += "\\f"; break;
        case '\n': quoted += "\\n"; break;
        case '\r': quoted += "\\r"; break;
        case '\t': quoted += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            quoted += buf;
          } else {
            quoted += c;
          }
      }
    }
    quoted += '"';
    return add_raw(key, std::move(quoted));
  }

  JsonObject& add(const std::string& key, const char* value) {
    return add(key, std::string(value));
  }

  JsonObject& add(const std::string& key, bool value) {
    return add_raw(key, value ? "true" : "false");
  }

  /// Adds an already-rendered JSON value (nested object or array).
  JsonObject& add_raw(const std::string& key, std::string rendered) {
    fields_.emplace_back(key, std::move(rendered));
    return *this;
  }

  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ", ";
      out += '"';
      out += fields_[i].first;
      out += "\": ";
      out += fields_[i].second;
    }
    out += '}';
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Renders a JSON array from pre-rendered element strings.
[[nodiscard]] inline std::string json_array(
    const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ", ";
    out += items[i];
  }
  out += ']';
  return out;
}

/// Writes a rendered JSON document (with trailing newline) to \p path.
/// Returns false on I/O failure.
inline bool write_json(const std::string& path, const std::string& rendered) {
  std::ofstream file(path);
  if (!file) return false;
  file << rendered << '\n';
  return static_cast<bool>(file);
}

/// Short git SHA of the working tree (with a "-dirty" suffix when the tree
/// has uncommitted changes), or "unknown" outside a repo — recorded in the
/// committed bench baselines so every number is attributable to a commit.
inline std::string git_sha() {
  const auto run = [](const char* cmd) -> std::string {
    std::string out;
    if (FILE* pipe = popen(cmd, "r")) {
      char buf[128];
      while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
      pclose(pipe);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
      out.pop_back();
    }
    return out;
  };
  std::string sha = run("git rev-parse --short HEAD 2>/dev/null");
  if (sha.empty()) return "unknown";
  if (!run("git status --porcelain 2>/dev/null").empty()) sha += "-dirty";
  return sha;
}

}  // namespace hdtest::benchutil
