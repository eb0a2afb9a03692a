/// \file hdbench.cpp
/// Benchmark driver: runs one workload and prints its stamp and metric
/// values as two JSON lines (prefixed HDBENCH_STAMP / HDBENCH_RESULT) for
/// run.py, which attaches the units declared in BENCHMARK.json.
///
///   hdbench --workload campaign_rand --seed 7 --seconds 10 --trace 0
///           [--out-dir DIR] [--git-sha SHA]
///
/// Exits 1 on a usage error or an exception, 2 when any correctness check
/// failed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "device/device.hpp"
#include "util/simd/kernels.hpp"

namespace {

using hdbench::RunOptions;
using hdbench::WorkloadResult;

/// JSON-escapes the few characters a stamp string could contain.
std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

bool parse(int argc, char** argv, RunOptions& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else if (key == "--git-sha") {
      options.git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds > 0.0;
}

WorkloadResult run(const RunOptions& options) {
  if (options.workload == "campaign_rand") {
    return hdbench::run_campaign_workload(options, /*gauss=*/false);
  }
  if (options.workload == "campaign_gauss") {
    return hdbench::run_campaign_workload(options, /*gauss=*/true);
  }
  if (options.workload == "serve_mapped") {
    return hdbench::run_serve_workload(options);
  }
  if (options.workload == "fleet_tcp") {
    return hdbench::run_fleet_workload(options);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

void print_stamp(const RunOptions& options, const WorkloadResult& result) {
  std::string json = "{";
  json += "\"workload\":" + quoted(options.workload);
  json += ",\"seed\":" + std::to_string(options.seed);
  json += ",\"trace\":" + std::string(options.trace ? "true" : "false");
  json += ",\"workers\":" + std::to_string(result.workers);
  json += ",\"hardware_threads\":" +
          std::to_string(std::thread::hardware_concurrency());
  json += ",\"kernel_backend\":" +
          quoted(hdtest::util::simd::kernels().name);
  json += ",\"device\":" + quoted(hdtest::hdc::active_device().name());
  json += ",\"codebook\":" + quoted(result.codebook);
  json += ",\"dim\":" + std::to_string(result.dim);
  json += ",\"git_sha\":" + quoted(options.git_sha);
  json += ",\"failed_frac\":" +
          number(static_cast<double>(result.failed) /
                 static_cast<double>(result.attempted));
  json += ",\"repetitions\":{";
  bool first = true;
  for (const auto& [name, s] : result.repetitions) {
    if (!first) json += ",";
    first = false;
    json += quoted(name) + ":{\"reps\":" + std::to_string(s.reps) +
            ",\"median\":" + number(s.median) + ",\"q1\":" + number(s.q1) +
            ",\"q3\":" + number(s.q3) + "}";
  }
  json += "}}";
  std::printf("HDBENCH_STAMP %s\n", json.c_str());
}

void print_result(const WorkloadResult& result) {
  std::string json = "{\"correct\":";
  json += result.failed == 0 ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(result.attempted);
  json += ",\"failed\":" + std::to_string(result.failed);
  json += ",\"values\":{";
  bool first = true;
  for (const auto& [name, value] : result.values) {
    if (!first) json += ",";
    first = false;
    json += quoted(name) + ":" + number(value);
  }
  json += "}}";
  std::printf("HDBENCH_RESULT %s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  try {
    if (!parse(argc, argv, options)) {
      std::fprintf(stderr,
                   "usage: hdbench --workload NAME --seed N --seconds S "
                   "--trace 0|1 [--out-dir DIR] [--git-sha SHA]\n");
      return 1;
    }
    std::filesystem::create_directories(options.out_dir);
    WorkloadResult result = run(options);
    if (!options.trace) result.add("rss_mb", hdbench::peak_rss_mib());
    print_stamp(options, result);
    print_result(result);
    std::fflush(stdout);
    return result.failed == 0 && result.attempted > 0 ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hdbench: %s\n", e.what());
    return 1;
  }
}
