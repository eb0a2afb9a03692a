/// \file telemetry_overhead.cpp
/// The observability contract's cost half. The counters on the campaign hot
/// loop are always-on relaxed atomics and the optional machinery (spans,
/// heartbeats) is flag-gated, so fully enabling metrics and tracing must
/// cost <= 2% end to end. Per the determinism contract it must also not move
/// a single record (fuzz::identical_records).
///
/// Each rep alternates off and on campaigns 20 times, so load from other
/// processes that drifts over seconds hits both sides equally; a side's rep
/// time is the sum of its 20 campaigns, about a second. Each side keeps its
/// fastest rep, and every run's records must equal an untimed reference
/// run's. The 10 ms absolute slack for timer and scheduler granularity
/// is then about 1% of the off time, so the gate can fail: the bench prints
/// the effective bound `1.02 + slack/off` next to the measured ratio.
///
/// The workload is fixed (no env knobs, no flags): D=1024, target-count
/// gauss campaigns of 250 adversarials on 4 workers, 5 reps. Exits 1 when
/// either gate fails.

#include <cstdio>

#include "data/synthetic_digits.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutation.hpp"
#include "hdc/classifier.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

int main() {
  using namespace hdtest;
  constexpr std::size_t kTargetAdversarials = 250;
  constexpr std::size_t kPairsPerRep = 20;
  constexpr std::size_t kReps = 5;
  constexpr double kRatioBound = 1.02;
  constexpr double kSlackSeconds = 0.010;

  const auto pair = data::make_digit_train_test(20, 4, 99);
  hdc::ModelConfig model_config;
  model_config.dim = 1024;
  model_config.seed = 99;
  hdc::HdcClassifier model(model_config, 28, 28, 10);
  model.fit(pair.train);
  const auto strategy = fuzz::make_strategy("gauss");
  fuzz::FuzzConfig fuzz_config;
  fuzz_config.budget = fuzz::default_budget_for_strategy("gauss");
  const fuzz::Fuzzer fuzzer(model, *strategy, fuzz_config);
  fuzz::CampaignConfig config;
  config.fuzz = fuzz_config;
  config.target_adversarials = kTargetAdversarials;
  config.seed = 5;
  config.workers = 4;

  std::printf("telemetry overhead: metrics + tracing fully on vs off (D=1024, "
              "4 workers, %zu x target-%zu campaigns per side per rep, min of "
              "%zu reps)\n",
              kPairsPerRep, kTargetAdversarials, kReps);
  // Every timed run is checked against this untimed reference and freed at
  // once: a run that starts while the other side's records are still held
  // faults in fresh pages, which biased the comparison by a few percent.
  obs::set_enabled(false);
  obs::set_trace_enabled(false);
  const auto reference = fuzz::run_campaign(fuzzer, pair.test, config);
  bool identical = true;
  const auto timed_run = [&](bool telemetry) {
    obs::set_enabled(telemetry);
    obs::set_trace_enabled(telemetry);
    const util::Stopwatch watch;
    const auto result = fuzz::run_campaign(fuzzer, pair.test, config);
    const double seconds = watch.seconds();
    identical = identical && fuzz::identical_records(result, reference);
    return seconds;
  };

  double off_seconds = 0.0;
  double on_seconds = 0.0;
  for (std::size_t r = 0; r < kReps; ++r) {
    double off_rep = 0.0;
    double on_rep = 0.0;
    // Off-on, then on-off: neither side always runs first.
    for (std::size_t p = 0; p < kPairsPerRep; ++p) {
      const bool on_first = p % 2 == 1;
      if (on_first) on_rep += timed_run(true);
      off_rep += timed_run(false);
      if (!on_first) on_rep += timed_run(true);
    }
    if (r == 0 || off_rep < off_seconds) off_seconds = off_rep;
    if (r == 0 || on_rep < on_seconds) on_seconds = on_rep;
  }

  const double ratio = off_seconds > 0.0 ? on_seconds / off_seconds : 0.0;
  const double bound =
      off_seconds > 0.0 ? kRatioBound + kSlackSeconds / off_seconds : 0.0;
  const bool within = on_seconds <= off_seconds * kRatioBound + kSlackSeconds;
  std::printf("off %.4fs, on %.4fs -> ratio %.4f (%+.2f%%), effective bound "
              "%.4f: %s; %zu records %s\n",
              off_seconds, on_seconds, ratio, (ratio - 1.0) * 100.0, bound,
              within ? "ok" : "FAILED", reference.records.size(),
              identical ? "identical" : "DIVERGED");
  if (!identical) {
    std::printf("ERROR: enabling telemetry changed the campaign records\n");
  }
  if (!within) {
    std::printf("ERROR: telemetry overhead exceeds the effective bound\n");
  }
  return identical && within ? 0 : 1;
}
