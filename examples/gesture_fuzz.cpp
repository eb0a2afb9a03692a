/// \file gesture_fuzz.cpp
/// HDTest on the third modality: EMG-style gesture recognition — the very
/// workload the paper's introduction uses to motivate HDC (Rahimi et al.;
/// Moin et al.). Demonstrates, once more, that the differential distance-
/// guided loop transfers untouched: only the encoder and the mutation
/// operator are modality-specific.
///
/// Signal mutations mirror the image strategies:
///   sensor noise  ~ gauss   (per-sample Gaussian jitter)
///   channel_rand  ~ row_rand (randomize one electrode channel)
///   time_shift    ~ shift   (temporal displacement, values preserved)

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/signal.hpp"
#include "hdc/ts_encoder.hpp"
#include "util/argparse.hpp"
#include "util/stats.hpp"

namespace {

using namespace hdtest;

/// Signal mutation operators (kept local: the fuzz loop is generic, the
/// operators are the only modality-specific piece).
data::Signal mutate_noise(const data::Signal& seed, double stddev,
                          util::Rng& rng) {
  data::Signal out = seed;
  for (auto& sample : out.samples) {
    const int delta = static_cast<int>(std::lround(rng.gaussian(0.0, stddev)));
    sample = static_cast<std::uint8_t>(
        std::clamp(static_cast<int>(sample) + delta, 0, 255));
  }
  return out;
}

data::Signal mutate_channel(const data::Signal& seed, int amplitude,
                            util::Rng& rng) {
  data::Signal out = seed;
  const auto channel = static_cast<std::size_t>(rng.uniform_u64(seed.channels));
  for (std::size_t t = 0; t < seed.timesteps; ++t) {
    int delta = 0;
    while (delta == 0) {
      delta = static_cast<int>(rng.uniform_int(-amplitude, amplitude));
    }
    const auto idx = channel * seed.timesteps + t;
    out.samples[idx] = static_cast<std::uint8_t>(
        std::clamp(static_cast<int>(out.samples[idx]) + delta, 0, 255));
  }
  return out;
}

data::Signal mutate_time_shift(const data::Signal& seed, util::Rng& rng) {
  data::Signal out(seed.channels, seed.timesteps, 128);
  const int shift = rng.bernoulli(0.5) ? 1 : -1;
  for (std::size_t c = 0; c < seed.channels; ++c) {
    for (std::size_t t = 0; t < seed.timesteps; ++t) {
      const auto src = static_cast<std::ptrdiff_t>(t) + shift;
      if (src < 0 || src >= static_cast<std::ptrdiff_t>(seed.timesteps)) continue;
      out.samples[c * seed.timesteps + t] =
          seed.samples[c * seed.timesteps + static_cast<std::size_t>(src)];
    }
  }
  return out;
}

struct GestureFuzzOutcome {
  bool success = false;
  std::size_t iterations = 0;
  double l2 = 0.0;
};

/// Algorithm 1 over signals (differential oracle + distance guidance).
GestureFuzzOutcome fuzz_gesture(const hdc::GestureClassifier& model,
                                const data::Signal& input,
                                const std::string& mutation, double budget_l2,
                                util::Rng& rng) {
  constexpr std::size_t kIterTimes = 30;
  constexpr std::size_t kSeedsPerIter = 10;
  constexpr std::size_t kTopN = 3;

  GestureFuzzOutcome outcome;
  const auto reference = model.predict(input);

  struct Scored {
    data::Signal signal;
    double fitness;
  };
  const auto fitness_of = [&](const data::Signal& s) {
    return 1.0 - model.similarity_to_class(reference, model.encode(s));
  };
  std::vector<Scored> parents{{input, fitness_of(input)}};

  const auto mutate = [&](const data::Signal& parent) {
    if (mutation == "noise") return mutate_noise(parent, 4.0, rng);
    if (mutation == "channel_rand") return mutate_channel(parent, 40, rng);
    return mutate_time_shift(parent, rng);
  };
  const bool budget_applies = mutation != "time_shift";

  for (std::size_t iter = 0; iter < kIterTimes; ++iter) {
    ++outcome.iterations;
    std::vector<Scored> candidates;
    for (std::size_t s = 0; s < kSeedsPerIter; ++s) {
      auto mutant = mutate(parents[s % parents.size()].signal);
      const double l2 = data::signal_l2(input, mutant);
      if (budget_applies && l2 > budget_l2) continue;
      if (model.predict(mutant) != reference) {
        outcome.success = true;
        outcome.l2 = l2;
        return outcome;
      }
      const double fitness = fitness_of(mutant);  // before the move
      candidates.push_back(Scored{std::move(mutant), fitness});
    }
    for (auto& parent : parents) candidates.push_back(std::move(parent));
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Scored& a, const Scored& b) {
                       return a.fitness > b.fitness;
                     });
    if (candidates.size() > kTopN) candidates.resize(kTopN);
    parents = std::move(candidates);
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("gesture_fuzz",
                       "HDTest on an EMG-style gesture classifier");
  args.add_flag("dim", "4096", "Hypervector dimensionality");
  args.add_flag("classes", "5", "Number of gesture classes");
  args.add_flag("signals", "30", "Signals to fuzz");
  args.add_flag("mutation", "noise", "noise|channel_rand|time_shift");
  args.add_flag("budget-l2", "1.0", "L2 budget (ignored for time_shift)");
  args.add_flag("seed", "42", "Experiment seed");
  // Every flag is read and converted before any work, so a malformed value
  // exits 1 with one error line.
  std::uint64_t seed = 0;
  int classes = 0;
  std::uint64_t signals = 0;
  std::string mutation;
  double budget_l2 = 0.0;
  hdc::ModelConfig config;
  try {
    args.parse(argc, argv);
    if (args.help_requested()) {
      std::cout << args.usage();
      return 0;
    }
    seed = args.get_u64("seed");
    classes = static_cast<int>(args.get_u64("classes"));
    signals = args.get_u64("signals");
    mutation = args.get("mutation");
    if (mutation != "noise" && mutation != "channel_rand" &&
        mutation != "time_shift") {
      throw std::invalid_argument("flag --mutation: unknown mutation '" +
                                  mutation + "'");
    }
    budget_l2 = args.get_double("budget-l2");
    config.dim = args.get_u64("dim");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  data::GestureStyle style;
  // Same class blueprints (same seed), disjoint sample streams (salts).
  const auto train =
      data::make_gesture_dataset(classes, 40, seed, style, /*salt=*/0);
  const auto test =
      data::make_gesture_dataset(classes, 15, seed, style, /*salt=*/1);

  config.seed = seed;
  // Biosignal HDC practice (Rahimi et al.): quantize amplitudes to a few
  // *level-encoded* steps so nearby values stay similar — with 256 random
  // value HVs, sensor jitter alone would randomize every timestep HV.
  config.value_levels = 16;
  config.value_strategy = hdc::ValueStrategy::kLevel;
  hdc::GestureClassifier model(config, style.channels, style.timesteps,
                               static_cast<std::size_t>(classes));
  model.fit(train);
  std::printf("gesture model: %d classes, %zu ch x %zu steps, accuracy %.1f%%\n",
              classes, style.channels, style.timesteps,
              100.0 * model.accuracy(test));

  util::Rng master(seed);
  util::RunningStats iterations;
  util::RunningStats l2;
  std::size_t successes = 0;
  const auto count = std::min<std::size_t>(signals, test.signals.size());
  for (std::size_t i = 0; i < count; ++i) {
    util::Rng rng = master.child(i);
    const auto outcome =
        fuzz_gesture(model, test.signals[i], mutation, budget_l2, rng);
    iterations.add(static_cast<double>(outcome.iterations));
    if (outcome.success) {
      ++successes;
      l2.add(outcome.l2);
    }
  }
  std::printf(
      "fuzzed %zu gestures with '%s': %zu adversarial (%.0f%%), avg %.2f "
      "iterations, avg L2 %.3f\n",
      count, mutation.c_str(), successes,
      100.0 * static_cast<double>(successes) / static_cast<double>(count),
      iterations.mean(), l2.mean());
  std::printf(
      "third modality, zero framework changes — the loop needs only HV\n"
      "distances (paper section V-E).\n");
  return 0;
}
