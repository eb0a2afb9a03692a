/// \file cross_model_diff.cpp
/// Cross-model differential fuzzing demo.
///
/// The paper's oracle compares a model's prediction on a mutant against its
/// own prediction on the original. This example exercises the other classic
/// differential-testing construction (McKeeman '98, which the paper cites):
/// two independently-seeded HDC models vote on every mutant and HDTest
/// searches for inputs where they *disagree* — surfacing decision-boundary
/// fragility without labels and without trusting either model.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>

#include "data/synthetic_digits.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/mutation.hpp"
#include "hdc/classifier.hpp"
#include "util/argparse.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace hdtest;
  util::ArgParser args("cross_model_diff",
                       "Fuzz for disagreements between two HDC models");
  args.add_flag("dim", "4096", "Hypervector dimensionality (both models)");
  args.add_flag("images", "40", "Images to fuzz");
  args.add_flag("strategy", "gauss", "Mutation strategy");
  args.add_flag("seed", "42", "Experiment seed");
  // Every flag is read and converted before any work, so a malformed value
  // exits 1 with one error line.
  std::uint64_t seed = 0;
  std::uint64_t images = 0;
  hdc::ModelConfig config_a;
  std::unique_ptr<fuzz::MutationStrategy> strategy;
  try {
    args.parse(argc, argv);
    if (args.help_requested()) {
      std::cout << args.usage();
      return 0;
    }
    seed = args.get_u64("seed");
    images = args.get_u64("images");
    config_a.dim = args.get_u64("dim");
    strategy = fuzz::make_strategy(args.get("strategy"));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  const auto pair = data::make_digit_train_test(100, 40, seed);

  // Two models, identical architecture and training data, different random
  // item memories — the HDC analogue of two independent implementations.
  config_a.seed = seed;
  hdc::ModelConfig config_b = config_a;
  config_b.seed = seed ^ 0x9e3779b9ULL;

  hdc::HdcClassifier model_a(config_a, 28, 28, 10);
  hdc::HdcClassifier model_b(config_b, 28, 28, 10);
  model_a.fit(pair.train);
  model_b.fit(pair.train);
  std::printf("model A accuracy %.1f%%, model B accuracy %.1f%%\n",
              100.0 * model_a.evaluate(pair.test).accuracy(),
              100.0 * model_b.evaluate(pair.test).accuracy());

  fuzz::FuzzConfig fuzz_config;
  fuzz_config.budget = fuzz::default_budget_for_strategy(strategy->name());
  const fuzz::CrossModelFuzzer fuzzer(model_a, model_b, *strategy, fuzz_config);

  util::Rng master(seed);
  std::size_t findings = 0;
  std::size_t already_disagreed = 0;
  util::RunningStats iterations;
  util::RunningStats l2;
  const auto count = std::min<std::size_t>(images, pair.test.size());
  for (std::size_t i = 0; i < count; ++i) {
    util::Rng rng = master.child(i);
    const auto outcome = fuzzer.fuzz_one(pair.test.images[i], rng);
    if (outcome.skipped) {
      ++already_disagreed;
      continue;
    }
    iterations.add(static_cast<double>(outcome.iterations));
    if (outcome.success) {
      ++findings;
      l2.add(outcome.perturbation.l2);
      if (findings == 1) {
        std::printf(
            "first divergence: image #%zu -> A says %zu, B says %zu "
            "(L2 %.3f, %zu pixels)\n",
            i, outcome.label_a, outcome.label_b, outcome.perturbation.l2,
            outcome.perturbation.pixels_changed);
      }
    }
  }

  std::printf(
      "\n%zu images: %zu already disagreed, %zu divergences fuzzed into "
      "existence (avg %.2f iterations, avg L2 %.3f)\n",
      count, already_disagreed, findings, iterations.mean(), l2.mean());
  std::printf(
      "inputs where independently-seeded models disagree sit on decision\n"
      "boundaries — prime candidates for human review or retraining.\n");
  return 0;
}
