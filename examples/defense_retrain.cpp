/// \file defense_retrain.cpp
/// End-to-end walkthrough of the paper's section V-D defense case study:
/// generate adversarial images with HDTest, retrain the model on half of
/// them (correct labels come from the differential references — still no
/// human labeling), then attack with the held-out half and a fresh HDTest
/// run, reporting both attack-success drops.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>

#include "data/synthetic_digits.hpp"
#include "defense/retrain_defense.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutation.hpp"
#include "hdc/classifier.hpp"
#include "util/argparse.hpp"

int main(int argc, char** argv) {
  using namespace hdtest;
  util::ArgParser args("defense_retrain",
                       "Adversarial defense via HDTest-driven retraining");
  args.add_flag("dim", "4096", "Hypervector dimensionality");
  args.add_flag("pool", "300", "Adversarial pool size to generate");
  args.add_flag("strategy", "gauss", "Mutation strategy for the pool");
  args.add_flag("epochs", "2", "Retraining epochs");
  args.add_flag("fraction", "0.5", "Fraction of the pool used for retraining");
  args.add_flag("seed", "42", "Experiment seed");
  // Every flag is read, converted and validated before any work, so a
  // malformed value exits 1 with one error line.
  std::uint64_t seed = 0;
  hdc::ModelConfig config;
  std::unique_ptr<fuzz::MutationStrategy> strategy;
  fuzz::FuzzConfig fuzz_config;
  fuzz::CampaignConfig campaign_config;
  defense::DefenseConfig defense_config;
  try {
    args.parse(argc, argv);
    if (args.help_requested()) {
      std::cout << args.usage();
      return 0;
    }
    seed = args.get_u64("seed");
    config.dim = args.get_u64("dim");
    config.seed = seed;
    config.validate();
    strategy = fuzz::make_strategy(args.get("strategy"));
    fuzz_config.budget = fuzz::default_budget_for_strategy(strategy->name());
    campaign_config.fuzz = fuzz_config;
    campaign_config.seed = seed;
    campaign_config.target_adversarials = args.get_u64("pool");
    campaign_config.validate();
    defense_config.retrain_fraction = args.get_double("fraction");
    defense_config.epochs = args.get_u64("epochs");
    defense_config.validate();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  try {
    const auto pair = data::make_digit_train_test(100, 40, seed);

    hdc::HdcClassifier model(config, 28, 28, 10);
    model.fit(pair.train);
    std::printf("victim model: accuracy %.1f%%\n",
                100.0 * model.evaluate(pair.test).accuracy());

    // (1) Attack-image generation.
    const fuzz::Fuzzer fuzzer(model, *strategy, fuzz_config);
    const auto campaign =
        fuzz::run_campaign(fuzzer, pair.test, campaign_config);
    if (campaign.gave_up) {
      std::fprintf(stderr,
                   "campaign gave up with %zu/%llu adversarials; pool too "
                   "small for a meaningful defense run\n",
                   campaign.successes(),
                   static_cast<unsigned long long>(
                       campaign_config.target_adversarials));
      return 1;
    }
    const auto pool = defense::collect_adversarials(campaign, 10);
    std::printf("generated %zu adversarial images\n", pool.size());

    // (2) + (3) Retrain on one half, attack with the other.
    const auto result =
        defense::run_defense(model, pool, pair.test, defense_config);

    std::printf(
        "\nheld-out attack:  %.1f%% -> %.1f%% success (drop %.1f points; "
        "paper: > 20)\n",
        100.0 * result.attack_rate_before, 100.0 * result.attack_rate_after,
        100.0 * result.attack_rate_drop());
    std::printf("clean accuracy:   %.1f%% -> %.1f%%\n",
                100.0 * result.clean_accuracy_before,
                100.0 * result.clean_accuracy_after);

    // Extra: how much harder is a *fresh* HDTest attack on the hardened
    // model?
    const fuzz::Fuzzer re_fuzzer(model, *strategy, fuzz_config);
    fuzz::CampaignConfig probe;
    probe.fuzz = fuzz_config;
    probe.max_images = 100;
    probe.seed = seed + 1;
    const auto re_attack = fuzz::run_campaign(re_fuzzer, pair.test, probe);
    std::printf(
        "fresh HDTest run on hardened model: %.1f%% success, avg %.2f "
        "iterations (was ~%.2f)\n",
        100.0 * re_attack.success_rate(), re_attack.avg_iterations(),
        campaign.avg_iterations());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
