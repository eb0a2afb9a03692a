/// \file quickstart.cpp
/// Minimal end-to-end tour of the HDTest library:
///   1. generate a synthetic handwritten-digit dataset (MNIST stand-in);
///   2. train the HDC classifier the paper describes (encode -> bundle ->
///      bipolarize) and report its accuracy;
///   3. serve the model the way a deployment would: save the v3 artifact,
///      mmap it back (hdc::MappedModel — zero-copy, no codebook rebuild),
///      and verify the mapped predictions are bit-identical;
///   4. fuzz a handful of test images with the "gauss" strategy;
///   5. print the first adversarial finding as ASCII art.
///
/// Run: ./quickstart [--dim=4096] [--train=100] [--test=50] [--images=20]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <random>

#include "data/synthetic_digits.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutation.hpp"
#include "fuzz/report.hpp"
#include "hdc/classifier.hpp"
#include "hdc/serialize.hpp"
#include "util/argparse.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace hdtest;
  util::ArgParser args("quickstart", "Train an HDC model and fuzz it");
  args.add_flag("dim", "4096", "Hypervector dimensionality");
  args.add_flag("train", "100", "Training images per class");
  args.add_flag("test", "50", "Test images per class");
  args.add_flag("images", "20", "Images to fuzz");
  args.add_flag("strategy", "gauss", "Mutation strategy");
  args.add_flag("seed", "42", "Experiment seed");
  // Every flag is read and converted before any work, so a malformed value
  // exits 1 with one error line.
  std::uint64_t seed = 0;
  std::uint64_t train_per_class = 0;
  std::uint64_t test_per_class = 0;
  hdc::ModelConfig config;
  std::unique_ptr<fuzz::MutationStrategy> strategy;
  fuzz::CampaignConfig campaign_config;
  try {
    args.parse(argc, argv);
    if (args.help_requested()) {
      std::cout << args.usage();
      return 0;
    }
    seed = args.get_u64("seed");
    train_per_class = args.get_u64("train");
    test_per_class = args.get_u64("test");
    config.dim = args.get_u64("dim");
    strategy = fuzz::make_strategy(args.get("strategy"));
    campaign_config.max_images = args.get_u64("images");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  // 1. Data: synthetic 28x28 digits (drop-in replaceable with real MNIST via
  //    data::load_mnist_dataset — see examples/fuzz_campaign.cpp).
  const auto pair =
      data::make_digit_train_test(train_per_class, test_per_class, seed);
  std::printf("dataset: %zu train / %zu test images\n", pair.train.size(),
              pair.test.size());

  // 2. Model: paper section III with default (random) value memory.
  config.seed = seed;
  hdc::HdcClassifier model(config, 28, 28, 10);

  util::Stopwatch train_watch;
  model.fit(pair.train);
  std::printf("trained D=%zu model in %s\n", config.dim,
              util::format_duration(train_watch.seconds()).c_str());

  const auto eval = model.evaluate(pair.test);
  std::printf("clean test accuracy: %.1f%% (%zu/%zu)\n",
              100.0 * eval.accuracy(), eval.correct, eval.total);

  // Batched inference demo: the packed associative-memory path answers the
  // whole test set in one call, bit-exactly matching per-sample predict()
  // (spot-checked below against a handful of per-sample calls).
  util::Stopwatch batch_watch;
  const auto batch_labels = model.predict_batch(pair.test.images);
  const double batch_seconds = batch_watch.seconds();
  std::size_t checked = std::min<std::size_t>(20, batch_labels.size());
  for (std::size_t i = 0; i < checked; ++i) {
    if (batch_labels[i] != model.predict(pair.test.images[i])) {
      std::fprintf(stderr, "batch/per-sample disagreement on image %zu\n", i);
      return 1;
    }
  }
  std::printf("packed predict_batch over %zu images: %s (bit-exact with "
              "per-sample predict on %zu spot checks)\n",
              batch_labels.size(),
              util::format_duration(batch_seconds).c_str(), checked);

  // 3. Serve: save the v3 artifact, map it read-only, predict through the
  //    mapping. The mapped path re-uses the file's packed codebooks and AM
  //    rows in place — no rebuild, no regeneration from the seed —
  //    and must agree bit-exactly with the in-memory model.
  // Unique per run so concurrent quickstarts on one host don't race on the
  // artifact (portable — no POSIX getpid dependency).
  const auto model_path =
      (std::filesystem::temp_directory_path() /
       ("quickstart_model_" + std::to_string(std::random_device{}()) +
        ".hdtm"))
          .string();
  util::Stopwatch save_watch;
  hdc::save_model(model, model_path);
  const double save_seconds = save_watch.seconds();
  double map_seconds = 0.0;
  std::vector<std::size_t> mapped_labels;
  {
    const util::Stopwatch map_watch;
    const hdc::MappedModel mapped(model_path);
    map_seconds = map_watch.seconds();
    mapped_labels = mapped.predict_batch(pair.test.images);
  }
  std::filesystem::remove(model_path);
  if (mapped_labels != batch_labels) {
    std::fprintf(stderr, "mapped/in-memory disagreement after round-trip\n");
    return 1;
  }
  std::printf("saved v3 model in %s, mapped it in %s; mmap-served "
              "predictions bit-exact over %zu images\n",
              util::format_duration(save_seconds).c_str(),
              util::format_duration(map_seconds).c_str(),
              mapped_labels.size());

  // 4. Fuzz: HDTest with the chosen strategy over a few test images.
  fuzz::FuzzConfig fuzz_config;  // paper defaults: guided, top-3
  // L2 <= 1 for pixel strategies; unlimited for shift (paper section V-B).
  fuzz_config.budget = fuzz::default_budget_for_strategy(strategy->name());
  const fuzz::Fuzzer fuzzer(model, *strategy, fuzz_config);

  campaign_config.fuzz = fuzz_config;
  campaign_config.seed = seed;
  const auto campaign =
      fuzz::run_campaign(fuzzer, pair.test, campaign_config);

  std::printf(
      "\nfuzzed %zu images with '%s': %zu adversarial (%.0f%%), "
      "avg %.2f iterations, avg L1=%.2f, avg L2=%.2f\n",
      campaign.images_fuzzed(), campaign.strategy_name.c_str(),
      campaign.successes(), 100.0 * campaign.success_rate(),
      campaign.avg_iterations(), campaign.avg_l1(), campaign.avg_l2());

  // 5. Show the first finding.
  for (const auto& record : campaign.records) {
    if (!record.outcome.success) continue;
    std::printf(
        "\nfirst finding: image #%zu predicted %zu -> mutant predicted %zu "
        "(%zu pixels changed)\n",
        record.image_index, record.outcome.reference_label,
        record.outcome.adversarial_label,
        record.outcome.perturbation.pixels_changed);
    std::printf("original:\n%s",
                data::ascii_art(pair.test.images[record.image_index]).c_str());
    std::printf("adversarial:\n%s",
                data::ascii_art(record.outcome.adversarial).c_str());
    break;
  }
  return 0;
}
