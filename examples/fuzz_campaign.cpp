/// \file fuzz_campaign.cpp
/// Full HDTest campaign driver with every knob exposed on the CLI.
///
/// Examples:
///   ./fuzz_campaign --strategy=rand --images=200 --csv=out.csv
///   ./fuzz_campaign --strategy=gauss+shift --dim=10000 --workers=8
///   ./fuzz_campaign --target=1000 --strategy=gauss        # paper-style run
///   ./fuzz_campaign --mnist-dir=/data/mnist --images=500  # real MNIST
///
/// Both modes (sweep and --target) run on the sharded work-stealing runtime
/// and scale with --workers; records are bit-identical for any worker count.
///
/// With --mnist-dir the campaign runs on real MNIST IDX files (the paper's
/// dataset); otherwise the synthetic digit generator is used.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "data/idx.hpp"
#include "data/synthetic_digits.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutation.hpp"
#include "fuzz/report.hpp"
#include "hdc/classifier.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/argparse.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace hdtest;
  util::ArgParser args("fuzz_campaign", "Run a full HDTest fuzzing campaign");
  args.add_flag("strategy", "gauss",
                "Mutation strategy (row_rand|col_rand|row_col_rand|rand|gauss|"
                "shift or composites like gauss+shift)");
  args.add_flag("dim", "4096", "Hypervector dimensionality");
  args.add_flag("value-memory", "random",
                "Value item memory: random|level|thermometer");
  args.add_flag("train", "100", "Training images per class (synthetic)");
  args.add_flag("test", "40", "Test images per class (synthetic)");
  args.add_flag("images", "100", "Images to fuzz (sweep mode)");
  args.add_flag("target", "0",
                "Stop after this many adversarials (0 = sweep mode)");
  args.add_flag("iter-times", "30", "Max fuzzing iterations per input");
  args.add_flag("seeds-per-iter", "10", "Mutants generated per iteration");
  args.add_flag("top-n", "3", "Fittest seeds kept per iteration (paper: 3)");
  args.add_flag("max-l2", "1.0",
                "Perturbation budget (normalized L2; 0 disables; shift "
                "defaults to disabled)");
  args.add_flag("workers", "4",
                "Campaign worker threads (sweep AND target mode; results "
                "identical for any count)");
  args.add_flag("max-streams", "0",
                "Target mode give-up valve: stop after this many inputs "
                "fuzzed (0 = legacy formula)");
  args.add_flag("seed", "42", "Experiment seed");
  args.add_flag("csv", "", "Write per-record CSV to this path");
  args.add_flag("dump-dir", "", "Dump sample PGM triples into this directory");
  args.add_flag("mnist-dir", "",
                "Directory with MNIST IDX files (uses real MNIST instead of "
                "the synthetic digits)");
  args.add_bool("unguided", "Disable distance guidance (baseline mode)");
  args.add_bool("verbose", "Enable info logging");
  args.add_flag("metrics-out", "",
                "Write the final Prometheus exposition of all campaign "
                "metrics to this file (empty = off)");
  args.add_flag("trace-out", "",
                "Write a Chrome trace_event JSON timeline of slice sweeps "
                "to this file (empty = off)");

  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }
  if (args.get_bool("verbose")) {
    util::set_log_level(util::LogLevel::kInfo);
  }
  if (!args.get("metrics-out").empty()) obs::set_enabled(true);
  if (!args.get("trace-out").empty()) {
    obs::set_enabled(true);
    obs::set_trace_enabled(true);
  }

  try {
    // Every flag is read and converted before any data is generated or a
    // model trained, so a malformed value fails in milliseconds.
    const auto seed = args.get_u64("seed");
    const auto train_per_class = args.get_u64("train");
    const auto test_per_class = args.get_u64("test");
    hdc::ModelConfig model_config;
    model_config.dim = args.get_u64("dim");
    model_config.seed = seed;
    model_config.value_strategy =
        hdc::parse_value_strategy(args.get("value-memory"));

    const auto strategy = fuzz::make_strategy(args.get("strategy"));
    fuzz::FuzzConfig fuzz_config;
    fuzz_config.iter_times = args.get_u64("iter-times");
    fuzz_config.seeds_per_iteration = args.get_u64("seeds-per-iter");
    fuzz_config.keep_top_n = args.get_u64("top-n");
    fuzz_config.guided = !args.get_bool("unguided");
    if (args.was_set("max-l2")) {
      const double max_l2 = args.get_double("max-l2");
      if (!std::isfinite(max_l2) || max_l2 < 0) {
        throw std::invalid_argument(
            "--max-l2 must be a finite value >= 0 (0 disables the limit)");
      }
      if (max_l2 > 0) {
        fuzz_config.budget.max_l2 = max_l2;
      } else {
        fuzz_config.budget = fuzz::PerturbationBudget::unlimited();
      }
    } else {
      fuzz_config.budget =
          fuzz::default_budget_for_strategy(strategy->name());
    }

    fuzz::CampaignConfig campaign_config;
    campaign_config.fuzz = fuzz_config;
    campaign_config.max_images = args.get_u64("images");
    campaign_config.target_adversarials = args.get_u64("target");
    campaign_config.workers = args.get_u64("workers");
    campaign_config.max_streams = args.get_u64("max-streams");
    campaign_config.seed = seed;
    campaign_config.validate();

    // Data: real MNIST when provided, synthetic otherwise.
    data::Dataset train;
    data::Dataset test;
    if (const auto dir = args.get("mnist-dir"); !dir.empty()) {
      train = data::load_mnist_dataset(dir, /*train=*/true);
      test = data::load_mnist_dataset(dir, /*train=*/false);
      std::printf("loaded MNIST from %s: %zu train / %zu test\n", dir.c_str(),
                  train.size(), test.size());
    } else {
      const auto pair =
          data::make_digit_train_test(train_per_class, test_per_class, seed);
      train = pair.train;
      test = pair.test;
      std::printf("synthetic digits: %zu train / %zu test\n", train.size(),
                  test.size());
    }

    // Model.
    hdc::HdcClassifier model(model_config, train.images.front().width(),
                             train.images.front().height(),
                             static_cast<std::size_t>(train.num_classes));
    util::Stopwatch watch;
    model.fit(train);
    std::printf("model: D=%zu, trained in %s, accuracy %.1f%%\n",
                model_config.dim, util::format_duration(watch.seconds()).c_str(),
                100.0 * model.evaluate(test).accuracy());

    const fuzz::Fuzzer fuzzer(model, *strategy, fuzz_config);

    std::printf("fuzzing with '%s' (budget %s, %s)...\n",
                strategy->name().c_str(), fuzz_config.budget.to_string().c_str(),
                fuzz_config.guided ? "guided" : "unguided");
    const auto campaign = fuzz::run_campaign(fuzzer, test, campaign_config);

    std::printf("\n%s\n", fuzz::render_strategy_table({campaign}).c_str());
    std::printf("%s\n", fuzz::render_per_class_table(
                            campaign,
                            static_cast<std::size_t>(test.num_classes))
                            .c_str());

    if (const auto csv = args.get("csv"); !csv.empty()) {
      fuzz::write_records_csv(campaign, csv);
      std::printf("records written to %s\n", csv.c_str());
    }
    if (const auto dir = args.get("dump-dir"); !dir.empty()) {
      std::printf("%s", fuzz::dump_samples(campaign, test, dir,
                                           strategy->name(), 8)
                            .c_str());
    }
    if (const auto path = args.get("metrics-out"); !path.empty()) {
      const auto text =
          obs::render_prometheus(obs::Registry::global().snapshot());
      if (obs::write_text_file(path, text)) {
        std::printf("metrics exposition written to %s\n", path.c_str());
      } else {
        std::cerr << "warning: metrics exposition write failed: " << path
                  << "\n";
      }
    }
    if (const auto path = args.get("trace-out"); !path.empty()) {
      if (obs::write_chrome_trace(path)) {
        std::printf("trace timeline written to %s\n", path.c_str());
      } else {
        std::cerr << "warning: trace export write failed: " << path << "\n";
      }
    }

    if (campaign.gave_up) {
      std::cerr << "error: campaign gave up before reaching the target ("
                << campaign.successes() << "/"
                << campaign_config.target_adversarials
                << " adversarials after fuzzing " << campaign.images_fuzzed()
                << " inputs); raise --max-streams or loosen the budget\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
