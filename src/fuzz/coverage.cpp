#include "fuzz/coverage.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "fuzz/fitness.hpp"
#include "util/timer.hpp"

namespace hdtest::fuzz {

NoveltyArchive::NoveltyArchive(double add_threshold, std::size_t max_size)
    : add_threshold_(add_threshold), max_size_(max_size) {
  if (add_threshold < 0.0 || add_threshold > 2.0) {
    throw std::invalid_argument(
        "NoveltyArchive: add_threshold must be in [0, 2]");
  }
}

double NoveltyArchive::novelty(const hdc::PackedHv& query) const {
  double best = 2.0;
  for (const auto& entry : entries_) {
    const double distance = 1.0 - cosine(query, entry);
    if (distance < best) best = distance;
  }
  return best;
}

double NoveltyArchive::observe(const hdc::PackedHv& query) {
  const double score = novelty(query);
  if (score >= add_threshold_) add(query);
  return score;
}

void NoveltyArchive::add(const hdc::PackedHv& query) {
  if (max_size_ == 0 || entries_.size() < max_size_) {
    entries_.push_back(query);
  }
}

CoverageFuzzer::CoverageFuzzer(const hdc::HdcClassifier& model,
                               const MutationStrategy& strategy,
                               FuzzConfig config, double novelty_weight,
                               double archive_threshold)
    : model_(&model),
      strategy_(&strategy),
      config_(config),
      novelty_weight_(novelty_weight),
      archive_(archive_threshold) {
  config.validate();
  if (!model.trained()) {
    throw std::logic_error("CoverageFuzzer: model must be trained");
  }
  if (novelty_weight < 0.0 || novelty_weight > 1.0) {
    throw std::invalid_argument(
        "CoverageFuzzer: novelty_weight must be in [0, 1]");
  }
}

CoverageOutcome CoverageFuzzer::fuzz_one(const data::Image& input,
                                         util::Rng& rng) {
  const util::Stopwatch watch;
  CoverageOutcome outcome;
  auto& base = outcome.base;
  const std::size_t archive_before = archive_.size();

  const auto seed = make_seed_context(*model_, input);
  base.reference_label = seed.reference_label;
  ++base.encodes;
  archive_.add(seed.reference);  // seed the corpus with the clean input

  const auto& packed_am = model_->am().packed();
  GenerationStep generation(
      *strategy_, config_, input,
      ScoredSeed{input, fitness_of(packed_am, base.reference_label,
                                   seed.reference)});
  generation.add_model(model_->encoder(), seed.base_acc);
  // Fuzzer's judge, then the blended objective: class-distance fitness +
  // representation novelty. The archive observes mutants in generation
  // order up to the finding, exactly as a one-at-a-time loop would.
  const auto judge = [&](const GenerationStep& step,
                         std::span<double> fitness) {
    const auto queries = step.queries(0);
    const std::size_t found =
        judge_against_reference(packed_am, base.reference_label, queries,
                                fitness, base.adversarial_label);
    for (std::size_t b = 0; b < std::min(found, queries.size()); ++b) {
      const double novelty = archive_.observe(queries[b]) / 2.0;  // -> [0, 1]
      fitness[b] =
          (1.0 - novelty_weight_) * fitness[b] + novelty_weight_ * novelty;
    }
    return found;
  };
  while (base.iterations < config_.iter_times &&
         !generation.advance(rng, judge, base)) {
  }
  base.seconds = watch.seconds();
  outcome.archive_growth = archive_.size() - archive_before;
  return outcome;
}

}  // namespace hdtest::fuzz
