#include "fuzz/differential.hpp"

#include <span>
#include <stdexcept>
#include <utility>

namespace hdtest::fuzz {

CrossModelFuzzer::CrossModelFuzzer(const hdc::HdcClassifier& model_a,
                                   const hdc::HdcClassifier& model_b,
                                   const MutationStrategy& strategy,
                                   FuzzConfig config)
    : model_a_(&model_a),
      model_b_(&model_b),
      strategy_(&strategy),
      config_(config) {
  config.validate();
  if (!model_a.trained() || !model_b.trained()) {
    throw std::logic_error("CrossModelFuzzer: both models must be trained");
  }
  if (model_a.encoder().width() != model_b.encoder().width() ||
      model_a.encoder().height() != model_b.encoder().height()) {
    throw std::invalid_argument("CrossModelFuzzer: image shape mismatch");
  }
  if (model_a.num_classes() != model_b.num_classes()) {
    throw std::invalid_argument("CrossModelFuzzer: class count mismatch");
  }
}

CrossModelOutcome CrossModelFuzzer::fuzz_one(const data::Image& input,
                                             util::Rng& rng) const {
  CrossModelOutcome outcome;

  const auto seed_a = make_seed_context(*model_a_, input);
  const auto seed_b = make_seed_context(*model_b_, input);
  outcome.encodes += 2;
  if (seed_a.reference_label != seed_b.reference_label) {
    outcome.skipped = true;
    outcome.label_a = seed_a.reference_label;
    outcome.label_b = seed_b.reference_label;
    return outcome;
  }

  // The original starts with score 0: any mutant that moved toward the
  // joint boundary outranks it.
  GenerationStep generation(*strategy_, config_, input, ScoredSeed{input, 0.0});
  generation.add_model(model_a_->encoder(), seed_a.base_acc);
  generation.add_model(model_b_->encoder(), seed_b.base_acc);
  const auto& am_a = model_a_->am().packed();
  const auto& am_b = model_b_->am().packed();
  const auto judge = [&](const GenerationStep& step,
                         std::span<double> fitness) {
    const auto sweep_a =
        am_a.predict_block(step.queries(0), seed_a.reference_label);
    const auto sweep_b =
        am_b.predict_block(step.queries(1), seed_b.reference_label);
    for (std::size_t b = 0; b < fitness.size(); ++b) {
      fitness[b] = 1.0 - 0.5 * (sweep_a.ref_scores[b] + sweep_b.ref_scores[b]);
      if (sweep_a.labels[b] != sweep_b.labels[b]) {
        outcome.label_a = sweep_a.labels[b];
        outcome.label_b = sweep_b.labels[b];
        return b;
      }
    }
    return kNoFinding;
  };
  FuzzOutcome loop;
  while (loop.iterations < config_.iter_times &&
         !generation.advance(rng, judge, loop)) {
  }
  outcome.success = loop.success;
  outcome.divergent = std::move(loop.adversarial);
  outcome.perturbation = loop.perturbation;
  outcome.iterations = loop.iterations;
  outcome.encodes += loop.encodes;
  return outcome;
}

}  // namespace hdtest::fuzz
