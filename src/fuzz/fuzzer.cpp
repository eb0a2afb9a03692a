#include "fuzz/fuzzer.hpp"

#include <span>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace hdtest::fuzz {

void FuzzConfig::validate() const {
  if (iter_times == 0) {
    throw std::invalid_argument("FuzzConfig: iter_times must be >= 1");
  }
  if (seeds_per_iteration == 0) {
    throw std::invalid_argument("FuzzConfig: seeds_per_iteration must be >= 1");
  }
  if (keep_top_n == 0) {
    throw std::invalid_argument("FuzzConfig: keep_top_n must be >= 1");
  }
}

Fuzzer::Fuzzer(const hdc::HdcClassifier& model,
               const MutationStrategy& strategy, FuzzConfig config)
    : model_(&model), strategy_(&strategy), config_(config) {
  config.validate();
  if (!model.trained()) {
    throw std::logic_error("Fuzzer: model must be trained");
  }
}

SeedContext make_seed_context(const hdc::HdcClassifier& model,
                              const data::Image& input) {
  const auto& encoder = model.encoder();
  SeedContext seed;
  seed.base_acc = hdc::Accumulator(encoder.dim());
  encoder.encode_into(input, seed.base_acc);
  seed.reference = seed.base_acc.bipolarize_packed(encoder.tie_break_packed());
  seed.reference_label = model.am().packed().predict(seed.reference);
  return seed;
}

SeedContext Fuzzer::prepare_seed(const data::Image& input) const {
  return make_seed_context(*model_, input);
}

std::vector<SeedContext> Fuzzer::prepare_seeds(
    std::span<const data::Image> inputs, std::size_t workers) const {
  std::vector<SeedContext> seeds(inputs.size());
  util::parallel_for(inputs.size(), workers,
                     [&](std::size_t i) { seeds[i] = prepare_seed(inputs[i]); });
  return seeds;
}

GenerationStep::GenerationStep(const MutationStrategy& strategy,
                               const FuzzConfig& config,
                               const data::Image& original,
                               ScoredSeed first_parent)
    : strategy_(&strategy), config_(&config), original_(&original) {
  parents_.push_back(std::move(first_parent));
}

void GenerationStep::add_model(const hdc::PixelEncoder& encoder,
                               const hdc::Accumulator& base_acc) {
  models_.emplace_back(encoder);
  if (config_->use_incremental_encoder) {
    models_.back().rebase(*original_, base_acc);
  }
  queries_.emplace_back();
}

void GenerationStep::breed(util::Rng& rng, FuzzOutcome& outcome) {
  ++outcome.iterations;
  mutants_.clear();
  perturbations_.clear();
  for (std::size_t s = 0; s < config_->seeds_per_iteration; ++s) {
    data::Image mutant =
        strategy_->mutate(parents_[s % parents_.size()].image, rng);
    // Paper IV: discard mutants beyond the perturbation threshold.
    const auto perturbation = measure_perturbation(*original_, mutant);
    if (!config_->budget.accepts(perturbation)) {
      ++outcome.discarded;
      continue;
    }
    mutants_.push_back(std::move(mutant));
    perturbations_.push_back(perturbation);
  }
  // Packed end to end: no dense Hypervector is materialized and nothing is
  // re-packed via from_dense (asserted by tests/fuzz/dense_free_test).
  for (std::size_t m = 0; m < models_.size(); ++m) {
    queries_[m].clear();
    for (const auto& mutant : mutants_) {
      queries_[m].push_back(config_->use_incremental_encoder
                                ? models_[m].encode_mutant_packed(mutant)
                                : models_[m].encoder().encode_packed(mutant));
    }
  }
  outcome.encodes += mutants_.size() * models_.size();
  fitness_.assign(mutants_.size(), 0.0);
}

void GenerationStep::select(util::Rng& rng) {
  // Line 14: continue with only the fittest seeds. Parents stay in the pool
  // (elitism) so a lucky mutant is never thrown away.
  pool_.clear();
  for (std::size_t b = 0; b < mutants_.size(); ++b) {
    pool_.push_back(ScoredSeed{std::move(mutants_[b]), fitness_[b]});
  }
  for (auto& parent : parents_) pool_.push_back(std::move(parent));
  if (config_->guided) {
    keep_fittest(pool_, config_->keep_top_n);
  } else {
    keep_random(pool_, config_->keep_top_n, rng);
  }
  parents_.swap(pool_);
}

std::size_t judge_against_reference(const hdc::PackedAssocMemory& am,
                                    std::size_t reference,
                                    std::span<const hdc::PackedHv> queries,
                                    std::span<double> fitness,
                                    std::size_t& found_label) {
  // The sweep's reference-class scores are identical doubles to the dense
  // cosine, so no class row is re-walked for fitness.
  const auto sweep = am.predict_block(queries, reference);
  for (std::size_t b = 0; b < queries.size(); ++b) {
    fitness[b] = 1.0 - sweep.ref_scores[b];
    if (sweep.labels[b] != reference) {
      found_label = sweep.labels[b];
      return b;
    }
  }
  return kNoFinding;
}

FuzzOutcome Fuzzer::fuzz_one(const data::Image& input, util::Rng& rng) const {
  return fuzz_one(input, rng, prepare_seed(input));
}

HDTEST_HOT_PATH FuzzOutcome Fuzzer::fuzz_one(const data::Image& input,
                                             util::Rng& rng,
                                             const SeedContext& seed) const {
  const util::Stopwatch watch;
  FuzzOutcome outcome;
  // Line 4: the reference prediction comes from the seed context, still
  // counted as one model query.
  outcome.reference_label = seed.reference_label;
  ++outcome.encodes;

  // The original starts the parent pool with its true fitness, so elitism
  // treats it like any other seed.
  const auto& packed_am = model_->am().packed();
  GenerationStep generation(
      *strategy_, config_, input,
      ScoredSeed{input, fitness_of(packed_am, outcome.reference_label,
                                   seed.reference)});
  generation.add_model(model_->encoder(), seed.base_acc);
  const auto judge = [&](const GenerationStep& step,
                         std::span<double> fitness) {
    return judge_against_reference(packed_am, outcome.reference_label,
                                   step.queries(0), fitness,
                                   outcome.adversarial_label);
  };
  while (outcome.iterations < config_.iter_times &&
         !generation.advance(rng, judge, outcome)) {
  }
  outcome.seconds = watch.seconds();
  return outcome;
}

}  // namespace hdtest::fuzz
