#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <cmath>
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
  for (const auto& limit : {budget.max_l1, budget.max_l2, budget.max_linf}) {
    if (limit && !(std::isfinite(*limit) && *limit >= 0.0)) {
      throw std::invalid_argument(
          "FuzzConfig: budget limits must be finite and >= 0");
    }
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
  parent_slots_.push_back(kNoSlot);
  for (std::size_t slot = slot_count(); slot-- > 0;) {
    free_slots_.push_back(slot);
  }
}

void GenerationStep::add_model(const hdc::PixelEncoder& encoder,
                               const hdc::Accumulator& base_acc) {
  models_.emplace_back(encoder);
  if (config_->use_incremental_encoder) {
    models_.back().rebase(*original_, base_acc);
    banks_.emplace_back(slot_count());
  }
  queries_.emplace_back();
}

const hdc::SliceBank& GenerationStep::bank_at(std::size_t m,
                                              std::size_t slot) const {
  return slot == kNoSlot ? no_bank_ : banks_[m][slot];
}

void GenerationStep::breed(util::Rng& rng, FuzzOutcome& outcome) {
  ++outcome.iterations;
  mutants_.clear();
  mutant_parents_.clear();
  mutant_slots_.clear();
  perturbations_.clear();
  for (std::size_t s = 0; s < config_->seeds_per_iteration; ++s) {
    const std::size_t parent = s % parents_.size();
    data::Image mutant = strategy_->mutate(parents_[parent].image, rng);
    // Paper IV: discard mutants beyond the perturbation threshold.
    const auto perturbation = measure_perturbation(*original_, mutant);
    if (!config_->budget.accepts(perturbation)) {
      ++outcome.discarded;
      continue;
    }
    mutants_.push_back(std::move(mutant));
    mutant_parents_.push_back(parent);
    // Parents hold at most keep_top_n slots, so seeds_per_iteration are
    // always free here.
    mutant_slots_.push_back(free_slots_.back());
    free_slots_.pop_back();
    perturbations_.push_back(perturbation);
  }
  // Packed end to end: delta or full packed encodes, then one blocked AM
  // sweep per model (asserted by tests/fuzz/dense_free_test).
  for (std::size_t m = 0; m < models_.size(); ++m) {
    queries_[m].clear();
    for (std::size_t b = 0; b < mutants_.size(); ++b) {
      if (!config_->use_incremental_encoder) {
        queries_[m].push_back(models_[m].encoder().encode_packed(mutants_[b]));
        continue;
      }
      const std::size_t parent = mutant_parents_[b];
      queries_[m].push_back(models_[m].encode_child_packed(
          mutants_[b], parents_[parent].image,
          bank_at(m, parent_slots_[parent]), banks_[m][mutant_slots_[b]]));
    }
  }
  outcome.encodes += mutants_.size() * models_.size();
  fitness_.assign(mutants_.size(), 0.0);
}

void GenerationStep::select(util::Rng& rng) {
  // Line 14: continue with only the fittest seeds. Parents stay in the pool
  // (elitism) so a lucky mutant is never thrown away. The pool is mutants
  // then parents, as keep_fittest/keep_random see it; selecting indices
  // carries each survivor's bank slot along.
  const std::size_t offspring = mutants_.size();
  const std::size_t pool_size = offspring + parents_.size();
  if (config_->guided) {
    pool_fitness_.assign(fitness_.begin(), fitness_.end());
    for (const auto& parent : parents_) pool_fitness_.push_back(parent.fitness);
    fittest_indices(pool_fitness_, config_->keep_top_n, kept_);
  } else {
    random_indices(pool_size, config_->keep_top_n, rng, kept_);
  }
  next_parents_.clear();
  next_slots_.clear();
  for (const std::size_t i : kept_) {
    if (i < offspring) {
      next_parents_.push_back(ScoredSeed{std::move(mutants_[i]), fitness_[i]});
      next_slots_.push_back(mutant_slots_[i]);
    } else {
      next_parents_.push_back(std::move(parents_[i - offspring]));
      next_slots_.push_back(parent_slots_[i - offspring]);
    }
  }
  parents_.swap(next_parents_);
  parent_slots_.swap(next_slots_);
  // Every slot no survivor holds goes back to the free list.
  free_slots_.clear();
  for (std::size_t slot = 0; slot < slot_count(); ++slot) {
    if (std::find(parent_slots_.begin(), parent_slots_.end(), slot) ==
        parent_slots_.end()) {
      free_slots_.push_back(slot);
    }
  }
}

std::size_t judge_against_reference(const hdc::PackedAssocMemory& am,
                                    std::size_t reference,
                                    std::span<const hdc::PackedHv> queries,
                                    std::span<double> fitness,
                                    std::size_t& found_label) {
  // The sweep's reference-class scores are identical doubles to
  // similarity_to, so no class row is re-walked for fitness.
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
