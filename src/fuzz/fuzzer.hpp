#pragma once
/// \file fuzzer.hpp
/// HDTest's per-input differential fuzz loop — Algorithm 1 of the paper.
///
/// For one unlabeled input t:
///   1. y = HDC(t)                          (reference label, no ground truth)
///   2. repeat up to iter_times:
///        generate mutant seeds from the surviving parents;
///        discard seeds whose perturbation exceeds the budget;
///        if any seed's prediction differs from y -> adversarial found;
///        otherwise keep only the top-N fittest seeds
///          (fitness = 1 - Cosim(AM[y], HDC(seed)))
///        and continue.
///
/// The differential oracle (prediction of mutant vs prediction of original)
/// removes any need for manual labeling. Setting FuzzConfig::guided = false
/// replaces fittest-selection with uniform selection — the unguided baseline
/// behind the paper's "12% faster on average" claim.
///
/// The loop body is GenerationStep, the one generation step every image
/// fuzzer runs; each contributes only a judge (oracle + fitness):
///   Fuzzer                 label != y;          1 - Cosim(AM[y], q)
///   CrossModelFuzzer       label_a != label_b;  1 - (Cosim_a + Cosim_b) / 2
///   CoverageFuzzer         Fuzzer's judge, fitness blended with novelty
///   run_scheduled_campaign Fuzzer's judge, stopped by an encode budget

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "data/image.hpp"
#include "fuzz/distance.hpp"
#include "fuzz/fitness.hpp"
#include "fuzz/mutation.hpp"
#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "hdc/packed_hv.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace hdtest::fuzz {

/// Tuning knobs of Algorithm 1.
struct FuzzConfig {
  /// Maximum fuzzing iterations per input (Algorithm 1's iter_times).
  std::size_t iter_times = 30;

  /// Mutant seeds generated per iteration (spread round-robin over the
  /// surviving parents).
  std::size_t seeds_per_iteration = 10;

  /// Survivors per iteration — the paper's top-N with N = 3.
  std::size_t keep_top_n = 3;

  /// Perturbation limits; out-of-budget mutants are discarded (paper IV).
  PerturbationBudget budget;

  /// Distance-guided (paper) vs unguided (baseline) seed survival.
  bool guided = true;

  /// Use the delta re-encoder (exact, faster for sparse mutations). Results
  /// are bit-identical either way; this only affects speed.
  bool use_incremental_encoder = true;

  /// \throws std::invalid_argument on a zero size, or on an engaged budget
  /// limit that is NaN, infinite or negative.
  void validate() const;
};

/// Result of fuzzing one input image.
struct FuzzOutcome {
  bool success = false;             ///< adversarial input found
  data::Image adversarial;          ///< valid when success
  std::size_t reference_label = 0;  ///< HDC(t) — the differential reference
  std::size_t adversarial_label = 0;///< HDC(t') when success
  std::size_t iterations = 0;       ///< fuzzing iterations executed
  Perturbation perturbation;        ///< original -> adversarial (when success)
  /// Model queries spent (cost metric): the reference plus every
  /// budget-surviving mutant, the whole final generation included.
  std::size_t encodes = 0;
  /// Mutants rejected by the budget, the whole final generation included.
  std::size_t discarded = 0;
  double seconds = 0.0;             ///< wall time for this input
};

/// Precomputed full-encode state of one seed input (Fuzzer::prepare_seed).
///
/// Holds the input's full-encode results: its encode_into lanes, its packed
/// query HV, and the reference label. The sharded campaign runtime caches
/// one per input (shard::SeedBank) and shares it across workers and
/// wrap-arounds. The delta re-encoder only validates the lanes: it builds
/// the input's slice bank from the image, once per fuzz_one, on the first
/// sparse mutant.
/// Contract: fuzz_one(input, rng) and fuzz_one(input, rng, seed) return
/// bit-identical outcomes (modulo wall-clock) — the context is purely a
/// cache, which is what lets shards fall back to inline encoding when a
/// context is still being built elsewhere.
struct SeedContext {
  hdc::Accumulator base_acc;        ///< encode_into(input) lanes
  hdc::PackedHv reference;          ///< packed query HV of the input
  std::size_t reference_label = 0;  ///< HDC(t) — the differential reference
};

/// Full-encodes \p input under \p model into a seed context
/// (Fuzzer::prepare_seed; the other image fuzzers' reference queries).
[[nodiscard]] SeedContext make_seed_context(const hdc::HdcClassifier& model,
                                            const data::Image& input);

/// Judge verdict for a generation without a finding.
inline constexpr std::size_t kNoFinding = static_cast<std::size_t>(-1);

/// One generation of Algorithm 1: mutate the parents round-robin, drop
/// out-of-budget mutants, packed-encode the survivors once per model, hand
/// them to a judge, and with no finding keep the top N of mutants + parents
/// (keep_fittest when guided, keep_random otherwise).
///
/// With the delta encoder, every seed but the first parent holds one bank
/// slot, and slot k of each model's pool is that seed's hdc::SliceBank, so
/// a mutant is patched only where it differs from its parent. The pool has
/// seeds_per_iteration + keep_top_n slots per model, reused across
/// generations.
/// Single-threaded: one instance per fuzzed input.
class GenerationStep {
 public:
  /// \p strategy, \p config and \p original (the base of perturbations and
  /// delta encodes) must outlive the step.
  GenerationStep(const MutationStrategy& strategy, const FuzzConfig& config,
                 const data::Image& original, ScoredSeed first_parent);

  /// Adds a model whose queries the judge reads as queries(m), m counting
  /// registrations; \p base_acc is encode_into(original) under \p encoder.
  void add_model(const hdc::PixelEncoder& encoder,
                 const hdc::Accumulator& base_acc);

  /// Runs one generation, counting its iterations, encodes (per model) and
  /// discards in \p outcome. judge(*this, fitness) returns the first finding
  /// in generation order, or kNoFinding after writing one fitness per
  /// mutant. On a finding, sets outcome.success/adversarial/perturbation and
  /// returns true.
  template <typename Judge>
  bool advance(util::Rng& rng, Judge&& judge, FuzzOutcome& outcome) {
    breed(rng, outcome);
    const std::size_t found =
        judge(std::as_const(*this), std::span<double>(fitness_));
    if (found == kNoFinding) {
      select(rng);
      return false;
    }
    outcome.success = true;
    outcome.adversarial = std::move(mutants_[found]);
    outcome.perturbation = perturbations_[found];
    return true;
  }

  [[nodiscard]] std::span<const hdc::PackedHv> queries(std::size_t m) const {
    return queries_[m];
  }
  /// Surviving parents, fittest first when guided.
  [[nodiscard]] const std::vector<ScoredSeed>& parents() const noexcept {
    return parents_;
  }

 private:
  /// Slot of a seed that holds no bank (the first parent).
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  void breed(util::Rng& rng, FuzzOutcome& outcome);
  void select(util::Rng& rng);
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return config_->seeds_per_iteration + config_->keep_top_n;
  }
  /// Model \p m's bank at \p slot; a disengaged bank for kNoSlot.
  [[nodiscard]] const hdc::SliceBank& bank_at(std::size_t m,
                                              std::size_t slot) const;

  const MutationStrategy* strategy_;
  const FuzzConfig* config_;
  const data::Image* original_;
  std::vector<hdc::IncrementalPixelEncoder> models_;
  /// Per model, the bank pool indexed by slot.
  std::vector<std::vector<hdc::SliceBank>> banks_;
  hdc::SliceBank no_bank_;
  std::vector<ScoredSeed> parents_;
  std::vector<std::size_t> parent_slots_;
  std::vector<std::size_t> free_slots_;
  // Per-generation scratch, reused across generations.
  std::vector<data::Image> mutants_;
  std::vector<std::size_t> mutant_parents_;
  std::vector<std::size_t> mutant_slots_;
  std::vector<Perturbation> perturbations_;
  std::vector<std::vector<hdc::PackedHv>> queries_;
  std::vector<double> fitness_;
  std::vector<double> pool_fitness_;
  std::vector<std::size_t> kept_;
  std::vector<ScoredSeed> next_parents_;
  std::vector<std::size_t> next_slots_;
};

/// Fuzzer's judge: one predict_block sweep, fitness[b] = 1 - Cosim(AM[y],
/// q_b), and the first mutant whose label differs from \p reference (label
/// written to \p found_label), or kNoFinding.
[[nodiscard]] std::size_t judge_against_reference(
    const hdc::PackedAssocMemory& am, std::size_t reference,
    std::span<const hdc::PackedHv> queries, std::span<double> fitness,
    std::size_t& found_label);

/// The HDTest fuzzer bound to one model and one mutation strategy.
///
/// Thread-safety: fuzz_one() is const and creates all mutable state locally,
/// so a single Fuzzer may run on many threads with per-thread Rngs.
class Fuzzer {
 public:
  /// \param model    trained classifier under test (must outlive the fuzzer)
  /// \param strategy mutation strategy (must outlive the fuzzer)
  /// \throws std::invalid_argument on bad config; std::logic_error when the
  ///         model is untrained.
  Fuzzer(const hdc::HdcClassifier& model, const MutationStrategy& strategy,
         FuzzConfig config);

  [[nodiscard]] const FuzzConfig& config() const noexcept { return config_; }
  [[nodiscard]] const MutationStrategy& strategy() const noexcept {
    return *strategy_;
  }

  /// Full-encodes one input into its reusable seed context (bit-sliced
  /// kernel; one model query's worth of work).
  [[nodiscard]] SeedContext prepare_seed(const data::Image& input) const;

  /// Campaign seed warm-up: prepare_seed for every input, parallelized over
  /// \p workers threads (deterministic per index).
  [[nodiscard]] std::vector<SeedContext> prepare_seeds(
      std::span<const data::Image> inputs, std::size_t workers = 1) const;

  /// Runs Algorithm 1 on one input. \p rng drives all mutation randomness;
  /// pass independent child Rngs for reproducible parallel campaigns.
  [[nodiscard]] FuzzOutcome fuzz_one(const data::Image& input,
                                     util::Rng& rng) const;

  /// Same, reusing a prepared seed context (campaigns warm one per input).
  /// This overload is the campaign steady state, so it carries the
  /// hdtest-dense-free hot-path contract: no explicit allocation anywhere
  /// in its static call tree.
  /// \pre seed was produced by prepare_seed(input) on this fuzzer's model.
  HDTEST_HOT_PATH [[nodiscard]] FuzzOutcome fuzz_one(
      const data::Image& input, util::Rng& rng, const SeedContext& seed) const;

 private:
  const hdc::HdcClassifier* model_;
  const MutationStrategy* strategy_;
  FuzzConfig config_;
};

}  // namespace hdtest::fuzz
