#pragma once
/// \file assoc_memory.hpp
/// Associative memory: one reference hypervector per class (paper III-B/C).
///
/// Training accumulates every training image's HV into its class lane and
/// bipolarizes once per epoch (Eq. 1). Testing computes the similarity of a
/// query HV against every class HV and predicts the argmax. Retraining (the
/// paper's defense, section V-D) re-opens the accumulators, adds the
/// adversarial HVs under their correct labels (optionally subtracting them
/// from the class they were mistaken for), and re-finalizes.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hdc/accumulator.hpp"
#include "hdc/config.hpp"
#include "hdc/packed_assoc_memory.hpp"
#include "hdc/packed_hv.hpp"

namespace hdtest::hdc {

/// Per-class reference hypervectors with integer training accumulators.
class AssociativeMemory {
 public:
  /// \throws std::invalid_argument for zero classes or dim.
  AssociativeMemory(std::size_t num_classes, std::size_t dim, std::uint64_t seed,
                    Similarity similarity = Similarity::kCosine);

  [[nodiscard]] std::size_t num_classes() const noexcept {
    return accumulators_.size();
  }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] Similarity similarity_metric() const noexcept {
    return similarity_;
  }

  /// Adds a sign-bit-packed training HV to class \p cls (weight -1
  /// subtracts, e.g. for perceptron-style retraining). Invalidates
  /// finalization.
  /// \throws std::out_of_range / std::invalid_argument on bad class or dim.
  void add_packed(std::size_t cls, const PackedHv& hv, int weight = 1);

  /// Restores the complete finalized state from a checkpoint: accumulators
  /// plus the packed prototype snapshot, skipping the bipolarize that
  /// finalize() performs (hdc::load_model). \pre \p packed was built from
  /// the accumulators' own bipolarization (the saver guarantees this; a
  /// mismatch would make retraining start from other prototypes).
  /// \throws std::invalid_argument on class/dim/similarity mismatch.
  void restore_finalized(std::vector<Accumulator> accumulators,
                         PackedAssocMemory packed);

  /// Bipolarizes all class accumulators into packed reference HVs (Eq. 1,
  /// zero lanes resolved by a fixed per-seed tie-break HV). Idempotent;
  /// callable again after further add_packed() calls.
  void finalize();

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  /// Raw accumulator for inspection/tests. \throws std::out_of_range.
  [[nodiscard]] const Accumulator& accumulator(std::size_t cls) const;

  /// The packed class HVs (rebuilt by finalize()): the inference engine.
  /// Callers hold onto the reference and issue predict(), similarities()
  /// and predict_batch() calls against it.
  /// \throws std::logic_error before finalize().
  [[nodiscard]] const PackedAssocMemory& packed() const;

 private:
  std::size_t dim_;
  Similarity similarity_;
  std::vector<Accumulator> accumulators_;
  PackedAssocMemory packed_;  ///< rebuilt by finalize()
  PackedHv tie_break_;
  bool finalized_ = false;
};

}  // namespace hdtest::hdc
