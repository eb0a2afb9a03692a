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

#include "hdc/config.hpp"
#include "hdc/hypervector.hpp"
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

  /// Adds a training HV to class \p cls (weight -1 subtracts, e.g. for
  /// perceptron-style retraining). Invalidates finalization.
  /// \throws std::out_of_range for a bad class index.
  void add(std::size_t cls, const Hypervector& hv, int weight = 1);

  /// Packed counterpart of add(): identical integer lane updates from a
  /// sign-bit-packed HV, so cached packed queries can train/retrain without
  /// a dense unpack. Invalidates finalization.
  /// \throws std::out_of_range / std::invalid_argument on bad class or dim.
  void add_packed(std::size_t cls, const PackedHv& hv, int weight = 1);

  /// Restores the complete finalized state from a checkpoint: accumulators
  /// plus the packed prototype snapshot, skipping the bipolarize + dense->
  /// packed rebuild that finalize() performs (hdc::load_model). The
  /// dense class HVs are unpacked from the snapshot — exact, because packed
  /// rows are lossless images of the bipolar prototypes. \pre \p packed was
  /// built from the accumulators' own bipolarization (the saver guarantees
  /// this; a mismatch would desync the dense and packed prediction paths).
  /// \throws std::invalid_argument on class/dim/similarity mismatch.
  void restore_finalized(std::vector<Accumulator> accumulators,
                         PackedAssocMemory packed);

  /// Bipolarizes all class accumulators into reference HVs (Eq. 1).
  /// Idempotent; callable again after further add() calls.
  void finalize();

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  /// The reference HV of a class. \throws std::logic_error before finalize().
  [[nodiscard]] const Hypervector& class_hv(std::size_t cls) const;

  /// Raw accumulator for inspection/tests. \throws std::out_of_range.
  [[nodiscard]] const Accumulator& accumulator(std::size_t cls) const;

  /// Similarity of \p query against every class (cosine or normalized
  /// Hamming similarity per the configured metric).
  /// \throws std::logic_error before finalize().
  [[nodiscard]] std::vector<double> similarities(const Hypervector& query) const;

  /// Argmax class for \p query (ties break toward the lower class index,
  /// which is deterministic and documented).
  [[nodiscard]] std::size_t predict(const Hypervector& query) const;

  /// Similarity between \p query and one specific class's reference HV.
  [[nodiscard]] double similarity_to(std::size_t cls, const Hypervector& query) const;

  /// Fast path: argmax over the bit-packed class HVs (cached at finalize()).
  /// Bit-identical ranking to predict() — packed dot equals dense dot for
  /// bipolar HVs — at a fraction of the memory traffic. The caller packs the
  /// query once (PackedHv::from_dense) and may reuse it across queries.
  [[nodiscard]] std::size_t predict_packed(const PackedHv& query) const;

  /// Packed similarity vector (same values as similarities() under cosine;
  /// Hamming-normalized under kHamming).
  [[nodiscard]] std::vector<double> similarities_packed(const PackedHv& query) const;

  /// The packed snapshot backing the fast path (rebuilt by finalize()).
  /// This is the batch-inference engine: callers hold onto the reference and
  /// issue predict_batch() calls against it.
  /// \throws std::logic_error before finalize().
  [[nodiscard]] const PackedAssocMemory& packed() const;

 private:
  std::size_t dim_;
  Similarity similarity_;
  std::vector<Accumulator> accumulators_;
  std::vector<Hypervector> class_hvs_;
  PackedAssocMemory packed_;  ///< cache rebuilt by finalize()
  Hypervector tie_break_;
  bool finalized_ = false;
};

}  // namespace hdtest::hdc
