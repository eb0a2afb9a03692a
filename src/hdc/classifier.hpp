#pragma once
/// \file classifier.hpp
/// The complete HDC image classifier under test (paper section III).
///
/// HdcClassifier ties together the pixel encoder and the associative memory:
/// fit() performs the paper's one-epoch training (encode every image, bundle
/// into its class lane, bipolarize); predict()/similarities() implement the
/// testing phase; retrain() implements the update used both by accuracy
/// refinement and by the adversarial-defense case study (section V-D).

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "data/image.hpp"
#include "hdc/assoc_memory.hpp"
#include "hdc/config.hpp"
#include "hdc/encoder.hpp"

namespace hdtest::hdc {

/// How retrain() updates the associative memory for a labeled example.
enum class RetrainMode {
  /// Add the example's HV to its correct class only (the paper's wording:
  /// "feed adversarial images with correct labels to retrain").
  kAddOnly,
  /// Perceptron-style: additionally subtract the HV from the class the model
  /// currently (mis)predicts — the standard HDC retraining rule, strictly
  /// stronger in practice (ablated in bench/fig8_defense).
  kAddSubtract,
};

/// Classification accuracy plus error census over a dataset.
struct EvalResult {
  std::size_t total = 0;
  std::size_t correct = 0;
  /// confusion[i][j] counts true class i predicted as class j.
  std::vector<std::vector<std::size_t>> confusion;

  [[nodiscard]] double accuracy() const noexcept {
    return total == 0 ? 0.0
                      : static_cast<double>(correct) / static_cast<double>(total);
  }
};

/// An HDC image classifier (encoder + associative memory).
///
/// Thread-safety: after fit(), all const member functions are safe to call
/// concurrently (they only read immutable state).
class HdcClassifier {
 public:
  /// Constructs an untrained model for images of the given shape.
  /// \throws std::invalid_argument on bad config/shape/class count.
  HdcClassifier(const ModelConfig& config, std::size_t width, std::size_t height,
                std::size_t num_classes);

  [[nodiscard]] const ModelConfig& config() const noexcept {
    return encoder_.config();
  }
  [[nodiscard]] std::size_t num_classes() const noexcept {
    return am_.num_classes();
  }
  [[nodiscard]] const PixelEncoder& encoder() const noexcept { return encoder_; }
  [[nodiscard]] const AssociativeMemory& am() const noexcept { return am_; }

  /// One-epoch one-shot training (paper III-B). May be called once; use
  /// retrain() for subsequent updates. Encoding runs through the parallel
  /// packed batch encoder over \p workers threads (chunked to bound
  /// memory); the model is identical for any worker count.
  /// \throws std::invalid_argument on dataset/shape mismatch;
  ///         std::logic_error if already trained.
  void fit(const data::Dataset& train, std::size_t workers = 1);

  /// fit() from already-encoded packed queries (e.g. the trainer's
  /// encoded-dataset cache): identical accumulator updates, zero encodes.
  /// \throws std::logic_error if already trained; std::invalid_argument on
  /// size mismatch, empty input, or out-of-range labels.
  void fit_encoded(std::span<const PackedHv> queries,
                   std::span<const int> labels);

  /// Restores the full trained state — accumulators AND the packed
  /// prototype snapshot — without any bipolarize.
  /// Used by hdc::load_model, whose files store the packed words.
  /// \throws std::logic_error if already trained; std::invalid_argument on
  ///         any shape/similarity mismatch (see
  ///         AssociativeMemory::restore_finalized).
  void restore_trained(std::vector<Accumulator> accumulators,
                       PackedAssocMemory packed);

  [[nodiscard]] bool trained() const noexcept { return am_.finalized(); }

  /// Predicted class of an image: the packed encode ranked by the packed
  /// associative memory. \throws std::logic_error if untrained.
  [[nodiscard]] std::size_t predict(const data::Image& image) const;

  /// Batched inference hot path: encodes every image and classifies through
  /// the bit-packed associative memory (XOR + popcount), parallelized over
  /// \p workers threads. Bit-exact with per-sample predict() for every input
  /// and identical for any worker count (each index is independent and
  /// deterministic, per the thread_pool.hpp contract).
  /// \throws std::logic_error if untrained; std::invalid_argument on shape
  /// mismatch.
  [[nodiscard]] std::vector<std::size_t> predict_batch(
      std::span<const data::Image> images, std::size_t workers = 1) const;

  /// Similarity of an image to every class.
  [[nodiscard]] std::vector<double> similarities(const data::Image& image) const;

  /// Accuracy + confusion matrix over a dataset. Runs through the packed
  /// batch path; \p workers only affects wall time, never the result.
  [[nodiscard]] EvalResult evaluate(const data::Dataset& test,
                                    std::size_t workers = 1) const;

  /// evaluate() over already-encoded packed queries (the trainer's cache):
  /// same predictions and census as evaluate() on the source images, with
  /// zero encodes.
  /// \throws std::logic_error if untrained; std::invalid_argument on
  /// size mismatch or out-of-range labels.
  [[nodiscard]] EvalResult evaluate_encoded(std::span<const PackedHv> queries,
                                            std::span<const int> labels,
                                            std::size_t workers = 1) const;

  /// Single retraining pass over labeled examples (see RetrainMode).
  /// Encoding and the epoch-start predictions run batched over \p workers
  /// threads; lane updates are applied in example order, so the updated
  /// model is identical for any worker count. Finalizes the associative
  /// memory afterwards.
  /// \returns the number of examples that were mispredicted before update.
  std::size_t retrain(std::span<const data::Image> images,
                      std::span<const int> labels,
                      RetrainMode mode = RetrainMode::kAddSubtract,
                      std::size_t workers = 1);

  /// Convenience overload over a dataset.
  std::size_t retrain(const data::Dataset& labeled,
                      RetrainMode mode = RetrainMode::kAddSubtract,
                      std::size_t workers = 1);

  /// retrain() from already-encoded packed queries: epoch-start predictions
  /// via the query-blocked packed sweep, lane updates applied in example
  /// order from the packed words, so multi-epoch retraining can encode each
  /// image once and replay the cache every epoch (~D/8 bytes per image).
  /// \throws std::logic_error if untrained; std::invalid_argument on size
  /// mismatch or out-of-range labels.
  std::size_t retrain_encoded(std::span<const PackedHv> queries,
                              std::span<const int> labels,
                              RetrainMode mode = RetrainMode::kAddSubtract,
                              std::size_t workers = 1);

 private:
  PixelEncoder encoder_;
  AssociativeMemory am_;
};

}  // namespace hdtest::hdc
