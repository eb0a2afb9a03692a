#pragma once
/// \file dense_oracle.hpp
/// The dense int8 reference of the HDC model, linked only by the test
/// suites.
///
/// The library keeps every hypervector as sign-bit-packed words and bundles
/// through bit-sliced kernels. This reference does the paper's arithmetic
/// the plain way: one int8 element per lane, codebooks generated element by
/// element from the library's seeds, sum_p bind(pos_p, val_p) over int32
/// lanes, then Eq. 1 with the tie-break, and cosine or Hamming similarity
/// over the class HVs. It calls no kernel and no packed routine except
/// pack()/unpack(), so an agreement test compares the kernels with code
/// that does not share them.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "data/image.hpp"
#include "hdc/assoc_memory.hpp"
#include "hdc/classifier.hpp"
#include "hdc/config.hpp"
#include "hdc/packed_hv.hpp"
#include "util/rng.hpp"

namespace hdtest::oracle {

/// A dense bipolar hypervector; every element is -1 or +1.
class Hypervector {
 public:
  /// Creates an empty (0-dimensional) HV.
  Hypervector() = default;

  /// Creates a D-dimensional HV with every element +1.
  /// \throws std::invalid_argument when dim is zero.
  explicit Hypervector(std::size_t dim);

  /// Generates an i.i.d. random HV: one rng draw per 64 elements, draw bit
  /// b set -> element +1 (the sequence of hdc::PackedHv::random).
  [[nodiscard]] static Hypervector random(std::size_t dim, util::Rng& rng);

  /// Wraps a raw element vector. \throws std::invalid_argument unless every
  /// value is -1 or +1.
  [[nodiscard]] static Hypervector from_raw(std::vector<std::int8_t> raw);

  [[nodiscard]] std::size_t dim() const noexcept { return elems_.size(); }
  [[nodiscard]] bool empty() const noexcept { return elems_.empty(); }
  [[nodiscard]] std::int8_t operator[](std::size_t i) const noexcept {
    return elems_[i];
  }

  /// Bounds- and domain-checked element write.
  /// \throws std::out_of_range / std::invalid_argument.
  void set(std::size_t i, std::int8_t value);

  /// Flips element \p i in place. \throws std::out_of_range.
  void flip(std::size_t i);

  bool operator==(const Hypervector& other) const = default;

 private:
  std::vector<std::int8_t> elems_;
};

/// Element-wise product — the HDC bind. \throws on unequal dimensions.
[[nodiscard]] Hypervector bind(const Hypervector& a, const Hypervector& b);
[[nodiscard]] std::int64_t dot(const Hypervector& a, const Hypervector& b);
/// dot / D. \throws on unequal or zero dimensions.
[[nodiscard]] double cosine(const Hypervector& a, const Hypervector& b);
[[nodiscard]] std::size_t hamming(const Hypervector& a, const Hypervector& b);
/// 1 - hamming / D. \throws on unequal or zero dimensions.
[[nodiscard]] double hamming_similarity(const Hypervector& a,
                                        const Hypervector& b);

/// Sign-bit packing, one element at a time (bit = 1 encodes -1).
[[nodiscard]] hdc::PackedHv pack(const Hypervector& v);
[[nodiscard]] Hypervector unpack(std::size_t dim,
                                 std::span<const std::uint64_t> words);
[[nodiscard]] Hypervector unpack(const hdc::PackedHv& v);

/// Bundling sums: one int32 lane per element.
using Lanes = std::vector<std::int32_t>;

/// lanes += weight * v. \throws on unequal dimensions.
void add(Lanes& lanes, const Hypervector& v, int weight = 1);

/// Eq. 1: a negative lane is -1, a positive lane +1, and a zero lane takes
/// the tie-break's element. \throws on unequal dimensions.
[[nodiscard]] Hypervector bipolarize(std::span<const std::int32_t> lanes,
                                     const Hypervector& tie_break);

/// A codebook of \c count dense HVs built element by element from a seed,
/// as the library's PackedItemMemory builds its rows (same draws, same
/// order).
class ItemMemory {
 public:
  /// \throws std::invalid_argument for zero count/dim.
  ItemMemory(std::size_t count, std::size_t dim, std::uint64_t seed,
             hdc::ValueStrategy strategy = hdc::ValueStrategy::kRandom);

  [[nodiscard]] std::size_t count() const noexcept { return entries_.size(); }
  /// \throws std::out_of_range.
  [[nodiscard]] const Hypervector& at(std::size_t index) const;

 private:
  std::vector<Hypervector> entries_;
};

/// The reference image encoder of one model config and image shape.
class Encoder {
 public:
  Encoder(const hdc::ModelConfig& config, std::size_t width,
          std::size_t height);

  [[nodiscard]] const ItemMemory& positions() const noexcept {
    return positions_;
  }
  [[nodiscard]] const ItemMemory& values() const noexcept { return values_; }
  [[nodiscard]] const Hypervector& tie_break() const noexcept {
    return tie_break_;
  }

  /// bind(position HV, value HV) — step 2 of the paper.
  [[nodiscard]] Hypervector pixel_hv(std::size_t position,
                                     std::uint8_t value) const;
  /// sum_p pixel_hv(p, image[p]) in int32 lanes.
  [[nodiscard]] Lanes lanes(const data::Image& image) const;
  /// Eq. 1 on lanes(image) with the encoder's tie-break.
  [[nodiscard]] Hypervector encode(const data::Image& image) const;

 private:
  std::size_t value_levels_;
  ItemMemory positions_;
  ItemMemory values_;
  Hypervector tie_break_;
};

/// Eq. 1 on every class accumulator of \p am, whose constructor seed was
/// \p seed, with its tie-break.
[[nodiscard]] std::vector<Hypervector> class_hvs(
    const hdc::AssociativeMemory& am, std::uint64_t seed);

/// Similarity of \p query to each class (cosine or Hamming per \p metric).
[[nodiscard]] std::vector<double> similarities(
    std::span<const Hypervector> classes, const Hypervector& query,
    hdc::Similarity metric);

/// Argmax of similarities(); the lowest class index wins ties.
[[nodiscard]] std::size_t predict(std::span<const Hypervector> classes,
                                  const Hypervector& query,
                                  hdc::Similarity metric);

/// The reference of a trained hdc::HdcClassifier: its config's encoder and
/// Eq. 1 over its class accumulators.
class Classifier {
 public:
  explicit Classifier(const hdc::HdcClassifier& model);

  [[nodiscard]] std::vector<double> similarities(
      const data::Image& image) const;
  [[nodiscard]] std::size_t predict(const data::Image& image) const;

 private:
  hdc::Similarity metric_;
  Encoder encoder_;
  std::vector<Hypervector> classes_;
};

}  // namespace hdtest::oracle
