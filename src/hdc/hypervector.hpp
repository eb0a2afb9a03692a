#pragma once
/// \file hypervector.hpp
/// Dense bipolar hypervectors and their arithmetic (paper section III-A).
///
/// A hypervector (HV) is a high-dimensional vector with i.i.d. pseudo-random
/// elements. This project follows the paper and uses *bipolar* HVs (elements
/// in {-1, +1}, stored as int8_t). Two operations make up the HDC algebra
/// used here:
///
///  - multiplication (bind, element-wise product): produces an HV orthogonal
///    to both operands; for bipolar HVs it is its own inverse.
///  - addition (bundle, element-wise sum): preserves similarity to each
///    operand (~50% for two operands); performed in an integer Accumulator
///    and re-bipolarized with Eq. 1 of the paper.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hdc/instrument.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace hdtest::hdc {

class PackedHv;  // packed_hv.hpp; forward-declared to avoid a header cycle

/// A dense bipolar hypervector; every element is -1 or +1.
class Hypervector {
 public:
  /// Creates an empty (0-dimensional) HV.
  Hypervector() = default;

  /// Creates a D-dimensional HV with every element +1.
  /// \throws std::invalid_argument when dim is zero.
  explicit Hypervector(std::size_t dim);

  /// Generates an i.i.d. random bipolar HV.
  [[nodiscard]] static Hypervector random(std::size_t dim, util::Rng& rng);

  /// Wraps a raw element vector. \pre every value is -1 or +1 (checked;
  /// throws std::invalid_argument). Used by the vector-algebra kernels and
  /// by tests that construct specific patterns.
  [[nodiscard]] static Hypervector from_raw(std::vector<std::int8_t> raw);

  [[nodiscard]] std::size_t dim() const noexcept { return elems_.size(); }
  [[nodiscard]] bool empty() const noexcept { return elems_.empty(); }

  /// Unchecked element access; values are always -1 or +1.
  [[nodiscard]] std::int8_t operator[](std::size_t i) const noexcept {
    return elems_[i];
  }

  /// Bounds- and domain-checked element write.
  /// \throws std::out_of_range / std::invalid_argument.
  void set(std::size_t i, std::int8_t value);

  [[nodiscard]] std::span<const std::int8_t> elements() const noexcept {
    return elems_;
  }

  /// Flips element \p i in place (bounds-checked).
  void flip(std::size_t i);

  bool operator==(const Hypervector& other) const = default;

 private:
  struct Unchecked {};  // tag for the internal no-validate constructor
  Hypervector(std::vector<std::int8_t> raw, Unchecked) noexcept
      : elems_(std::move(raw)) {
    instrument::note_dense_hv();
  }

  friend Hypervector bind(const Hypervector& a, const Hypervector& b);

  std::vector<std::int8_t> elems_;
};

/// Element-wise product a (*) b — the HDC bind. \pre equal dimensions.
[[nodiscard]] Hypervector bind(const Hypervector& a, const Hypervector& b);

/// Integer dot product. \pre equal dimensions.
[[nodiscard]] std::int64_t dot(const Hypervector& a, const Hypervector& b);

/// Cosine similarity; for bipolar HVs this equals dot / D.
/// \pre equal non-zero dimensions.
[[nodiscard]] double cosine(const Hypervector& a, const Hypervector& b);

/// Number of positions where the two HVs differ. \pre equal dimensions.
[[nodiscard]] std::size_t hamming(const Hypervector& a, const Hypervector& b);

/// Normalized Hamming similarity: 1 - hamming/D, in [0, 1].
[[nodiscard]] double hamming_similarity(const Hypervector& a, const Hypervector& b);

/// Integer bundling accumulator: the Sigma of the paper's encoding/training.
///
/// Element-wise addition of bipolar HVs destroys the bipolar domain, so sums
/// are collected in int32 lanes and re-bipolarized via Eq. 1:
///   out[i] = -1 if acc[i] < 0; +1 if acc[i] > 0; random otherwise.
/// The "random" tie-break is drawn from a caller-supplied tie-break HV so
/// that encoding is a pure deterministic function (see PixelEncoder).
class Accumulator {
 public:
  Accumulator() = default;

  /// Zero-initialized accumulator of dimension \p dim.
  /// \throws std::invalid_argument when dim is zero.
  explicit Accumulator(std::size_t dim);

  /// Restores an accumulator from raw lane values (checkpoint loading).
  /// \throws std::invalid_argument for an empty lane vector.
  [[nodiscard]] static Accumulator from_lanes(std::vector<std::int32_t> lanes);

  [[nodiscard]] std::size_t dim() const noexcept { return lanes_.size(); }

  /// Adds (weight = +1) or subtracts (weight = -1) an HV. \pre equal dims.
  void add(const Hypervector& v, int weight = 1);

  /// Adds the element-wise product a (*) b without materializing it.
  /// This is the hot path of pixel encoding: acc += posHV (*) valueHV.
  void add_bound(const Hypervector& a, const Hypervector& b);

  /// Packed counterpart of add(): accumulates a sign-bit-packed HV
  /// (bit = 1 encodes -1) with the exact same lane updates as add() on its
  /// dense form. Lets training/retraining consume cached packed queries
  /// without a dense unpack.
  /// \pre v holds util::words_for_bits(dim()) words.
  void add_packed(std::span<const std::uint64_t> v, int weight = 1);

  /// Drains a biased bit-sliced lane bank into the lanes:
  ///   lanes[i] += stored_i - bias,
  /// where stored_i is bit i of the \p levels level-major slices (each
  /// util::words_for_bits(dim()) words) read as an unsigned count — the
  /// full encode's bank (PixelEncoder::encode_into).
  /// \throws std::invalid_argument when slices.size() is not
  /// levels * words_for_bits(dim()) or levels exceeds 31.
  void add_biased_slices(std::span<const std::uint64_t> slices,
                         std::size_t levels, std::uint64_t bias);

  /// Resets all lanes to zero.
  void clear() noexcept;

  /// Raw lane view (for tests and serialization).
  [[nodiscard]] std::span<const std::int32_t> lanes() const noexcept {
    return lanes_;
  }
  [[nodiscard]] std::int32_t lane(std::size_t i) const { return lanes_.at(i); }

  /// Eq. 1 of the paper; zero lanes take the sign of tie_break[i].
  /// \pre tie_break.dim() == dim().
  [[nodiscard]] Hypervector bipolarize(const Hypervector& tie_break) const;

  /// Fused Eq. 1 + sign-bit packing: extracts each lane's sign directly into
  /// packed words (branch-free SWAR over the int32 lanes), skipping the
  /// dense int8 intermediate entirely. Bit-exact with the dense path:
  ///   bipolarize_packed(packed_tb) == PackedHv::from_dense(bipolarize(tb)).
  /// \pre tie_break.dim() == dim().
  [[nodiscard]] PackedHv bipolarize_packed(const PackedHv& tie_break) const;

 private:
  std::vector<std::int32_t> lanes_;
};

}  // namespace hdtest::hdc
