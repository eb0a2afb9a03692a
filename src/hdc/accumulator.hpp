#pragma once
/// \file accumulator.hpp
/// The integer bundling accumulator: the Sigma of the paper's encoding and
/// training (section III-A/B).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hdc/packed_hv.hpp"

namespace hdtest::hdc {

/// Integer bundling accumulator over sign-bit-packed HVs.
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

  /// Adds (weight = +1) or subtracts (weight = -1) a sign-bit-packed HV
  /// (bit = 1 encodes -1): lane i += weight * element i. Lets training and
  /// retraining consume cached packed queries.
  /// \throws std::invalid_argument unless v holds
  /// util::words_for_bits(dim()) words.
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

  /// Eq. 1 of the paper, fused with sign-bit packing: each lane's sign goes
  /// straight into packed words on the active kernel backend, and zero
  /// lanes take the sign of \p tie_break's element.
  /// \throws std::invalid_argument unless tie_break.dim() == dim().
  [[nodiscard]] PackedHv bipolarize_packed(const PackedHv& tie_break) const;

 private:
  std::vector<std::int32_t> lanes_;
};

}  // namespace hdtest::hdc
