#pragma once
/// \file packed_hv.hpp
/// Bit-packed bipolar hypervector backend.
///
/// A bipolar HV stores one of two values per element, so it packs into one
/// bit per element (bit = 1 encodes -1). Binding becomes XOR and the dot
/// product reduces to popcounts:
///
///   dot(a, b) = D - 2 * popcount(pack(a) ^ pack(b))
///
/// This is the dense-binary rematerialization trick (Schmuck et al.,
/// JETC'19) referenced in the paper's related work, and the only
/// hypervector representation the library has: encoding, training and
/// classification all run on packed words. The tests check them against a
/// dense int8 reference kept under tests/support/.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace hdtest::hdc {

/// Bit-packed bipolar hypervector (bit = 1 encodes element value -1).
class PackedHv {
 public:
  PackedHv() = default;

  /// All-(+1) packed HV of dimension \p dim.
  /// \throws std::invalid_argument when dim is zero.
  explicit PackedHv(std::size_t dim);

  /// Generates an i.i.d. random packed HV: one rng draw per 64 elements,
  /// complemented (a set draw bit is element +1), tail bits cleared — the
  /// generator of every codebook row and tie-break (see
  /// PackedItemMemory::materialize_row).
  [[nodiscard]] static PackedHv random(std::size_t dim, util::Rng& rng);

  /// Writes random()'s words for \p rng into \p out
  /// (util::words_for_bits(dim) words). Inline: remat encodes call it per
  /// codebook row.
  static void fill_random(std::size_t dim, util::Rng& rng,
                          std::span<std::uint64_t> out) noexcept {
    // A local copy keeps the generator state in registers; the output
    // words could otherwise alias it.
    util::Rng local = rng;
    const std::size_t last = out.size() - 1;
    for (std::size_t w = 0; w < last; ++w) out[w] = ~local.next_u64();
    out[last] = ~local.next_u64() & util::tail_mask(dim);
    rng = local;
  }

  /// Wraps already-packed sign-bit words (kernel hook for the fused
  /// bipolarize and the bit-sliced encoder).
  /// \throws std::invalid_argument for zero dim, a word count other than
  /// words_for_bits(dim), or non-zero bits past dim in the last word.
  [[nodiscard]] static PackedHv from_words(std::size_t dim,
                                           std::vector<std::uint64_t> words);

  /// Copying span overload of from_words (e.g. rehydrating the stored
  /// tie-break words from a mapped v3 model file). Same validation.
  [[nodiscard]] static PackedHv from_words(std::size_t dim,
                                           std::span<const std::uint64_t> words) {
    return from_words(dim, std::vector<std::uint64_t>(words.begin(), words.end()));
  }

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  /// Element access: +1 or -1.
  [[nodiscard]] std::int8_t get(std::size_t i) const;
  void set(std::size_t i, std::int8_t value);

  /// In-place XOR-bind: *this <- *this (*) other. \pre equal dims.
  void bind_with(const PackedHv& other);

  bool operator==(const PackedHv& other) const = default;

 private:
  std::size_t dim_ = 0;
  std::vector<std::uint64_t> words_;
};

/// XOR-bind: the element-wise product of two bipolar HVs. \pre equal dims.
[[nodiscard]] PackedHv bind(const PackedHv& a, const PackedHv& b);

/// Integer dot product via popcount. \pre equal dims.
[[nodiscard]] std::int64_t dot(const PackedHv& a, const PackedHv& b);

/// Cosine similarity (= dot / D for bipolar). \pre equal non-zero dims.
[[nodiscard]] double cosine(const PackedHv& a, const PackedHv& b);

/// Hamming distance via popcount. \pre equal dims.
[[nodiscard]] std::size_t hamming(const PackedHv& a, const PackedHv& b);

}  // namespace hdtest::hdc
