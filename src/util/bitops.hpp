#pragma once
/// \file bitops.hpp
/// Packed-word helpers backing the bit-packed hypervector implementation.
///
/// A bipolar hypervector with D elements in {-1,+1} is stored as ceil(D/64)
/// uint64 words of sign bits (bit = 1 encodes element -1). Binding (element-
/// wise multiply) becomes XOR and dot products reduce to popcounts, which is
/// the classic dense-binary-HDC hardware trick (Schmuck et al., JETC'19).
/// Tests pin every helper to the dense path bit for bit.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/simd/kernels.hpp"

namespace hdtest::util {

/// Number of 64-bit words needed to hold \p bits bits.
[[nodiscard]] constexpr std::size_t words_for_bits(std::size_t bits) noexcept {
  return (bits + 63) / 64;
}

/// Mask selecting the valid bits of the last word for a \p bits-bit vector
/// (all-ones when bits is a multiple of 64).
[[nodiscard]] constexpr std::uint64_t tail_mask(std::size_t bits) noexcept {
  const std::size_t rem = bits % 64;
  return rem == 0 ? ~0ULL : ((1ULL << rem) - 1);
}

/// Total popcount over a span of words.
[[nodiscard]] inline std::size_t popcount(std::span<const std::uint64_t> words) noexcept {
  std::size_t total = 0;
  for (const auto word : words) {
    total += static_cast<std::size_t>(std::popcount(word));
  }
  return total;
}

/// Popcount of the XOR of two equal-length spans (Hamming distance of the
/// packed vectors), run on the active kernel backend.
/// \pre a.size() == b.size().
[[nodiscard]] inline std::size_t xor_popcount(std::span<const std::uint64_t> a,
                                              std::span<const std::uint64_t> b) noexcept {
  return simd::kernels().xor_popcount(a.data(), b.data(), a.size());
}

/// Reads bit \p index from a packed span.
[[nodiscard]] inline bool get_bit(std::span<const std::uint64_t> words,
                                  std::size_t index) noexcept {
  return (words[index / 64] >> (index % 64)) & 1ULL;
}

/// Writes bit \p index in a packed span.
inline void set_bit(std::span<std::uint64_t> words, std::size_t index,
                    bool value) noexcept {
  const std::uint64_t mask = 1ULL << (index % 64);
  if (value) {
    words[index / 64] |= mask;
  } else {
    words[index / 64] &= ~mask;
  }
}

/// Bit-sliced per-lane counter bank — the Harley–Seal / carry-save-adder
/// (CSA) accumulation kernel behind the packed full-image encode.
///
/// Bundling N packed bipolar vectors needs, per lane i, the count cnt_i of
/// vectors whose bit i is set (bit = 1 encodes element -1); the integer sum
/// of the bipolar elements is then N - 2*cnt_i. Instead of widening every
/// bit to an int32 lane per added vector (D multiply-adds), the counts are
/// kept *bit-sliced*: slice k stores bit k of every lane's count in one
/// packed word row, and adding a vector is a ripple-carry
///
///   carry = v;  for k: (slice_k, carry) <- (slice_k XOR carry, slice_k AND carry)
///
/// which terminates after ~2 word operations per word amortized (slice k is
/// reached once every 2^k additions). Slices grow on demand, so any N fits.
/// drain_into() converts back to int32 lanes once per bundle. The ripple
/// itself runs on the active kernel backend (simd::Kernels::csa_add); this
/// class keeps the ladder bookkeeping.
class BitSliceAccumulator {
 public:
  /// Counter bank for vectors of \p bits lanes, all counts zero.
  /// \throws std::invalid_argument when bits is zero.
  explicit BitSliceAccumulator(std::size_t bits)
      : bits_(bits), words_(words_for_bits(bits)), carry_(words_, 0) {
    if (bits == 0) {
      throw std::invalid_argument("BitSliceAccumulator: bits must be non-zero");
    }
    // Pre-open the three slices the backends' branch-free prefix targets.
    slices_.assign(kFastLevels * words_, 0);
    levels_ = kFastLevels;
  }

  [[nodiscard]] std::size_t bits() const noexcept { return bits_; }

  /// Number of vectors accumulated so far.
  [[nodiscard]] std::size_t added() const noexcept { return added_; }

  /// Number of open count slices: starts at kFastLevels (the pre-opened
  /// branch-free prefix) and grows by one whenever some lane's count
  /// overflows the current ladder height. Exposed for tests.
  [[nodiscard]] std::size_t levels() const noexcept { return levels_; }

  /// Accumulates one packed vector. May allocate when a lane count
  /// overflows the current ladder height (throws std::bad_alloc then).
  /// \pre v.size() == words_for_bits(bits()).
  void add(std::span<const std::uint64_t> v) { ripple(v.data(), nullptr); }

  /// Accumulates the XOR of two packed vectors — the bound pixel HV
  /// pos (*) val — without materializing it (the backend XORs in-register).
  /// The per-pixel hot path; same allocation caveat as add().
  /// \pre a.size() == b.size() == words_for_bits(bits()).
  void add_xor(std::span<const std::uint64_t> a,
               std::span<const std::uint64_t> b) {
    ripple(a.data(), b.data());
  }

  /// Adds the accumulated bipolar sum into integer lanes:
  ///   lanes[i] += added() - 2 * cnt_i
  /// (each clear bit contributed +1, each set bit -1). Exact integer
  /// arithmetic: the result equals per-element accumulation in any order.
  /// \pre lanes.size() == bits().
  void drain_into(std::span<std::int32_t> lanes) const {
    if (lanes.size() != bits_) {
      throw std::invalid_argument("BitSliceAccumulator::drain_into: lane count mismatch");
    }
    const auto n = static_cast<std::int32_t>(added_);
    for (auto& lane : lanes) lane += n;
    // Level-major sweep: -2*cnt_i = -sum_k 2^(k+1) * slice_k bit i. Zero
    // words (common in the top slices) are skipped wholesale.
    for (std::size_t k = 0; k < levels_; ++k) {
      const std::uint64_t* slice = slices_.data() + k * words_;
      for (std::size_t w = 0; w < words_; ++w) {
        const std::uint64_t word = slice[w];
        if (word == 0) continue;
        const std::size_t base = w * 64;
        const std::size_t chunk = std::min<std::size_t>(64, bits_ - base);
        for (std::size_t b = 0; b < chunk; ++b) {
          lanes[base + b] -= static_cast<std::int32_t>(((word >> b) & 1ULL)
                                                       << (k + 1));
        }
      }
    }
  }

  /// Resets all counts to zero (slice storage is retained).
  void clear() noexcept {
    std::fill(slices_.begin(), slices_.end(), 0);
    added_ = 0;
  }

 private:
  /// Slices the backends write through a branch-free ripple prefix. A carry
  /// escapes them only once per 2^kFastLevels additions per lane, so the
  /// branchy tail is off the hot path (per-level early exits mispredict
  /// ~50% of the time and dominate an all-branchy ladder).
  static constexpr std::size_t kFastLevels = 3;

  /// Runs the kernel CSA ripple of \p a (or a ^ b when \p b is non-null)
  /// through the ladder; grows the ladder by one level (allocating) when
  /// any lane's count overflowed the current height. A single new level
  /// always suffices: an escaped carry has weight 2^levels_ exactly, and
  /// the freshly-opened slice is empty so it cannot re-carry.
  void ripple(const std::uint64_t* a, const std::uint64_t* b) {
    // carry_ is kept all-zero between calls (the kernel's precondition);
    // backends only write escaped carries, so the common no-escape add does
    // no carry_out work at all.
    if (simd::kernels().csa_add(slices_.data(), words_, levels_, a, b,
                                carry_.data())) {
      // Level-major layout keeps existing slices in place on growth.
      slices_.resize((levels_ + 1) * words_, 0);
      std::copy(carry_.begin(), carry_.end(),
                slices_.begin() + static_cast<std::ptrdiff_t>(levels_ * words_));
      std::fill(carry_.begin(), carry_.end(), 0);
      ++levels_;
    }
    ++added_;
  }

  std::size_t bits_;
  std::size_t words_;
  std::size_t levels_ = 0;
  std::size_t added_ = 0;
  std::vector<std::uint64_t> slices_;  ///< levels_ x words_, level-major
  std::vector<std::uint64_t> carry_;   ///< escaped-carry scratch (words_)
};

}  // namespace hdtest::util
