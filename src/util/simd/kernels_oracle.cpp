/// \file kernels_oracle.cpp
/// The scalar reference backend: straight-line loops over words and lanes,
/// sharing no code with the other backends. This is the executable
/// specification of every kernel contract — the property tests diff every
/// available backend against this one bit-for-bit, and
/// HDTEST_KERNEL_BACKEND=oracle runs a whole binary on it, so a kernel bug
/// cannot hide on both sides of a differential comparison. Always compiled
/// and available, but never auto-selected: it is registered last.
///
/// Style note: this file sits in the checked-arith lint scope, so all row
/// and level addressing uses stepped pointer cursors instead of index
/// products — which is also the clearest way to write a reference walk.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/contracts.hpp"
#include "util/simd/backends.hpp"

namespace hdtest::util::simd {

namespace {

/// Weight-1 ripple-carry add of \p bits into a level-major slice bank,
/// starting at \p slice and stepping \p jump words per level. Returns the
/// carry escaping the topmost of the \p levels levels (0 when absorbed).
HDTEST_HOT_PATH std::uint64_t ripple_word(std::uint64_t* slice,
                                          std::size_t levels, std::size_t jump,
                                          std::uint64_t bits) noexcept {
  std::uint64_t carry = bits;
  for (std::size_t j = 0; j < levels && carry != 0; ++j) {
    const std::uint64_t prior = *slice;
    *slice = prior ^ carry;
    carry = prior & carry;
    slice += jump;
  }
  return carry;
}

HDTEST_HOT_PATH std::size_t xor_popcount_oracle(const std::uint64_t* a,
                                                const std::uint64_t* b,
                                                std::size_t words) noexcept {
  std::size_t h = 0;
  for (std::size_t w = 0; w < words; ++w) {
    h += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return h;
}

HDTEST_HOT_PATH void bundle_bound_oracle(std::uint64_t* slices,
                                         std::size_t words, std::size_t levels,
                                         const std::uint64_t* const* pos,
                                         const std::uint64_t* const* val,
                                         std::size_t count) noexcept {
  // Lane by lane: count the addends whose bound bit is clear, read the
  // lane's stored value level by level, add twice the count, and write it
  // back. Bits past the top level are dropped; the caller's headroom keeps
  // them zero.
  for (std::size_t w = 0; w < words; ++w) {
    for (std::size_t b = 0; b < 64; ++b) {
      std::uint64_t clear = 0;
      for (std::size_t i = 0; i < count; ++i) {
        clear += (~(pos[i][w] ^ val[i][w]) >> b) & 1u;
      }
      std::uint64_t* slice = slices + w;
      std::uint64_t stored = 0;
      for (std::size_t j = 0; j < levels; ++j) {
        stored |= ((*slice >> b) & 1u) << j;
        slice += words;
      }
      stored += 2 * clear;
      slice = slices + w;
      for (std::size_t j = 0; j < levels; ++j) {
        *slice = (*slice & ~(1ULL << b)) | (((stored >> j) & 1u) << b);
        slice += words;
      }
    }
  }
}

HDTEST_HOT_PATH void csa_patch_oracle(std::uint64_t* slices, std::size_t words,
                                      std::size_t levels,
                                      const std::uint64_t* pos,
                                      const std::uint64_t* old_val,
                                      const std::uint64_t* new_val) noexcept {
  // 2*(pos^old)_bit + 2*(~(pos^new))_bit per lane, CSA-combined into one
  // weight-2 addend (u ^ v at level 1) plus one weight-4 addend (u & v at
  // level 2). The caller's bias headroom guarantees neither ripple can
  // escape the bank, so any escaping carry is discarded by contract.
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t u = pos[w] ^ old_val[w];
    const std::uint64_t v = ~(pos[w] ^ new_val[w]);
    std::uint64_t* lvl1 = slices + w + words;
    if (levels > 1) ripple_word(lvl1, levels - 1, words, u ^ v);
    if (levels > 2) ripple_word(lvl1 + words, levels - 2, words, u & v);
  }
}

HDTEST_HOT_PATH void bipolarize_packed_oracle(const std::int32_t* lanes,
                                              std::size_t n,
                                              const std::uint64_t* tie_break,
                                              std::uint64_t* out) noexcept {
  std::size_t i = 0;
  for (std::size_t w = 0; i < n; ++w) {
    const std::uint64_t ties = tie_break[w];
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < 64 && i < n; ++b, ++i) {
      const std::int32_t lane = lanes[i];
      std::uint64_t bit = 0;
      if (lane < 0) {
        bit = 1;
      } else if (lane == 0) {
        bit = (ties >> b) & 1u;
      }
      bits |= bit << b;
    }
    out[w] = bits;
  }
}

HDTEST_HOT_PATH void slice_bipolarize_oracle(const std::uint64_t* slices,
                                             std::size_t words,
                                             std::size_t levels,
                                             std::uint32_t threshold,
                                             const std::uint64_t* tie_break,
                                             std::uint64_t* out) noexcept {
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t ties = tie_break[w];
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < 64; ++b) {
      const std::uint64_t* slice = slices + w;
      std::uint32_t stored = 0;
      for (std::size_t j = 0; j < levels; ++j) {
        stored |= static_cast<std::uint32_t>((*slice >> b) & 1u) << j;
        slice += words;
      }
      std::uint64_t bit = 0;
      if (stored < threshold) {
        bit = 1;
      } else if (stored == threshold) {
        bit = (ties >> b) & 1u;
      }
      bits |= bit << b;
    }
    out[w] = bits;
  }
}

HDTEST_HOT_PATH void am_sweep_oracle(const std::uint64_t* am,
                                     std::size_t classes, std::size_t stride,
                                     const std::uint64_t* const* queries,
                                     std::size_t count,
                                     std::uint32_t* best_class,
                                     std::uint64_t* best_ham,
                                     std::uint64_t* ref_ham,
                                     std::uint32_t ref_class) noexcept {
  for (std::size_t q = 0; q < count; ++q) {
    best_ham[q] = std::numeric_limits<std::uint64_t>::max();
    best_class[q] = 0;
  }
  const std::uint64_t* proto = am;
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t q = 0; q < count; ++q) {
      const std::uint64_t* query = queries[q];
      std::uint64_t h = 0;
      for (std::size_t w = 0; w < stride; ++w) {
        h += static_cast<std::uint64_t>(std::popcount(proto[w] ^ query[w]));
      }
      // Strict < with classes ascending: lowest class index wins ties.
      if (h < best_ham[q]) {
        best_ham[q] = h;
        best_class[q] = static_cast<std::uint32_t>(c);
      }
      if (ref_ham != nullptr && c == ref_class) ref_ham[q] = h;
    }
    proto += stride;
  }
}

constexpr Kernels kOracleKernels{
    "oracle",
    xor_popcount_oracle,
    bundle_bound_oracle,
    csa_patch_oracle,
    bipolarize_packed_oracle,
    slice_bipolarize_oracle,
    am_sweep_oracle,
};

}  // namespace

const Kernels* oracle_kernels() noexcept { return &kOracleKernels; }

}  // namespace hdtest::util::simd
