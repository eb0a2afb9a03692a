/// \file kernels_swar.cpp
/// Portable SWAR backend — uint64 word parallelism only, no ISA extensions.
/// Always compiled, always selectable; the production fallback on CPUs
/// without a vector backend. Like every backend it is property-tested
/// bit-for-bit against the scalar oracle (kernels_oracle.cpp). The
/// Harley–Seal bundling tree runs on uint64 words (sweep_impl.hpp); the
/// other bodies are the former inline hot paths of
/// Accumulator::bipolarize_packed and the delta re-encoder.

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/simd/backends.hpp"
#include "util/simd/sweep_impl.hpp"

namespace hdtest::util::simd {

namespace {

std::size_t xor_popcount_swar(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t words) noexcept {
  std::size_t total = 0;
  for (std::size_t w = 0; w < words; ++w) {
    total += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return total;
}

using detail::ripple_from;

void bundle_bound_swar(std::uint64_t* slices, std::size_t words,
                       std::size_t levels, const std::uint64_t* const* pos,
                       const std::uint64_t* const* val,
                       std::size_t count) noexcept {
  detail::bundle_bound_generic<detail::WordOps>(slices, words, levels, pos,
                                                val, count);
}

void csa_patch_swar(std::uint64_t* slices, std::size_t words,
                    std::size_t levels, const std::uint64_t* pos,
                    const std::uint64_t* old_val,
                    const std::uint64_t* new_val) noexcept {
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t old_bound = pos[w] ^ old_val[w];
    const std::uint64_t new_inv = ~(pos[w] ^ new_val[w]);
    // Two weight-2 addends per lane; CSA-combine them first so the common
    // case ripples once, not twice. Bias headroom kills the carries.
    (void)ripple_from(slices, words, levels, w, old_bound ^ new_inv, 1);
    (void)ripple_from(slices, words, levels, w, old_bound & new_inv, 2);
  }
}

void bipolarize_packed_swar(const std::int32_t* lanes, std::size_t n,
                            const std::uint64_t* tie_break,
                            std::uint64_t* out) noexcept {
  for (std::size_t w = 0, base = 0; base < n; ++w, base += 64) {
    const std::size_t chunk = n - base < 64 ? n - base : 64;
    const std::uint64_t tb_word = tie_break[w];
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < chunk; ++b) {
      // Branch-free Eq. 1 sign extraction straight into the packed word:
      // bit = 1 (element -1) when the lane is negative, or zero with a
      // negative tie-break element.
      const auto lane = static_cast<std::uint32_t>(lanes[base + b]);
      const std::uint64_t neg = lane >> 31;
      const std::uint64_t nonzero = (lane | (0u - lane)) >> 31;
      const std::uint64_t tb_bit = (tb_word >> b) & 1ULL;
      bits |= (neg | ((nonzero ^ 1ULL) & tb_bit)) << b;
    }
    out[w] = bits;
  }
}

void slice_bipolarize_swar(const std::uint64_t* slices, std::size_t words,
                           std::size_t levels, std::uint32_t threshold,
                           const std::uint64_t* tie_break,
                           std::uint64_t* out) noexcept {
  for (std::size_t w = 0; w < words; ++w) {
    // Bit-parallel compare of 64 stored values against the threshold,
    // MSB down: less-than decides sign, exact equality is the Eq. 1 tie.
    std::uint64_t less = 0;
    std::uint64_t equal = ~0ULL;
    for (std::size_t j = levels; j-- > 0;) {
      const std::uint64_t s = slices[j * words + w];
      if ((threshold >> j) & 1u) {
        less |= equal & ~s;
        equal &= s;
      } else {
        equal &= ~s;
      }
    }
    out[w] = less | (equal & tie_break[w]);
  }
}

void am_sweep_swar(const std::uint64_t* am, std::size_t classes,
                   std::size_t stride, const std::uint64_t* const* queries,
                   std::size_t count, std::uint32_t* best_class,
                   std::uint64_t* best_ham, std::uint64_t* ref_ham,
                   std::uint32_t ref_class) noexcept {
  detail::am_sweep_generic(am, classes, stride, queries, count, best_class,
                           best_ham, ref_ham, ref_class, xor_popcount_swar);
}

constexpr Kernels kSwarKernels{
    "swar",
    xor_popcount_swar,
    bundle_bound_swar,
    csa_patch_swar,
    bipolarize_packed_swar,
    slice_bipolarize_swar,
    am_sweep_swar,
};

}  // namespace

const Kernels* swar_kernels() noexcept { return &kSwarKernels; }

}  // namespace hdtest::util::simd
