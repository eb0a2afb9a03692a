/// \file kernels_avx2.cpp
/// AVX2 backend: 256-bit lanes (4 packed words per op). Popcounts use
/// Mula's vpshufb nibble-LUT with a psadbw horizontal reduction — the
/// standard pre-VPOPCNT vector popcount. This TU is compiled with
/// -mavx2 -mpopcnt when the compiler supports it (see src/CMakeLists.txt)
/// and degrades to a nullptr stub otherwise; every function stays internal
/// to the TU so no AVX2-codegen COMDAT can leak into portable code.

#include "util/simd/backends.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/simd/sweep_impl.hpp"

namespace hdtest::util::simd {

namespace {

inline __m256i loadu(const std::uint64_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void storeu(std::uint64_t* p, __m256i v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// Per-64-bit-lane popcount of a 256-bit vector: nibble LUT via vpshufb,
/// byte sums widened to u64 lanes with psadbw.
inline __m256i popcnt256(__m256i v) noexcept {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                      _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

inline std::size_t hsum_epi64(__m256i acc) noexcept {
  alignas(32) std::uint64_t buf[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(buf), acc);
  return static_cast<std::size_t>(buf[0] + buf[1] + buf[2] + buf[3]);
}

std::size_t xor_popcount_avx2(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t words) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m256i v0 = _mm256_xor_si256(loadu(a + w), loadu(b + w));
    const __m256i v1 = _mm256_xor_si256(loadu(a + w + 4), loadu(b + w + 4));
    acc = _mm256_add_epi64(
        acc, _mm256_add_epi64(popcnt256(v0), popcnt256(v1)));
  }
  if (w + 4 <= words) {
    acc = _mm256_add_epi64(
        acc, popcnt256(_mm256_xor_si256(loadu(a + w), loadu(b + w))));
    w += 4;
  }
  std::size_t total = hsum_epi64(acc);
  for (; w < words; ++w) {
    total += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return total;
}

using detail::ripple_from;

/// 256-bit bitwise ops for the Harley–Seal tree (no ternary logic: a full
/// adder is two xors for the sum and and/and/or for the carry, with a ^ b
/// shared between them).
struct Avx2Ops {
  using V = __m256i;
  static constexpr std::size_t kWords = 4;
  static V load(const std::uint64_t* p) noexcept { return loadu(p); }
  static void store(std::uint64_t* p, V v) noexcept { storeu(p, v); }
  static V zero() noexcept { return _mm256_setzero_si256(); }
  static V xnor(V a, V b) noexcept {
    return _mm256_xor_si256(_mm256_xor_si256(a, b), _mm256_set1_epi64x(-1));
  }
  static V xor2(V a, V b) noexcept { return _mm256_xor_si256(a, b); }
  static V and2(V a, V b) noexcept { return _mm256_and_si256(a, b); }
  static V xor3(V a, V b, V c) noexcept {
    return _mm256_xor_si256(_mm256_xor_si256(a, b), c);
  }
  static V maj(V a, V b, V c) noexcept {
    return _mm256_or_si256(_mm256_and_si256(a, b),
                           _mm256_and_si256(c, _mm256_xor_si256(a, b)));
  }
  static bool none(V v) noexcept { return _mm256_testz_si256(v, v) != 0; }
};

void bundle_bound_avx2(std::uint64_t* slices, std::size_t words,
                       std::size_t levels, const std::uint64_t* const* pos,
                       const std::uint64_t* const* val,
                       std::size_t count) noexcept {
  detail::bundle_bound_generic<Avx2Ops>(slices, words, levels, pos, val, count);
}

void csa_patch_avx2(std::uint64_t* slices, std::size_t words,
                    std::size_t levels, const std::uint64_t* pos,
                    const std::uint64_t* old_val,
                    const std::uint64_t* new_val) noexcept {
  const __m256i ones = _mm256_set1_epi64x(-1);
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i p = loadu(pos + w);
    const __m256i old_bound = _mm256_xor_si256(p, loadu(old_val + w));
    const __m256i new_inv =
        _mm256_xor_si256(_mm256_xor_si256(p, loadu(new_val + w)), ones);
    __m256i m[2] = {_mm256_xor_si256(old_bound, new_inv),
                    _mm256_and_si256(old_bound, new_inv)};
    for (int add = 0; add < 2; ++add) {
      __m256i carry = m[add];
      for (std::size_t j = 1 + static_cast<std::size_t>(add); j < levels; ++j) {
        if (_mm256_testz_si256(carry, carry)) break;
        std::uint64_t* s = slices + j * words + w;
        const __m256i sv = loadu(s);
        const __m256i next = _mm256_and_si256(sv, carry);
        storeu(s, _mm256_xor_si256(sv, carry));
        carry = next;
      }
    }
  }
  for (; w < words; ++w) {
    const std::uint64_t old_bound = pos[w] ^ old_val[w];
    const std::uint64_t new_inv = ~(pos[w] ^ new_val[w]);
    (void)ripple_from(slices, words, levels, w, old_bound ^ new_inv, 1);
    (void)ripple_from(slices, words, levels, w, old_bound & new_inv, 2);
  }
}

/// Sign/zero masks of 8 int32 lanes as an 8-bit group via movemask.
void bipolarize_packed_avx2(const std::int32_t* lanes, std::size_t n,
                            const std::uint64_t* tie_break,
                            std::uint64_t* out) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t w = 0;
  std::size_t base = 0;
  for (; base + 64 <= n; ++w, base += 64) {
    std::uint64_t neg = 0;
    std::uint64_t zr = 0;
    for (std::size_t g = 0; g < 64; g += 8) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(lanes + base + g));
      const auto nm = static_cast<std::uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(v)));
      const auto zm = static_cast<std::uint32_t>(_mm256_movemask_ps(
          _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, zero))));
      neg |= static_cast<std::uint64_t>(nm) << g;
      zr |= static_cast<std::uint64_t>(zm) << g;
    }
    out[w] = neg | (zr & tie_break[w]);
  }
  if (base < n) {
    const std::size_t chunk = n - base;
    const std::uint64_t tb_word = tie_break[w];
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < chunk; ++i) {
      const auto lane = static_cast<std::uint32_t>(lanes[base + i]);
      const std::uint64_t is_neg = lane >> 31;
      const std::uint64_t nonzero = (lane | (0u - lane)) >> 31;
      const std::uint64_t tb_bit = (tb_word >> i) & 1ULL;
      bits |= (is_neg | ((nonzero ^ 1ULL) & tb_bit)) << i;
    }
    out[w] = bits;
  }
}

void slice_bipolarize_avx2(const std::uint64_t* slices, std::size_t words,
                           std::size_t levels, std::uint32_t threshold,
                           const std::uint64_t* tie_break,
                           std::uint64_t* out) noexcept {
  const __m256i ones = _mm256_set1_epi64x(-1);
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    __m256i less = _mm256_setzero_si256();
    __m256i equal = ones;
    for (std::size_t j = levels; j-- > 0;) {
      const __m256i s = loadu(slices + j * words + w);
      if ((threshold >> j) & 1u) {
        less = _mm256_or_si256(less, _mm256_andnot_si256(s, equal));
        equal = _mm256_and_si256(equal, s);
      } else {
        equal = _mm256_andnot_si256(s, equal);
      }
    }
    storeu(out + w,
           _mm256_or_si256(less, _mm256_and_si256(equal, loadu(tie_break + w))));
  }
  for (; w < words; ++w) {
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

void am_sweep_avx2(const std::uint64_t* am, std::size_t classes,
                   std::size_t stride, const std::uint64_t* const* queries,
                   std::size_t count, std::uint32_t* best_class,
                   std::uint64_t* best_ham, std::uint64_t* ref_ham,
                   std::uint32_t ref_class) noexcept {
  detail::am_sweep_generic(am, classes, stride, queries, count, best_class,
                           best_ham, ref_ham, ref_class, xor_popcount_avx2);
}

constexpr Kernels kAvx2Kernels{
    "avx2",
    xor_popcount_avx2,
    bundle_bound_avx2,
    csa_patch_avx2,
    bipolarize_packed_avx2,
    slice_bipolarize_avx2,
    am_sweep_avx2,
};

}  // namespace

const Kernels* avx2_kernels() noexcept { return &kAvx2Kernels; }

}  // namespace hdtest::util::simd

#else  // !defined(__AVX2__)

namespace hdtest::util::simd {
const Kernels* avx2_kernels() noexcept { return nullptr; }
}  // namespace hdtest::util::simd

#endif
