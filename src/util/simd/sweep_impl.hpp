#pragma once
/// \file sweep_impl.hpp
/// Inline helpers shared by the backend TUs: the query-blocked
/// associative-memory sweep skeleton (parameterized on the backend's
/// xor_popcount so the inner distance loop inlines with that backend's
/// vector width), the Harley–Seal bundling tree (parameterized on the
/// backend's vector type and bitwise ops), and the scalar ripple-carry
/// tail. Included by the backend TUs only; everything stays internal to
/// each TU (no cross-TU COMDAT sharing, which matters because the AVX TUs
/// are compiled with ISA flags the portable code must not inherit).

#include <cstddef>
#include <cstdint>

#include "util/contracts.hpp"

namespace hdtest::util::simd::detail {

/// Scalar ripple-carry of \p carry through slice levels [from, levels) at
/// word column \p w of a level-major bank; returns the carry that escaped
/// the top level (zero in the common case). The per-word tail every backend
/// falls back to.
inline std::uint64_t ripple_from(std::uint64_t* slices, std::size_t words,
                                 std::size_t levels, std::size_t w,
                                 std::uint64_t carry,
                                 std::size_t from) noexcept {
  for (std::size_t k = from; k < levels && carry != 0; ++k) {
    std::uint64_t& word = slices[k * words + w];
    const std::uint64_t next = word & carry;
    word ^= carry;
    carry = next;
  }
  return carry;
}

/// Bitwise ops of one 64-bit word: the SWAR backend's vector type, and every
/// vector backend's tail for the words past its last full vector.
struct WordOps {
  using V = std::uint64_t;
  static constexpr std::size_t kWords = 1;
  static V load(const std::uint64_t* p) noexcept { return *p; }
  static void store(std::uint64_t* p, V v) noexcept { *p = v; }
  static V zero() noexcept { return 0; }
  static V xnor(V a, V b) noexcept { return ~(a ^ b); }
  static V xor2(V a, V b) noexcept { return a ^ b; }
  static V and2(V a, V b) noexcept { return a & b; }
  static V xor3(V a, V b, V c) noexcept { return a ^ b ^ c; }
  static V maj(V a, V b, V c) noexcept { return (a & b) | (c & (a ^ b)); }
  static bool none(V v) noexcept { return v == 0; }
};

/// Harley–Seal bundle_bound over words [\p begin, \p end) in steps of
/// Ops::kWords (end - begin is a multiple of it). Per chunk, the <= 16
/// addends ~(pos ^ val) go through a carry-save tree of 11 full and 4 half
/// adders down to a 5-bit per-lane count (ones..sixteens; zero addends pad
/// a short group). One multi-bit add puts the count into levels 1-5 of the
/// bank, and the carry out of level 5 ripples up with an early exit.
template <typename Ops>
HDTEST_HOT_PATH inline void bundle_bound_chunks(
    std::uint64_t* slices, std::size_t words, std::size_t levels,
    const std::uint64_t* const* pos, const std::uint64_t* const* val,
    std::size_t count, std::size_t begin, std::size_t end) noexcept {
  using V = typename Ops::V;
  // Full adder (sum, carry) of three equal-weight addends; half adder of two.
  const auto fa = [](V a, V b, V c, V& carry) {
    carry = Ops::maj(a, b, c);
    return Ops::xor3(a, b, c);
  };
  const auto ha = [](V a, V b, V& carry) {
    carry = Ops::and2(a, b);
    return Ops::xor2(a, b);
  };
  const std::size_t top = levels < 6 ? levels : 6;
  for (std::size_t w = begin; w < end; w += Ops::kWords) {
    V x[16];
    for (std::size_t i = 0; i < 16; ++i) {
      x[i] = i < count ? Ops::xnor(Ops::load(pos[i] + w), Ops::load(val[i] + w))
                       : Ops::zero();
    }
    V c[8];  // weight 2
    V d[4];  // weight 4
    V e[2];  // weight 8
    const V s0 = fa(x[0], x[1], x[2], c[0]);
    const V s1 = fa(x[3], x[4], x[5], c[1]);
    const V s2 = fa(x[6], x[7], x[8], c[2]);
    const V s3 = fa(x[9], x[10], x[11], c[3]);
    const V s4 = fa(x[12], x[13], x[14], c[4]);
    const V s5 = fa(s0, s1, s2, c[5]);
    const V s6 = fa(s3, s4, x[15], c[6]);
    V bits[5];  // the per-lane count, weights 1..16
    bits[0] = ha(s5, s6, c[7]);
    const V t0 = fa(c[0], c[1], c[2], d[0]);
    const V t1 = fa(c[3], c[4], c[5], d[1]);
    const V t2 = fa(c[6], c[7], t0, d[2]);
    bits[1] = ha(t1, t2, d[3]);
    const V u0 = fa(d[0], d[1], d[2], e[0]);
    bits[2] = ha(u0, d[3], e[1]);
    bits[3] = ha(e[0], e[1], bits[4]);

    // Count weight 2^k lands on level k + 1 (the addends weigh 2 each).
    std::uint64_t* slice = slices + words + w;
    V carry = Ops::zero();
    std::size_t j = 1;
    for (; j < top; ++j, slice += words) {
      const V s = Ops::load(slice);
      Ops::store(slice, Ops::xor3(s, bits[j - 1], carry));
      carry = Ops::maj(s, bits[j - 1], carry);
    }
    for (; j < levels && !Ops::none(carry); ++j, slice += words) {
      const V s = Ops::load(slice);
      Ops::store(slice, Ops::xor2(s, carry));
      carry = Ops::and2(s, carry);
    }
  }
}

/// The bundle_bound kernel on vector ops \p Ops: full vectors first, then
/// the words past the last one on WordOps.
template <typename Ops>
HDTEST_HOT_PATH inline void bundle_bound_generic(
    std::uint64_t* slices, std::size_t words, std::size_t levels,
    const std::uint64_t* const* pos, const std::uint64_t* const* val,
    std::size_t count) noexcept {
  const std::size_t vec_end = words - words % Ops::kWords;
  bundle_bound_chunks<Ops>(slices, words, levels, pos, val, count, 0, vec_end);
  bundle_bound_chunks<WordOps>(slices, words, levels, pos, val, count, vec_end,
                               words);
}

/// Classes-outer / queries-inner sweep: each class prototype row is read
/// once per block while the B queries stay cache-resident. Ties keep the
/// lowest class index (strict <), matching the scalar predict exactly.
template <typename XorPop>
HDTEST_HOT_PATH inline void am_sweep_generic(
    const std::uint64_t* am, std::size_t classes, std::size_t stride,
    const std::uint64_t* const* queries, std::size_t count,
    std::uint32_t* best_class, std::uint64_t* best_ham, std::uint64_t* ref_ham,
    std::uint32_t ref_class, XorPop&& xor_pop) noexcept {
  if (count == 0 || classes == 0) return;
  for (std::size_t q = 0; q < count; ++q) {
    best_ham[q] = xor_pop(am, queries[q], stride);
    best_class[q] = 0;
  }
  if (ref_ham != nullptr && ref_class == 0) {
    for (std::size_t q = 0; q < count; ++q) ref_ham[q] = best_ham[q];
  }
  for (std::size_t c = 1; c < classes; ++c) {
    const std::uint64_t* row = am + c * stride;
    const bool is_ref = ref_ham != nullptr && c == ref_class;
    for (std::size_t q = 0; q < count; ++q) {
      const std::uint64_t ham = xor_pop(row, queries[q], stride);
      if (ham < best_ham[q]) {
        best_ham[q] = ham;
        best_class[q] = static_cast<std::uint32_t>(c);
      }
      if (is_ref) ref_ham[q] = ham;
    }
  }
}

}  // namespace hdtest::util::simd::detail
