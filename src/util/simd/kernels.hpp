#pragma once
/// \file kernels.hpp
/// Runtime-dispatched SIMD kernel layer for the packed hot paths.
///
/// Every steady-state cycle of the fuzz loop burns inside a handful of
/// word-parallel kernels: XOR+popcount class sweeps, the Harley–Seal
/// carry-save bundling of the full image encode, the fused Eq. 1
/// bipolarize, and the bit-sliced delta re-encoder's patch/threshold passes.
/// These map directly onto wide vector lanes (Schmuck et al., JETC'19), so
/// each kernel is provided by several backends:
///
///   swar    portable uint64 SWAR — always compiled; the production
///           fallback on CPUs without a vector backend.
///   avx2    256-bit lanes; popcount via the vpshufb nibble-LUT + psadbw
///           reduction (Mula's method).
///   avx512  512-bit lanes with native VPOPCNTDQ popcounts (requires
///           AVX-512F + VPOPCNTDQ).
///   neon    aarch64 only: vcnt-based popcounts; the remaining kernels fall
///           back to SWAR.
///   oracle  straight-line scalar loops — always compiled, never
///           auto-selected; the reference every other backend must agree
///           with bit-for-bit.
///
/// This table is the one compute seam: the encoders and the associative
/// memories call kernels() directly, so a new kernel is one field here plus
/// one function per backend file.
///
/// One backend is selected at startup: explicitly via the
/// HDTEST_KERNEL_BACKEND environment variable ("swar" / "avx2" / "avx512" /
/// "neon" / "oracle"; unknown or unsupported values warn and fall back),
/// otherwise the best backend the CPU supports (detected via CPUID + XGETBV
/// so AVX state must actually be OS-enabled). All backends produce
/// identical bits for identical inputs — property tests sweep every
/// available backend against the oracle.

#include <cstddef>
#include <cstdint>
#include <span>

namespace hdtest::util::simd {

/// Function-pointer table of one kernel backend. All functions are pure
/// word/lane transforms with caller-owned storage; none allocate or throw.
struct Kernels {
  /// Backend identifier: "swar", "avx2", "avx512", "neon", or "oracle".
  const char* name;

  /// popcount(a[i] ^ b[i]) summed over \p words words (packed Hamming
  /// distance — the inference kernel).
  std::size_t (*xor_popcount)(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t words) noexcept;

  /// Harley–Seal bundling of \p count <= 16 bound pixel vectors into a
  /// level-major bit-slice bank (\p levels x \p words): adds
  ///   sum_i ~(pos[i][w] ^ val[i][w])
  /// at weight 2 (level 1) to every lane, i.e. twice the number of pixels
  /// whose bound vector has a clear bit (element +1) there. Per word chunk a
  /// carry-save tree reduces the inputs in registers to a 5-bit count, one
  /// multi-bit add puts it into levels 1-5, and the carry ripples above
  /// level 5 with an early exit. The caller's bias headroom guarantees that
  /// no carry escapes the bank (see the full encode in hdc/encoder.cpp).
  void (*bundle_bound)(std::uint64_t* slices, std::size_t words,
                       std::size_t levels, const std::uint64_t* const* pos,
                       const std::uint64_t* const* val,
                       std::size_t count) noexcept;

  /// The delta re-encoder's patch kernel: adds the one-pixel value swap
  /// old -> new at packed position row \p pos into a biased slice bank as
  /// two weight-2 ripple-carry adds per word,
  ///   2*(pos^old)_bit + 2*(~(pos^new))_bit,
  /// CSA-combined so the common case ripples once. The caller's bias
  /// headroom guarantees no carry escapes the bank (see
  /// IncrementalPixelEncoder::rebuild_base_slices).
  void (*csa_patch)(std::uint64_t* slices, std::size_t words,
                    std::size_t levels, const std::uint64_t* pos,
                    const std::uint64_t* old_val,
                    const std::uint64_t* new_val) noexcept;

  /// Fused Eq. 1 + sign-bit packing over int32 accumulator lanes:
  ///   out bit i = 1 (element -1) iff lanes[i] < 0, or lanes[i] == 0 with a
  ///   set tie-break bit.
  /// Writes words_for_bits(n) words; tail bits past n are zero.
  void (*bipolarize_packed)(const std::int32_t* lanes, std::size_t n,
                            const std::uint64_t* tie_break,
                            std::uint64_t* out) noexcept;

  /// Eq. 1 over a *bit-sliced biased* lane bank (the delta re-encoder's
  /// representation): per lane, compare the stored \p levels-bit count
  /// against \p threshold MSB-down — less-than decides sign (-1), exact
  /// equality is the Eq. 1 tie resolved from \p tie_break. The caller masks
  /// the tail word.
  void (*slice_bipolarize)(const std::uint64_t* slices, std::size_t words,
                           std::size_t levels, std::uint32_t threshold,
                           const std::uint64_t* tie_break,
                           std::uint64_t* out) noexcept;

  /// Query-blocked associative-memory sweep: classes outer, queries inner,
  /// so every class prototype row is streamed exactly once per block while
  /// the block of queries stays cache-resident. Per query q writes the
  /// argmin-Hamming class (lowest index wins ties, matching the scalar
  /// predict exactly) and its Hamming distance; when \p ref_ham is non-null
  /// additionally records the distance to \p ref_class (the fuzzer's
  /// fitness ingredient) in the same pass.
  void (*am_sweep)(const std::uint64_t* am, std::size_t classes,
                   std::size_t stride, const std::uint64_t* const* queries,
                   std::size_t count, std::uint32_t* best_class,
                   std::uint64_t* best_ham, std::uint64_t* ref_ham,
                   std::uint32_t ref_class) noexcept;
};

/// The active backend. Selected once on first use (HDTEST_KERNEL_BACKEND
/// override, else best supported); subsequent calls are one atomic load.
[[nodiscard]] const Kernels& kernels() noexcept;

/// Every backend compiled into this binary (SWAR and the oracle always;
/// AVX2/AVX-512 when the compiler could target them; NEON on aarch64) —
/// including ones this CPU cannot run.
[[nodiscard]] std::span<const Kernels* const> registered_kernels() noexcept;

/// Compiled backends this CPU can actually execute, best first (the set the
/// property tests sweep). Never empty: SWAR and the oracle are always
/// present, and the oracle is always last.
[[nodiscard]] std::span<const Kernels* const> available_kernels() noexcept;

/// Test hook: forces the named backend (must be available). Passing nullptr
/// or "" re-runs the default selection, honoring HDTEST_KERNEL_BACKEND.
/// \throws std::invalid_argument for a name that is unknown, not compiled
/// in, or unsupported by this CPU.
void set_kernels_for_testing(const char* name);

}  // namespace hdtest::util::simd
