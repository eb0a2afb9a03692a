// Property tests for the runtime-dispatched SIMD kernel layer: every
// compiled-and-supported backend must agree bit-for-bit with the portable
// SWAR reference on every kernel, across word counts that straddle the
// vector widths (1/2/4/8-word boundaries plus the paper's operating
// points). Also covers the selection API itself (registry shape, forced
// selection, unknown-name rejection).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "util/simd/kernels.hpp"

namespace hdtest::util::simd {
namespace {

/// Word counts straddling every backend's vector width (SWAR 1, NEON 2,
/// AVX2 4, AVX-512 8 words per op) plus larger mixed-tail sizes.
const std::size_t kWordCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 128, 129};

std::vector<std::uint64_t> random_words(std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> out(n);
  for (auto& w : out) w = rng.next_u64();
  return out;
}

const Kernels& swar() {
  for (const Kernels* k : registered_kernels()) {
    if (std::strcmp(k->name, "swar") == 0) return *k;
  }
  throw std::logic_error("SWAR backend missing from the registry");
}

TEST(SimdRegistry, SwarIsAlwaysRegisteredAndAvailable) {
  ASSERT_FALSE(registered_kernels().empty());
  ASSERT_FALSE(available_kernels().empty());
  bool found = false;
  for (const Kernels* k : available_kernels()) {
    found = found || std::strcmp(k->name, "swar") == 0;
    // Every available backend must also be registered.
    bool registered = false;
    for (const Kernels* r : registered_kernels()) registered |= r == k;
    EXPECT_TRUE(registered) << k->name;
  }
  EXPECT_TRUE(found);
}

TEST(SimdRegistry, ActiveBackendIsAvailable) {
  const Kernels& active = kernels();
  bool found = false;
  for (const Kernels* k : available_kernels()) found |= k == &active;
  EXPECT_TRUE(found) << active.name;
}

TEST(SimdRegistry, ForcingUnknownBackendThrows) {
  EXPECT_THROW(set_kernels_for_testing("definitely-not-a-backend"),
               std::invalid_argument);
  // A failed force must not have changed the active backend.
  const Kernels& active = kernels();
  bool found = false;
  for (const Kernels* k : available_kernels()) found |= k == &active;
  EXPECT_TRUE(found);
}

TEST(SimdRegistry, ForcingEachAvailableBackendSticks) {
  for (const Kernels* k : available_kernels()) {
    set_kernels_for_testing(k->name);
    EXPECT_STREQ(kernels().name, k->name);
  }
  set_kernels_for_testing(nullptr);  // restore default selection
}

TEST(SimdKernels, XorPopcountMatchesSwarEverywhere) {
  Rng rng(11);
  for (const std::size_t n : kWordCounts) {
    const auto a = random_words(n, rng);
    const auto b = random_words(n, rng);
    const auto expected = swar().xor_popcount(a.data(), b.data(), n);
    for (const Kernels* k : available_kernels()) {
      EXPECT_EQ(k->xor_popcount(a.data(), b.data(), n), expected)
          << k->name << " words=" << n;
    }
  }
  // Identical inputs: distance zero on every backend.
  const auto a = random_words(16, rng);
  for (const Kernels* k : available_kernels()) {
    EXPECT_EQ(k->xor_popcount(a.data(), a.data(), 16), 0u) << k->name;
  }
}

TEST(SimdKernels, CsaAddMatchesSwarIncludingEscapes) {
  Rng rng(12);
  for (const std::size_t words : kWordCounts) {
    for (const std::size_t levels : {1u, 3u, 5u}) {
      const auto bank0 = random_words(levels * words, rng);
      const auto a = random_words(words, rng);
      const auto b = random_words(words, rng);
      for (const bool with_xor : {false, true}) {
        auto expected_bank = bank0;
        // All-zero on entry, per the csa_add contract.
        std::vector<std::uint64_t> expected_carry(words, 0);
        const bool expected_escape = swar().csa_add(
            expected_bank.data(), words, levels, a.data(),
            with_xor ? b.data() : nullptr, expected_carry.data());
        for (const Kernels* k : available_kernels()) {
          auto bank = bank0;
          std::vector<std::uint64_t> carry(words, 0);
          const bool escape =
              k->csa_add(bank.data(), words, levels, a.data(),
                         with_xor ? b.data() : nullptr, carry.data());
          EXPECT_EQ(escape, expected_escape) << k->name << " words=" << words;
          EXPECT_EQ(bank, expected_bank)
              << k->name << " words=" << words << " levels=" << levels;
          EXPECT_EQ(carry, expected_carry)
              << k->name << " words=" << words << " levels=" << levels;
        }
      }
    }
  }
}

TEST(SimdKernels, CsaPatchMatchesSwar) {
  Rng rng(13);
  for (const std::size_t words : kWordCounts) {
    // Deep bank with zeroed top levels: realistic bias headroom, so the
    // ripple terminates inside the bank just like the re-encoder's use.
    const std::size_t levels = 8;
    auto bank0 = random_words(levels * words, rng);
    for (std::size_t i = 5 * words; i < bank0.size(); ++i) bank0[i] = 0;
    const auto pos = random_words(words, rng);
    const auto old_val = random_words(words, rng);
    const auto new_val = random_words(words, rng);
    auto expected = bank0;
    swar().csa_patch(expected.data(), words, levels, pos.data(),
                     old_val.data(), new_val.data());
    for (const Kernels* k : available_kernels()) {
      auto bank = bank0;
      k->csa_patch(bank.data(), words, levels, pos.data(), old_val.data(),
                   new_val.data());
      EXPECT_EQ(bank, expected) << k->name << " words=" << words;
    }
  }
}

TEST(SimdKernels, BipolarizePackedMatchesSwar) {
  Rng rng(14);
  for (const std::size_t dim : {63u, 64u, 65u, 1000u, 8192u}) {
    const std::size_t words = (dim + 63) / 64;
    std::vector<std::int32_t> lanes(dim);
    for (auto& lane : lanes) {
      lane = static_cast<std::int32_t>(rng.uniform_u64(7)) - 3;  // -3..3
    }
    const auto tb = random_words(words, rng);
    std::vector<std::uint64_t> expected(words, 0);
    swar().bipolarize_packed(lanes.data(), dim, tb.data(), expected.data());
    for (const Kernels* k : available_kernels()) {
      std::vector<std::uint64_t> out(words, 0);
      k->bipolarize_packed(lanes.data(), dim, tb.data(), out.data());
      EXPECT_EQ(out, expected) << k->name << " dim=" << dim;
    }
  }
}

TEST(SimdKernels, SliceBipolarizeMatchesSwar) {
  Rng rng(15);
  for (const std::size_t words : kWordCounts) {
    for (const std::size_t levels : {1u, 4u, 11u}) {
      const auto bank = random_words(levels * words, rng);
      const auto tb = random_words(words, rng);
      for (const std::uint32_t threshold :
           {0u, 1u, (1u << levels) - 1, 1u << (levels - 1)}) {
        std::vector<std::uint64_t> expected(words, 0);
        swar().slice_bipolarize(bank.data(), words, levels, threshold,
                                tb.data(), expected.data());
        for (const Kernels* k : available_kernels()) {
          std::vector<std::uint64_t> out(words, 0);
          k->slice_bipolarize(bank.data(), words, levels, threshold,
                              tb.data(), out.data());
          EXPECT_EQ(out, expected)
              << k->name << " words=" << words << " levels=" << levels
              << " threshold=" << threshold;
        }
      }
    }
  }
}

TEST(SimdKernels, AmSweepMatchesSwarWithAndWithoutRef) {
  Rng rng(16);
  for (const std::size_t stride : {1u, 2u, 16u, 128u}) {
    const std::size_t classes = 7;
    const auto am = random_words(classes * stride, rng);
    const std::size_t count = 13;
    std::vector<std::vector<std::uint64_t>> queries;
    std::vector<const std::uint64_t*> qptrs;
    for (std::size_t q = 0; q < count; ++q) {
      queries.push_back(random_words(stride, rng));
      qptrs.push_back(queries.back().data());
    }
    for (const std::uint32_t ref_class : {0u, 3u, 6u}) {
      std::vector<std::uint32_t> expected_cls(count);
      std::vector<std::uint64_t> expected_ham(count);
      std::vector<std::uint64_t> expected_ref(count);
      swar().am_sweep(am.data(), classes, stride, qptrs.data(), count,
                      expected_cls.data(), expected_ham.data(),
                      expected_ref.data(), ref_class);
      // Reference semantics: argmin Hamming, lowest index wins.
      for (std::size_t q = 0; q < count; ++q) {
        std::size_t best = 0;
        std::size_t best_ham =
            swar().xor_popcount(am.data(), qptrs[q], stride);
        for (std::size_t c = 1; c < classes; ++c) {
          const auto ham = swar().xor_popcount(am.data() + c * stride,
                                               qptrs[q], stride);
          if (ham < best_ham) {
            best = c;
            best_ham = ham;
          }
        }
        ASSERT_EQ(expected_cls[q], best);
        ASSERT_EQ(expected_ham[q], best_ham);
        ASSERT_EQ(expected_ref[q], swar().xor_popcount(
                                       am.data() + ref_class * stride,
                                       qptrs[q], stride));
      }
      for (const Kernels* k : available_kernels()) {
        std::vector<std::uint32_t> cls(count);
        std::vector<std::uint64_t> ham(count);
        std::vector<std::uint64_t> ref(count);
        k->am_sweep(am.data(), classes, stride, qptrs.data(), count,
                    cls.data(), ham.data(), ref.data(), ref_class);
        EXPECT_EQ(cls, expected_cls) << k->name << " stride=" << stride;
        EXPECT_EQ(ham, expected_ham) << k->name << " stride=" << stride;
        EXPECT_EQ(ref, expected_ref) << k->name << " stride=" << stride;
        // Null ref_ham: labels unchanged, no ref output required.
        std::vector<std::uint32_t> cls2(count);
        std::vector<std::uint64_t> ham2(count);
        k->am_sweep(am.data(), classes, stride, qptrs.data(), count,
                    cls2.data(), ham2.data(), nullptr, ref_class);
        EXPECT_EQ(cls2, expected_cls) << k->name;
      }
    }
  }
}

}  // namespace
}  // namespace hdtest::util::simd
