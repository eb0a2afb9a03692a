// Property tests for the runtime-dispatched kernel layer: every
// compiled-and-supported backend must agree bit-for-bit with the scalar
// oracle on every kernel, across word counts that straddle the vector widths
// (1/2/4/8-word boundaries plus the paper's operating points). The oracle
// itself is pinned by absolute checks (planted AM matches, lowest-index
// ties, zero tail bits, naive per-lane bundle counts). Also covers the
// selection API itself (registry shape, forced selection, unknown-name
// rejection).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/bitops.hpp"
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

const Kernels& oracle() {
  for (const Kernels* k : registered_kernels()) {
    if (std::strcmp(k->name, "oracle") == 0) return *k;
  }
  throw std::logic_error("oracle backend missing from the registry");
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
  const Kernels& before = kernels();
  EXPECT_THROW(set_kernels_for_testing("definitely-not-a-backend"),
               std::invalid_argument);
  // A failed force must not have changed the active backend.
  EXPECT_EQ(&kernels(), &before);
}

TEST(SimdRegistry, ForcingEachAvailableBackendSticks) {
  for (const Kernels* k : available_kernels()) {
    set_kernels_for_testing(k->name);
    EXPECT_STREQ(kernels().name, k->name);
  }
  set_kernels_for_testing(nullptr);  // restore default selection
}

TEST(SimdRegistry, OracleIsAvailableLastAndOnlyByName) {
  const auto available = available_kernels();
  ASSERT_FALSE(available.empty());
  EXPECT_EQ(available.back(), &oracle());
  // Automatic selection takes front(), which is always a production
  // backend (SWAR at worst).
  EXPECT_STRNE(available.front()->name, "oracle");

  set_kernels_for_testing("oracle");
  EXPECT_EQ(&kernels(), &oracle());
  // An empty name re-runs the default selection, which honors
  // HDTEST_KERNEL_BACKEND (so a forced-oracle run may legitimately stay on
  // the oracle).
  set_kernels_for_testing("");
  const char* forced = std::getenv("HDTEST_KERNEL_BACKEND");
  if (forced == nullptr || *forced == '\0') {
    EXPECT_EQ(&kernels(), available.front());
  }
  bool found = false;
  for (const Kernels* k : available) found |= k == &kernels();
  EXPECT_TRUE(found) << kernels().name;
}

TEST(SimdKernels, XorPopcountMatchesOracleEverywhere) {
  Rng rng(11);
  for (const std::size_t n : kWordCounts) {
    const auto a = random_words(n, rng);
    const auto b = random_words(n, rng);
    const auto expected = oracle().xor_popcount(a.data(), b.data(), n);
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

/// Stored value of lane \p lane in a level-major bank.
std::uint64_t stored_value(const std::vector<std::uint64_t>& bank,
                           std::size_t words, std::size_t levels,
                           std::size_t lane) {
  std::uint64_t value = 0;
  for (std::size_t j = 0; j < levels; ++j) {
    value |= ((bank[j * words + lane / 64] >> (lane % 64)) & 1u) << j;
  }
  return value;
}

// Every backend's Harley–Seal tree against the oracle, for every addend
// count a group can have, at dims straddling the vector widths and the
// paper's operating points. Half the lanes of each bank are pre-biased to
// within 40 of the top of their headroom (2^levels - 1 - 2*count), the other
// half anywhere below it, so carries out of level 5 ripple through runs of
// set high levels and stop at every height. The oracle is pinned to the
// naive per-lane count.
TEST(SimdKernels, BundleBoundMatchesOracle) {
  Rng rng(12);
  bool high_ripple = false;
  for (const std::size_t dim : {63u, 64u, 65u, 4096u, 16384u}) {
    const std::size_t words = (dim + 63) / 64;
    std::vector<std::vector<std::uint64_t>> rows;
    for (std::size_t i = 0; i < 32; ++i) {
      rows.push_back(random_words(words, rng));
    }
    std::vector<const std::uint64_t*> pos;
    std::vector<const std::uint64_t*> val;
    for (std::size_t i = 0; i < 16; ++i) {
      pos.push_back(rows[i].data());
      val.push_back(rows[16 + i].data());
    }
    for (const std::size_t levels : {2u, 4u, 6u, 7u, 12u}) {
      for (std::size_t count = 0; count <= 16; ++count) {
        const std::uint64_t top = (1u << levels) - 1;
        if (2 * count > top) continue;
        const std::uint64_t headroom = top - 2 * count;
        std::vector<std::uint64_t> bank0(levels * words, 0);
        for (std::size_t lane = 0; lane < words * 64; ++lane) {
          const std::uint64_t value =
              lane % 2 == 0
                  ? rng.uniform_u64(headroom + 1)
                  : headroom - rng.uniform_u64(
                                   std::min<std::uint64_t>(40, headroom) + 1);
          for (std::size_t j = 0; j < levels; ++j) {
            bank0[j * words + lane / 64] |= ((value >> j) & 1u) << (lane % 64);
          }
        }
        auto expected = bank0;
        oracle().bundle_bound(expected.data(), words, levels, pos.data(),
                              val.data(), count);
        for (std::size_t lane = 0; lane < words * 64; ++lane) {
          std::uint64_t clear = 0;
          for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t bound = ~(pos[i][lane / 64] ^ val[i][lane / 64]);
            clear += (bound >> (lane % 64)) & 1u;
          }
          ASSERT_EQ(stored_value(expected, words, levels, lane),
                    stored_value(bank0, words, levels, lane) + 2 * clear)
              << "dim=" << dim << " levels=" << levels << " count=" << count
              << " lane=" << lane;
        }
        for (std::size_t j = 7; j < levels; ++j) {
          for (std::size_t w = 0; w < words; ++w) {
            high_ripple |= expected[j * words + w] != bank0[j * words + w];
          }
        }
        for (const Kernels* k : available_kernels()) {
          auto bank = bank0;
          k->bundle_bound(bank.data(), words, levels, pos.data(), val.data(),
                          count);
          EXPECT_EQ(bank, expected) << k->name << " dim=" << dim
                                    << " levels=" << levels
                                    << " count=" << count;
        }
      }
    }
  }
  // A carry reached level 7, so the ripple above the tree's five output
  // levels was compared, not just the multi-bit add.
  EXPECT_TRUE(high_ripple);
}

TEST(SimdKernels, CsaPatchMatchesOracle) {
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
    oracle().csa_patch(expected.data(), words, levels, pos.data(),
                     old_val.data(), new_val.data());
    for (const Kernels* k : available_kernels()) {
      auto bank = bank0;
      k->csa_patch(bank.data(), words, levels, pos.data(), old_val.data(),
                   new_val.data());
      EXPECT_EQ(bank, expected) << k->name << " words=" << words;
    }
  }
}

TEST(SimdKernels, BipolarizePackedMatchesOracle) {
  Rng rng(14);
  for (const std::size_t dim : {63u, 64u, 65u, 1000u, 8192u}) {
    const std::size_t words = (dim + 63) / 64;
    std::vector<std::int32_t> lanes(dim);
    for (auto& lane : lanes) {
      lane = static_cast<std::int32_t>(rng.uniform_u64(7)) - 3;  // -3..3
    }
    const auto tb = random_words(words, rng);
    std::vector<std::uint64_t> expected(words, 0);
    oracle().bipolarize_packed(lanes.data(), dim, tb.data(), expected.data());
    for (const Kernels* k : available_kernels()) {
      // Pre-set every bit: the kernel must write every word, and the bits
      // past dim must come back zero.
      std::vector<std::uint64_t> out(words, ~0ULL);
      k->bipolarize_packed(lanes.data(), dim, tb.data(), out.data());
      EXPECT_EQ(out, expected) << k->name << " dim=" << dim;
      EXPECT_EQ(out.back() & ~tail_mask(dim), 0u) << k->name << " dim=" << dim;
    }
  }
}

TEST(SimdKernels, SliceBipolarizeMatchesOracle) {
  Rng rng(15);
  for (const std::size_t words : kWordCounts) {
    for (const std::size_t levels : {1u, 4u, 11u}) {
      const auto bank = random_words(levels * words, rng);
      const auto tb = random_words(words, rng);
      for (const std::uint32_t threshold :
           {0u, 1u, (1u << levels) - 1, 1u << (levels - 1)}) {
        std::vector<std::uint64_t> expected(words, 0);
        oracle().slice_bipolarize(bank.data(), words, levels, threshold,
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

TEST(SimdKernels, AmSweepMatchesOracleWithAndWithoutRef) {
  Rng rng(16);
  for (const std::size_t stride : {1u, 2u, 8u, 16u, 128u}) {
    const std::size_t classes = 7;
    auto am = random_words(classes * stride, rng);
    // Class 5 duplicates class 3, and query 2 is that row: an exact match
    // tied between two classes, which the lower index must win.
    std::copy_n(am.begin() + 3 * stride, stride, am.begin() + 5 * stride);
    const std::size_t count = 13;
    std::vector<std::vector<std::uint64_t>> queries;
    std::vector<const std::uint64_t*> qptrs;
    for (std::size_t q = 0; q < count; ++q) {
      queries.push_back(q == 2 ? std::vector<std::uint64_t>(
                                     am.begin() + 3 * stride,
                                     am.begin() + 4 * stride)
                               : random_words(stride, rng));
    }
    for (const auto& query : queries) qptrs.push_back(query.data());
    for (const std::uint32_t ref_class : {0u, 3u, 6u}) {
      std::vector<std::uint32_t> expected_cls(count);
      std::vector<std::uint64_t> expected_ham(count);
      std::vector<std::uint64_t> expected_ref(count);
      oracle().am_sweep(am.data(), classes, stride, qptrs.data(), count,
                      expected_cls.data(), expected_ham.data(),
                      expected_ref.data(), ref_class);
      // Reference semantics: argmin Hamming, lowest index wins.
      for (std::size_t q = 0; q < count; ++q) {
        std::size_t best = 0;
        std::size_t best_ham =
            oracle().xor_popcount(am.data(), qptrs[q], stride);
        for (std::size_t c = 1; c < classes; ++c) {
          const auto ham = oracle().xor_popcount(am.data() + c * stride,
                                               qptrs[q], stride);
          if (ham < best_ham) {
            best = c;
            best_ham = ham;
          }
        }
        ASSERT_EQ(expected_cls[q], best);
        ASSERT_EQ(expected_ham[q], best_ham);
        ASSERT_EQ(expected_ref[q], oracle().xor_popcount(
                                       am.data() + ref_class * stride,
                                       qptrs[q], stride));
      }
      EXPECT_EQ(expected_cls[2], 3u) << "stride=" << stride;
      EXPECT_EQ(expected_ham[2], 0u) << "stride=" << stride;
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
