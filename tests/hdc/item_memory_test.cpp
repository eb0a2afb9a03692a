// Tests for hdc/item_memory: the packed codebook builders' strategies.

#include "hdc/item_memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "hdc/encoder.hpp"
#include "util/bitops.hpp"

namespace hdtest::hdc {
namespace {

PackedHv row(const PackedItemMemory& mem, std::size_t i) {
  return PackedHv::from_words(mem.dim(), mem.at(i));
}

double cosine_of(const PackedItemMemory& mem, std::size_t i, std::size_t j) {
  return cosine(row(mem, i), row(mem, j));
}

TEST(ItemMemory, RejectsZeroCountOrDim) {
  EXPECT_THROW(PackedItemMemory(0, 10, 1), std::invalid_argument);
  EXPECT_THROW(PackedItemMemory(10, 0, 1), std::invalid_argument);
}

TEST(ItemMemory, SizesAndAccessors) {
  const PackedItemMemory mem(5, 65, 7);
  EXPECT_EQ(mem.count(), 5u);
  EXPECT_EQ(mem.dim(), 65u);
  EXPECT_EQ(mem.words_per_entry(), 2u);
  EXPECT_TRUE(mem.owning());
  EXPECT_FALSE(mem.rematerializing());
  EXPECT_EQ(mem.at(4).size(), 2u);
  EXPECT_THROW((void)mem.at(5), std::out_of_range);
  EXPECT_EQ(mem[3].data(), mem.at(3).data());
}

TEST(ItemMemory, DeterministicInSeed) {
  const PackedItemMemory a(10, 128, 42);
  const PackedItemMemory b(10, 128, 42);
  EXPECT_TRUE(std::ranges::equal(a.words(), b.words()));
}

TEST(ItemMemory, DifferentSeedsDiffer) {
  const PackedItemMemory a(4, 128, 1);
  const PackedItemMemory b(4, 128, 2);
  EXPECT_NE(row(a, 0), row(b, 0));
}

TEST(ItemMemory, GrowingCountPreservesPrefix) {
  // Each entry derives from its own child stream, so adding entries must not
  // change existing ones (stability across configuration changes).
  const PackedItemMemory small(4, 64, 9, ValueStrategy::kRandom);
  const PackedItemMemory large(8, 64, 9, ValueStrategy::kRandom);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(row(small, i), row(large, i));
}

TEST(ItemMemoryRandom, EntriesAreMutuallyQuasiOrthogonal) {
  const PackedItemMemory mem(8, 10000, 3, ValueStrategy::kRandom);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = i + 1; j < 8; ++j) {
      EXPECT_LT(std::abs(cosine_of(mem, i, j)), 0.05)
          << "entries " << i << ", " << j;
    }
  }
}

TEST(ItemMemoryRandom, PositionRowsConcentrateAroundHalfD) {
  // Hamming distance of two i.i.d. rows is Binomial(D, 1/2): mean D/2,
  // standard deviation sqrt(D)/2. Every pair of the 28x28 position rows at
  // D = 4096 must sit within 6 standard deviations of D/2.
  constexpr std::size_t kDim = 4096;
  ModelConfig config;
  config.dim = kDim;
  const PackedItemMemory mem(28 * 28, kDim, position_codebook_seed(config));
  const auto bound = static_cast<std::int64_t>(6 * std::sqrt(kDim) / 2);
  std::int64_t worst = 0;
  for (std::size_t i = 0; i < mem.count(); ++i) {
    for (std::size_t j = i + 1; j < mem.count(); ++j) {
      const auto ham =
          static_cast<std::int64_t>(util::xor_popcount(mem[i], mem[j]));
      worst = std::max(worst, std::abs(ham - std::int64_t{kDim / 2}));
    }
  }
  EXPECT_LE(worst, bound);
}

TEST(ItemMemoryRandom, StoredAndRematDigestsAgree) {
  for (const std::size_t dim : {63, 64, 1000}) {
    const PackedItemMemory stored(40, dim, 21);
    EXPECT_EQ(stored.content_digest(),
              PackedItemMemory::remat(dim, 40, 21).content_digest())
        << "dim " << dim;
    EXPECT_NE(stored.content_digest(),
              PackedItemMemory::remat(dim, 40, 22).content_digest());
  }
}

TEST(ItemMemoryLevel, SimilarityDecaysWithLevelDistance) {
  const PackedItemMemory mem(16, 8192, 5, ValueStrategy::kLevel);
  // Adjacent levels nearly identical; endpoints near-orthogonal.
  EXPECT_GT(cosine_of(mem, 0, 1), 0.85);
  EXPECT_GT(cosine_of(mem, 0, 4), cosine_of(mem, 0, 12));
  EXPECT_LT(std::abs(cosine_of(mem, 0, 15)), 0.1);
}

TEST(ItemMemoryLevel, MonotonicDecayFromLevelZero) {
  const PackedItemMemory mem(8, 8192, 11, ValueStrategy::kLevel);
  double previous = 1.1;
  for (std::size_t level = 0; level < 8; ++level) {
    const double sim = cosine_of(mem, 0, level);
    EXPECT_LE(sim, previous + 1e-9) << "level " << level;
    previous = sim;
  }
}

TEST(ItemMemoryLevel, SingleEntryIsFine) {
  const PackedItemMemory mem(1, 64, 1, ValueStrategy::kLevel);
  EXPECT_EQ(mem.count(), 1u);
}

TEST(ItemMemoryThermometer, EndpointsAreAllMinusAndAllPlus) {
  const PackedItemMemory mem(5, 100, 13, ValueStrategy::kThermometer);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(row(mem, 0).get(i), -1);
    EXPECT_EQ(row(mem, 4).get(i), 1);
  }
}

TEST(ItemMemoryThermometer, PlusCountGrowsLinearly) {
  const PackedItemMemory mem(5, 100, 13, ValueStrategy::kThermometer);
  // Set bits are -1 elements; the tail bits past dim stay clear.
  auto plus_count = [&](std::size_t level) {
    return 100 - util::popcount(mem.at(level));
  };
  EXPECT_EQ(plus_count(0), 0u);
  EXPECT_EQ(plus_count(1), 25u);
  EXPECT_EQ(plus_count(2), 50u);
  EXPECT_EQ(plus_count(3), 75u);
  EXPECT_EQ(plus_count(4), 100u);
}

TEST(ItemMemoryThermometer, SimilarityDecaysMonotonically) {
  const PackedItemMemory mem(9, 1024, 17, ValueStrategy::kThermometer);
  double previous = 1.1;
  for (std::size_t level = 0; level < 9; ++level) {
    const double sim = cosine_of(mem, 0, level);
    EXPECT_LE(sim, previous + 1e-9);
    previous = sim;
  }
}

}  // namespace
}  // namespace hdtest::hdc
