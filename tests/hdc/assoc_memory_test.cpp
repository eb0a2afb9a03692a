// Tests for hdc/assoc_memory: training lanes, querying, retraining.

#include "hdc/assoc_memory.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "dense_oracle.hpp"

namespace hdtest::hdc {
namespace {

PackedHv random_hv(std::size_t dim, std::uint64_t seed) {
  util::Rng rng(seed);
  return PackedHv::random(dim, rng);
}

PackedHv class_hv(const AssociativeMemory& am, std::size_t cls) {
  return PackedHv::from_words(am.dim(), am.packed().class_words(cls));
}

/// Eq. 1 over \p am's accumulators, computed by the dense reference.
void expect_reference_class_hvs(const AssociativeMemory& am,
                                std::uint64_t seed) {
  const auto reference = oracle::class_hvs(am, seed);
  for (std::size_t c = 0; c < am.num_classes(); ++c) {
    EXPECT_EQ(class_hv(am, c), oracle::pack(reference[c])) << "class " << c;
  }
}

TEST(AssociativeMemory, ValidatesConstruction) {
  EXPECT_THROW(AssociativeMemory(0, 16, 1), std::invalid_argument);
  EXPECT_THROW(AssociativeMemory(3, 0, 1), std::invalid_argument);
  const AssociativeMemory am(3, 16, 1);
  EXPECT_EQ(am.num_classes(), 3u);
  EXPECT_EQ(am.dim(), 16u);
  EXPECT_FALSE(am.finalized());
}

TEST(AssociativeMemory, QueryBeforeFinalizeThrows) {
  AssociativeMemory am(2, 16, 1);
  am.add_packed(0, random_hv(16, 1));
  EXPECT_THROW((void)am.packed(), std::logic_error);
}

TEST(AssociativeMemory, AddRejectsBadClass) {
  AssociativeMemory am(2, 16, 1);
  EXPECT_THROW(am.add_packed(2, random_hv(16, 1)), std::out_of_range);
  EXPECT_THROW(am.add_packed(0, random_hv(17, 1)), std::invalid_argument);
}

TEST(AssociativeMemory, AccumulatorTracksSignedAdds) {
  AssociativeMemory am(1, 4, 1);
  const auto v = oracle::pack(oracle::Hypervector::from_raw({1, -1, 1, -1}));
  am.add_packed(0, v);
  am.add_packed(0, v);
  am.add_packed(0, v, -1);
  EXPECT_EQ(am.accumulator(0).lane(0), 1);
  EXPECT_EQ(am.accumulator(0).lane(1), -1);
  EXPECT_THROW((void)am.accumulator(1), std::out_of_range);
}

TEST(AssociativeMemory, SingleExampleClassMatchesItsHv) {
  AssociativeMemory am(2, 1024, 7);
  const auto a = random_hv(1024, 10);
  const auto b = random_hv(1024, 20);
  am.add_packed(0, a);
  am.add_packed(1, b);
  am.finalize();
  EXPECT_TRUE(am.finalized());
  // A single bundled HV bipolarizes back to itself (no zero lanes).
  EXPECT_EQ(class_hv(am, 0), a);
  EXPECT_EQ(class_hv(am, 1), b);
}

TEST(AssociativeMemory, PredictReturnsNearestClass) {
  AssociativeMemory am(3, 2048, 3);
  const auto c0 = random_hv(2048, 1);
  const auto c1 = random_hv(2048, 2);
  const auto c2 = random_hv(2048, 3);
  am.add_packed(0, c0);
  am.add_packed(1, c1);
  am.add_packed(2, c2);
  am.finalize();
  EXPECT_EQ(am.packed().predict(c0), 0u);
  EXPECT_EQ(am.packed().predict(c1), 1u);
  EXPECT_EQ(am.packed().predict(c2), 2u);
}

TEST(AssociativeMemory, SimilaritiesHaveOneEntryPerClass) {
  AssociativeMemory am(4, 256, 5);
  for (std::size_t c = 0; c < 4; ++c) am.add_packed(c, random_hv(256, c + 1));
  am.finalize();
  const auto sims = am.packed().similarities(random_hv(256, 99));
  EXPECT_EQ(sims.size(), 4u);
  for (const auto s : sims) {
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(AssociativeMemory, SimilarityToMatchesSimilaritiesVector) {
  AssociativeMemory am(3, 512, 5);
  for (std::size_t c = 0; c < 3; ++c) am.add_packed(c, random_hv(512, c + 1));
  am.finalize();
  const auto query = random_hv(512, 42);
  const auto sims = am.packed().similarities(query);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(am.packed().similarity_to(c, query), sims[c]);
  }
  EXPECT_THROW((void)am.packed().similarity_to(3, query), std::out_of_range);
}

TEST(AssociativeMemory, HammingMetricRanksLikeCosine) {
  // For bipolar HVs the two metrics are affinely related -> same argmax.
  AssociativeMemory cos_am(3, 1024, 5, Similarity::kCosine);
  AssociativeMemory ham_am(3, 1024, 5, Similarity::kHamming);
  for (std::size_t c = 0; c < 3; ++c) {
    const auto hv = random_hv(1024, 100 + c);
    cos_am.add_packed(c, hv);
    ham_am.add_packed(c, hv);
  }
  cos_am.finalize();
  ham_am.finalize();
  for (std::uint64_t q = 0; q < 10; ++q) {
    const auto query = random_hv(1024, 500 + q);
    EXPECT_EQ(cos_am.packed().predict(query), ham_am.packed().predict(query));
  }
}

TEST(AssociativeMemory, RefinalizeAfterRetrainingUpdates) {
  AssociativeMemory am(2, 4096, 9);
  const auto a = random_hv(4096, 1);
  const auto b = random_hv(4096, 2);
  const auto query = random_hv(4096, 3);
  am.add_packed(0, a);
  am.add_packed(1, b);
  am.finalize();
  const auto before = am.packed().similarity_to(0, query);
  // Absorb the query into class 0: similarity must rise.
  am.add_packed(0, query);
  EXPECT_FALSE(am.finalized());
  am.finalize();
  EXPECT_GT(am.packed().similarity_to(0, query), before);
  // Class 0 now has ~D/2 zero lanes, each resolved by the tie-break.
  expect_reference_class_hvs(am, 9);
}

TEST(AssociativeMemory, TieBreakIsDeterministicPerSeed) {
  // Empty accumulators are all ties -> class HV equals the tie-break vector;
  // two AMs with the same seed agree, different seeds (almost surely) differ.
  AssociativeMemory a1(1, 256, 77);
  AssociativeMemory a2(1, 256, 77);
  AssociativeMemory b(1, 256, 78);
  a1.finalize();
  a2.finalize();
  b.finalize();
  EXPECT_EQ(class_hv(a1, 0), class_hv(a2, 0));
  EXPECT_NE(class_hv(a1, 0), class_hv(b, 0));
  expect_reference_class_hvs(a1, 77);
}

TEST(AssociativeMemory, PredictTieBreaksTowardLowerIndex) {
  AssociativeMemory am(2, 64, 1);
  const auto same = random_hv(64, 5);
  am.add_packed(0, same);
  am.add_packed(1, same);
  am.finalize();
  EXPECT_EQ(am.packed().predict(same), 0u);
}

}  // namespace
}  // namespace hdtest::hdc
