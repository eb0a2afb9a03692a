// Tests for the dense reference's HDC algebra and its invariants, and for
// the library's bundling accumulator and Eq. 1 against it.

#include "dense_oracle.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "hdc/accumulator.hpp"

namespace hdtest::oracle {
namespace {

using hdc::Accumulator;
using hdc::PackedHv;

TEST(Hypervector, DefaultIsEmpty) {
  Hypervector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.dim(), 0u);
}

TEST(Hypervector, SizedConstructionIsAllOnes) {
  Hypervector v(16);
  EXPECT_EQ(v.dim(), 16u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(v[i], 1);
}

TEST(Hypervector, ZeroDimThrows) {
  EXPECT_THROW(Hypervector(0), std::invalid_argument);
}

TEST(Hypervector, RandomElementsAreBipolar) {
  util::Rng rng(1);
  const auto v = Hypervector::random(1000, rng);
  for (std::size_t i = 0; i < v.dim(); ++i) {
    EXPECT_TRUE(v[i] == 1 || v[i] == -1);
  }
}

TEST(Hypervector, RandomIsApproximatelyBalanced) {
  util::Rng rng(2);
  const auto v = Hypervector::random(10000, rng);
  int sum = 0;
  for (std::size_t i = 0; i < v.dim(); ++i) sum += v[i];
  // Mean 0, stddev sqrt(D) = 100; |sum| < 5 sigma.
  EXPECT_LT(std::abs(sum), 500);
}

TEST(Hypervector, FromRawValidatesDomain) {
  EXPECT_NO_THROW(Hypervector::from_raw({1, -1, 1}));
  EXPECT_THROW((void)Hypervector::from_raw({1, 0, 1}), std::invalid_argument);
  EXPECT_THROW((void)Hypervector::from_raw({2}), std::invalid_argument);
}

TEST(Hypervector, SetAndFlipAreChecked) {
  Hypervector v(4);
  v.set(2, -1);
  EXPECT_EQ(v[2], -1);
  v.flip(2);
  EXPECT_EQ(v[2], 1);
  EXPECT_THROW(v.set(4, 1), std::out_of_range);
  EXPECT_THROW(v.set(0, 0), std::invalid_argument);
  EXPECT_THROW(v.flip(4), std::out_of_range);
}

TEST(Bind, IsElementwiseProduct) {
  const auto a = Hypervector::from_raw({1, -1, 1, -1});
  const auto b = Hypervector::from_raw({1, 1, -1, -1});
  const auto c = bind(a, b);
  EXPECT_EQ(c, Hypervector::from_raw({1, -1, -1, 1}));
}

TEST(Bind, IsCommutative) {
  util::Rng rng(3);
  const auto a = Hypervector::random(256, rng);
  const auto b = Hypervector::random(256, rng);
  EXPECT_EQ(bind(a, b), bind(b, a));
}

TEST(Bind, IsAssociative) {
  util::Rng rng(4);
  const auto a = Hypervector::random(128, rng);
  const auto b = Hypervector::random(128, rng);
  const auto c = Hypervector::random(128, rng);
  EXPECT_EQ(bind(bind(a, b), c), bind(a, bind(b, c)));
}

TEST(Bind, IsSelfInverse) {
  // For bipolar HVs, a (*) a = identity and (a (*) b) (*) b = a.
  util::Rng rng(5);
  const auto a = Hypervector::random(512, rng);
  const auto b = Hypervector::random(512, rng);
  EXPECT_EQ(bind(bind(a, b), b), a);
  EXPECT_EQ(bind(a, a), Hypervector(512));  // all +1
}

TEST(Bind, ProducesQuasiOrthogonalOutput) {
  // The paper: multiplication produces HVs orthogonal to the operands.
  util::Rng rng(6);
  const auto a = Hypervector::random(10000, rng);
  const auto b = Hypervector::random(10000, rng);
  const auto c = bind(a, b);
  EXPECT_LT(std::abs(cosine(c, a)), 0.05);
  EXPECT_LT(std::abs(cosine(c, b)), 0.05);
}

TEST(Bind, DimensionMismatchThrows) {
  const Hypervector a(4);
  const Hypervector b(5);
  EXPECT_THROW((void)bind(a, b), std::invalid_argument);
}

TEST(DotCosineHamming, ConsistencyRelations) {
  util::Rng rng(11);
  const auto a = Hypervector::random(2048, rng);
  const auto b = Hypervector::random(2048, rng);
  const auto d = dot(a, b);
  const auto h = hamming(a, b);
  // dot = D - 2 * hamming for bipolar vectors.
  EXPECT_EQ(d, static_cast<std::int64_t>(a.dim()) -
                   2 * static_cast<std::int64_t>(h));
  EXPECT_DOUBLE_EQ(cosine(a, b),
                   static_cast<double>(d) / static_cast<double>(a.dim()));
  EXPECT_DOUBLE_EQ(hamming_similarity(a, b),
                   1.0 - static_cast<double>(h) / static_cast<double>(a.dim()));
}

TEST(DotCosineHamming, SelfSimilarityIsMaximal) {
  util::Rng rng(12);
  const auto a = Hypervector::random(512, rng);
  EXPECT_EQ(dot(a, a), 512);
  EXPECT_DOUBLE_EQ(cosine(a, a), 1.0);
  EXPECT_EQ(hamming(a, a), 0u);
  EXPECT_DOUBLE_EQ(hamming_similarity(a, a), 1.0);
}

TEST(DotCosineHamming, RandomPairsAreQuasiOrthogonal) {
  util::Rng rng(13);
  const auto a = Hypervector::random(10000, rng);
  const auto b = Hypervector::random(10000, rng);
  // E[cos] = 0, stddev = 1/sqrt(D) = 0.01; 5-sigma band.
  EXPECT_LT(std::abs(cosine(a, b)), 0.05);
}

TEST(DotCosineHamming, MismatchAndEmptyThrow) {
  const Hypervector a(4);
  const Hypervector b(5);
  EXPECT_THROW((void)dot(a, b), std::invalid_argument);
  EXPECT_THROW((void)cosine(a, b), std::invalid_argument);
  EXPECT_THROW((void)hamming(a, b), std::invalid_argument);
  const Hypervector e1;
  const Hypervector e2;
  EXPECT_THROW((void)cosine(e1, e2), std::invalid_argument);
  EXPECT_THROW((void)hamming_similarity(e1, e2), std::invalid_argument);
}

TEST(Accumulator, ZeroDimThrows) {
  EXPECT_THROW(Accumulator(0), std::invalid_argument);
}

TEST(Accumulator, AddAndSubtractTrackLanes) {
  Accumulator acc(4);
  const auto v = pack(Hypervector::from_raw({1, -1, 1, -1}));
  acc.add_packed(v.words());
  acc.add_packed(v.words());
  acc.add_packed(v.words(), -1);
  EXPECT_EQ(acc.lane(0), 1);
  EXPECT_EQ(acc.lane(1), -1);
  EXPECT_EQ(acc.lane(2), 1);
  EXPECT_EQ(acc.lane(3), -1);
}

TEST(Accumulator, AddBoundMatchesExplicitBind) {
  // The library binds packed HVs by XOR; the reference multiplies elements.
  util::Rng rng(14);
  const auto a = Hypervector::random(257, rng);
  const auto b = Hypervector::random(257, rng);
  Lanes direct(257, 0);
  add(direct, bind(a, b));
  Accumulator packed(257);
  packed.add_packed(hdc::bind(pack(a), pack(b)).words());
  EXPECT_EQ(Lanes(packed.lanes().begin(), packed.lanes().end()), direct);
}

TEST(Accumulator, ClearZeroesLanes) {
  Accumulator acc(8);
  acc.add_packed(PackedHv(8).words());
  acc.clear();
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(acc.lane(i), 0);
}

TEST(Accumulator, BipolarizeFollowsEq1) {
  const auto acc = Accumulator::from_lanes({2, -2, 0});
  // Lane 2 is zero: the tie-break vector decides it.
  const auto tie = Hypervector::from_raw({-1, -1, -1});
  EXPECT_EQ(acc.bipolarize_packed(pack(tie)),
            pack(Hypervector::from_raw({1, -1, -1})));
  const auto tie2 = Hypervector::from_raw({1, 1, 1});
  EXPECT_EQ(acc.bipolarize_packed(pack(tie2)).get(2), 1);
  EXPECT_EQ(bipolarize(acc.lanes(), tie), Hypervector::from_raw({1, -1, -1}));
}

TEST(Accumulator, BipolarizeChecksTieBreakDim) {
  Accumulator acc(4);
  EXPECT_THROW((void)acc.bipolarize_packed(PackedHv(3)),
               std::invalid_argument);
}

TEST(Bundle, PreservesSimilarityToOperands) {
  // The paper: addition preserves ~50% of each operand. The bundle of two
  // random HVs has cosine ~0.5 to each (exactly 0.5 in expectation).
  util::Rng rng(16);
  const auto a = PackedHv::random(10000, rng);
  const auto b = PackedHv::random(10000, rng);
  const auto tie = PackedHv::random(10000, rng);
  Accumulator acc(10000);
  acc.add_packed(a.words());
  acc.add_packed(b.words());
  const auto bundled = acc.bipolarize_packed(tie);
  EXPECT_NEAR(hdc::cosine(bundled, a), 0.5, 0.05);
  EXPECT_NEAR(hdc::cosine(bundled, b), 0.5, 0.05);
}

TEST(Bundle, MajorityWinsWithThreeOperands) {
  Accumulator acc(4);
  for (const auto& raw : {std::vector<std::int8_t>{1, 1, -1, -1},
                          std::vector<std::int8_t>{1, -1, 1, -1},
                          std::vector<std::int8_t>{1, 1, 1, -1}}) {
    acc.add_packed(pack(Hypervector::from_raw(raw)).words());
  }
  // No zero lanes with an odd operand count -> tie-break never used.
  EXPECT_EQ(unpack(acc.bipolarize_packed(PackedHv(4))),
            Hypervector::from_raw({1, 1, 1, -1}));
}

// Parameterized dimension sweep for the core algebraic invariants.
class HvDimSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HvDimSweep, BindSelfInverseHoldsAtAllDims) {
  util::Rng rng(GetParam());
  const auto a = Hypervector::random(GetParam(), rng);
  const auto b = Hypervector::random(GetParam(), rng);
  EXPECT_EQ(bind(bind(a, b), b), a);
}

TEST_P(HvDimSweep, DotHammingRelationHoldsAtAllDims) {
  util::Rng rng(GetParam() + 2);
  const auto a = Hypervector::random(GetParam(), rng);
  const auto b = Hypervector::random(GetParam(), rng);
  EXPECT_EQ(dot(a, b), static_cast<std::int64_t>(GetParam()) -
                           2 * static_cast<std::int64_t>(hamming(a, b)));
}

INSTANTIATE_TEST_SUITE_P(Dims, HvDimSweep,
                         ::testing::Values(1, 2, 63, 64, 65, 100, 1024, 4096));

}  // namespace
}  // namespace hdtest::oracle
