// Tests for hdc/packed_hv: bit-exact agreement with the dense reference.

#include "hdc/packed_hv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "dense_oracle.hpp"

namespace hdtest::hdc {
namespace {

using oracle::Hypervector;
using oracle::pack;
using oracle::unpack;

TEST(PackedHv, ZeroDimThrows) {
  EXPECT_THROW(PackedHv(0), std::invalid_argument);
}

TEST(PackedHv, FreshVectorIsAllPlusOne) {
  PackedHv v(70);
  for (std::size_t i = 0; i < 70; ++i) EXPECT_EQ(v.get(i), 1);
}

TEST(PackedHv, DenseRoundTrip) {
  util::Rng rng(1);
  const auto dense = Hypervector::random(1000, rng);
  const auto packed = pack(dense);
  EXPECT_EQ(packed.dim(), 1000u);
  EXPECT_EQ(unpack(packed), dense);
  // The packed generator draws the reference's sequence.
  util::Rng again(1);
  EXPECT_EQ(PackedHv::random(1000, again), packed);
}

TEST(PackedHv, GetSetAreCheckedAndConsistent) {
  PackedHv v(100);
  v.set(63, -1);
  v.set(64, -1);
  EXPECT_EQ(v.get(63), -1);
  EXPECT_EQ(v.get(64), -1);
  EXPECT_EQ(v.get(65), 1);
  v.set(63, 1);
  EXPECT_EQ(v.get(63), 1);
  EXPECT_THROW((void)v.get(100), std::out_of_range);
  EXPECT_THROW(v.set(100, 1), std::out_of_range);
  EXPECT_THROW(v.set(0, 0), std::invalid_argument);
}

TEST(PackedHv, RandomTailBitsAreClean) {
  // Bits beyond dim must be zero so popcount-based dots stay exact.
  util::Rng rng(2);
  const auto v = PackedHv::random(65, rng);
  EXPECT_EQ(v.words().size(), 2u);
  EXPECT_EQ(v.words()[1] & ~1ULL, 0u);
}

TEST(PackedHv, RandomIsApproximatelyBalanced) {
  util::Rng rng(3);
  const auto v = PackedHv::random(10000, rng);
  int sum = 0;
  for (std::size_t i = 0; i < v.dim(); ++i) sum += v.get(i);
  EXPECT_LT(std::abs(sum), 500);
}

TEST(PackedBind, MatchesDenseBindExactly) {
  util::Rng rng(4);
  for (const std::size_t dim : {1u, 64u, 65u, 1000u}) {
    const auto a = Hypervector::random(dim, rng);
    const auto b = Hypervector::random(dim, rng);
    const auto packed = bind(pack(a), pack(b));
    EXPECT_EQ(unpack(packed), bind(a, b)) << "dim " << dim;
  }
}

TEST(PackedBind, InPlaceMatchesFree) {
  util::Rng rng(5);
  const auto a = PackedHv::random(200, rng);
  const auto b = PackedHv::random(200, rng);
  auto c = a;
  c.bind_with(b);
  EXPECT_EQ(c, bind(a, b));
}

TEST(PackedBind, DimensionMismatchThrows) {
  PackedHv a(10);
  const PackedHv b(11);
  EXPECT_THROW(bind(a, b), std::invalid_argument);
  EXPECT_THROW(a.bind_with(b), std::invalid_argument);
}

TEST(PackedDot, MatchesDenseDotExactly) {
  util::Rng rng(6);
  for (const std::size_t dim : {1u, 63u, 64u, 65u, 4096u}) {
    const auto a = Hypervector::random(dim, rng);
    const auto b = Hypervector::random(dim, rng);
    EXPECT_EQ(dot(pack(a), pack(b)), dot(a, b))
        << "dim " << dim;
  }
}

TEST(PackedCosine, MatchesDenseCosine) {
  util::Rng rng(7);
  const auto a = Hypervector::random(2048, rng);
  const auto b = Hypervector::random(2048, rng);
  EXPECT_DOUBLE_EQ(cosine(pack(a), pack(b)),
                   cosine(a, b));
}

TEST(PackedHamming, MatchesDenseHamming) {
  util::Rng rng(8);
  const auto a = Hypervector::random(777, rng);
  const auto b = Hypervector::random(777, rng);
  EXPECT_EQ(hamming(pack(a), pack(b)),
            hamming(a, b));
}

TEST(PackedOps, MismatchesThrow) {
  const PackedHv a(10);
  const PackedHv b(20);
  EXPECT_THROW((void)dot(a, b), std::invalid_argument);
  EXPECT_THROW((void)cosine(a, b), std::invalid_argument);
  EXPECT_THROW((void)hamming(a, b), std::invalid_argument);
}

TEST(PackedOps, SelfSimilarityIsMaximal) {
  util::Rng rng(9);
  const auto v = PackedHv::random(512, rng);
  EXPECT_EQ(dot(v, v), 512);
  EXPECT_DOUBLE_EQ(cosine(v, v), 1.0);
  EXPECT_EQ(hamming(v, v), 0u);
}

// Property: for *any* pair, the packed path and the dense path agree on
// every similarity measure. Sweep odd dimensions to exercise tail handling.
class PackedAgreementSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PackedAgreementSweep, AllMetricsAgreeWithDense) {
  util::Rng rng(GetParam() * 31 + 7);
  const auto a = Hypervector::random(GetParam(), rng);
  const auto b = Hypervector::random(GetParam(), rng);
  const auto pa = pack(a);
  const auto pb = pack(b);
  EXPECT_EQ(dot(pa, pb), dot(a, b));
  EXPECT_EQ(hamming(pa, pb), hamming(a, b));
  EXPECT_EQ(unpack(bind(pa, pb)), bind(a, b));
}

INSTANTIATE_TEST_SUITE_P(Dims, PackedAgreementSweep,
                         ::testing::Values(1, 2, 31, 32, 33, 63, 64, 65, 127,
                                           128, 129, 1000, 4097));

}  // namespace
}  // namespace hdtest::hdc
