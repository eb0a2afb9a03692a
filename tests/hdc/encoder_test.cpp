// Tests for hdc/encoder: the paper's pixel encoding and the incremental delta
// re-encoder (both must match the dense reference bit-for-bit).

#include "hdc/encoder.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "dense_oracle.hpp"

namespace hdtest::hdc {
namespace {

ModelConfig small_config(std::size_t dim = 512) {
  ModelConfig config;
  config.dim = dim;
  config.seed = 2024;
  return config;
}

data::Image random_image(std::size_t w, std::size_t h, std::uint64_t seed) {
  util::Rng rng(seed);
  data::Image img(w, h, 0);
  for (auto& px : img.pixels()) {
    px = static_cast<std::uint8_t>(rng.uniform_u64(256));
  }
  return img;
}

/// The dense reference's encode of \p img under \p enc's config.
PackedHv reference_encode(const PixelEncoder& enc, const data::Image& img) {
  const oracle::Encoder reference(enc.config(), enc.width(), enc.height());
  return oracle::pack(reference.encode(img));
}

PackedHv row_of(const PackedItemMemory& memory, std::size_t index) {
  std::vector<std::uint64_t> scratch(memory.row_scratch_words());
  return PackedHv::from_words(memory.dim(), memory.row(index, scratch));
}

TEST(PixelEncoder, MemoriesHaveExpectedShapes) {
  const PixelEncoder enc(small_config(), 8, 6);
  EXPECT_EQ(enc.width(), 8u);
  EXPECT_EQ(enc.height(), 6u);
  EXPECT_EQ(enc.packed_position_memory().count(), 48u);
  EXPECT_EQ(enc.packed_value_memory().count(), 256u);
  EXPECT_EQ(enc.dim(), 512u);
}

TEST(PixelEncoder, RejectsZeroShapeAndBadConfig) {
  EXPECT_THROW(PixelEncoder(small_config(), 0, 5), std::invalid_argument);
  EXPECT_THROW(PixelEncoder(small_config(), 5, 0), std::invalid_argument);
  ModelConfig bad;
  bad.dim = 0;
  EXPECT_THROW(PixelEncoder(bad, 4, 4), std::invalid_argument);
}

TEST(PixelEncoder, EncodeIsDeterministic) {
  const PixelEncoder enc(small_config(), 8, 8);
  const auto img = random_image(8, 8, 1);
  EXPECT_EQ(enc.encode_packed(img), enc.encode_packed(img));
}

TEST(PixelEncoder, EncodeChecksShape) {
  const PixelEncoder enc(small_config(), 8, 8);
  EXPECT_THROW((void)enc.encode_packed(data::Image(7, 8, 0)),
               std::invalid_argument);
}

TEST(PixelEncoder, DifferentSeedsGiveDifferentEncodings) {
  auto c1 = small_config();
  auto c2 = small_config();
  c2.seed = 9999;
  const PixelEncoder e1(c1, 6, 6);
  const PixelEncoder e2(c2, 6, 6);
  const auto img = random_image(6, 6, 2);
  EXPECT_NE(e1.encode_packed(img), e2.encode_packed(img));
}

TEST(PixelEncoder, PixelHvIsBindOfPositionAndValue) {
  // The XOR of the packed rows is the reference's element-wise bind.
  const PixelEncoder enc(small_config(), 4, 4);
  const oracle::Encoder reference(enc.config(), 4, 4);
  EXPECT_EQ(bind(row_of(enc.packed_position_memory(), 5),
                 row_of(enc.packed_value_memory(), 100)),
            oracle::pack(reference.pixel_hv(5, 100)));
}

TEST(PixelEncoder, RematPixelHvMatchesStored) {
  // Remat rows regenerate on demand and must reproduce the stored rows bit
  // for bit; they keep no words to hand out in place.
  auto stored = small_config();
  stored.codebook = CodebookMode::kStored;
  auto remat = stored;
  remat.codebook = CodebookMode::kRemat;
  const PixelEncoder enc_stored(stored, 4, 4);
  const PixelEncoder enc_remat(remat, 4, 4);
  EXPECT_EQ(row_of(enc_remat.packed_position_memory(), 5),
            row_of(enc_stored.packed_position_memory(), 5));
  EXPECT_EQ(row_of(enc_remat.packed_value_memory(), 100),
            row_of(enc_stored.packed_value_memory(), 100));
  EXPECT_THROW((void)enc_remat.packed_position_memory().at(0),
               std::logic_error);
}

TEST(PixelEncoder, EncodeIntoMatchesEncode) {
  const PixelEncoder enc(small_config(), 5, 5);
  const auto img = random_image(5, 5, 3);
  Accumulator acc(512);
  enc.encode_into(img, acc);
  EXPECT_EQ(acc.bipolarize_packed(enc.tie_break_packed()),
            enc.encode_packed(img));
  const oracle::Encoder reference(enc.config(), 5, 5);
  EXPECT_EQ(oracle::Lanes(acc.lanes().begin(), acc.lanes().end()),
            reference.lanes(img));
}

TEST(PixelEncoder, EncodeIntoChecksAccumulatorDim) {
  const PixelEncoder enc(small_config(), 5, 5);
  Accumulator acc(100);
  EXPECT_THROW(enc.encode_into(data::Image(5, 5, 0), acc),
               std::invalid_argument);
}

TEST(PixelEncoder, ValueIndexIdentityAt256Levels) {
  const PixelEncoder enc(small_config(), 4, 4);
  EXPECT_EQ(enc.value_index(0), 0u);
  EXPECT_EQ(enc.value_index(255), 255u);
  EXPECT_EQ(enc.value_index(100), 100u);
}

TEST(PixelEncoder, ValueIndexQuantizesUniformly) {
  auto config = small_config();
  config.value_levels = 16;
  const PixelEncoder enc(config, 4, 4);
  EXPECT_EQ(enc.value_index(0), 0u);
  EXPECT_EQ(enc.value_index(15), 0u);
  EXPECT_EQ(enc.value_index(16), 1u);
  EXPECT_EQ(enc.value_index(255), 15u);
}

TEST(PixelEncoder, SimilarImagesEncodeSimilarly) {
  // Changing one pixel of 64 leaves the query HV highly correlated.
  const PixelEncoder enc(small_config(4096), 8, 8);
  const auto img = random_image(8, 8, 4);
  auto mutated = img;
  mutated(3, 3) = static_cast<std::uint8_t>(mutated(3, 3) ^ 0xff);
  // One of 64 pixel HVs is re-randomized: expected cosine ~ 63/64 = 0.984,
  // minus bipolarization noise. 0.85 is a comfortable 5-sigma bound.
  EXPECT_GT(cosine(enc.encode_packed(img), enc.encode_packed(mutated)), 0.85);
}

TEST(PixelEncoder, VeryDifferentImagesEncodeDissimilarly) {
  const PixelEncoder enc(small_config(4096), 8, 8);
  const auto a = random_image(8, 8, 5);
  const auto b = random_image(8, 8, 6);
  EXPECT_LT(cosine(enc.encode_packed(a), enc.encode_packed(b)), 0.3);
}

TEST(IncrementalEncoder, RequiresRebaseBeforeUse) {
  const PixelEncoder enc(small_config(), 4, 4);
  IncrementalPixelEncoder inc(enc);
  EXPECT_FALSE(inc.has_base());
  EXPECT_THROW((void)inc.encode_mutant_packed(data::Image(4, 4, 0)),
               std::logic_error);
}

TEST(IncrementalEncoder, MatchesFullEncodeOnIdenticalImage) {
  const PixelEncoder enc(small_config(), 6, 6);
  IncrementalPixelEncoder inc(enc);
  const auto img = random_image(6, 6, 7);
  inc.rebase(img);
  EXPECT_EQ(inc.encode_mutant_packed(img),
            reference_encode(enc, img));
  EXPECT_EQ(inc.last_delta_count(), 0u);
}

TEST(IncrementalEncoder, MatchesFullEncodeOnSparseMutation) {
  const PixelEncoder enc(small_config(), 8, 8);
  IncrementalPixelEncoder inc(enc);
  const auto base = random_image(8, 8, 8);
  inc.rebase(base);
  auto mutant = base;
  mutant(0, 0) = 13;
  mutant(7, 7) = 222;
  mutant(3, 5) = 0;
  EXPECT_EQ(inc.encode_mutant_packed(mutant),
            reference_encode(enc, mutant));
  EXPECT_LE(inc.last_delta_count(), 3u);
}

TEST(IncrementalEncoder, MatchesFullEncodeOnTotalRewrite) {
  const PixelEncoder enc(small_config(), 8, 8);
  IncrementalPixelEncoder inc(enc);
  inc.rebase(random_image(8, 8, 9));
  const auto different = random_image(8, 8, 10);
  EXPECT_EQ(inc.encode_mutant_packed(different),
            reference_encode(enc, different));
}

TEST(IncrementalEncoder, RebaseSwitchesBase) {
  const PixelEncoder enc(small_config(), 5, 5);
  IncrementalPixelEncoder inc(enc);
  const auto first = random_image(5, 5, 11);
  const auto second = random_image(5, 5, 12);
  inc.rebase(first);
  inc.rebase(second);
  auto mutant = second;
  mutant(2, 2) = 99;
  EXPECT_EQ(inc.encode_mutant_packed(mutant),
            reference_encode(enc, mutant));
}

TEST(IncrementalEncoder, ShapeMismatchThrows) {
  const PixelEncoder enc(small_config(), 5, 5);
  IncrementalPixelEncoder inc(enc);
  inc.rebase(data::Image(5, 5, 0));
  EXPECT_THROW((void)inc.encode_mutant_packed(data::Image(4, 5, 0)),
               std::invalid_argument);
}

TEST(IncrementalEncoder, QuantizedValueChangesBelowResolutionAreFree) {
  // With 16 levels, gray 0 -> 3 maps to the same level: the HV is unchanged.
  auto config = small_config();
  config.value_levels = 16;
  const PixelEncoder enc(config, 4, 4);
  IncrementalPixelEncoder inc(enc);
  const data::Image base(4, 4, 0);
  inc.rebase(base);
  auto mutant = base;
  mutant(1, 1) = 3;
  EXPECT_EQ(inc.encode_mutant_packed(mutant),
            reference_encode(enc, base));
}

// Property sweep over random mutation batches: the packed delta encode equals
// the dense reference's encode, always.
class IncrementalSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalSweep, AgreesWithFullEncode) {
  const PixelEncoder enc(small_config(1024), 10, 10);
  IncrementalPixelEncoder inc(enc);
  util::Rng rng(GetParam());
  const auto base = random_image(10, 10, GetParam());
  inc.rebase(base);
  auto mutant = base;
  const auto flips = 1 + rng.uniform_u64(30);
  for (std::uint64_t f = 0; f < flips; ++f) {
    const auto row = static_cast<std::size_t>(rng.uniform_u64(10));
    const auto col = static_cast<std::size_t>(rng.uniform_u64(10));
    mutant(row, col) = static_cast<std::uint8_t>(rng.uniform_u64(256));
  }
  EXPECT_EQ(inc.encode_mutant_packed(mutant),
            reference_encode(enc, mutant));
}

INSTANTIATE_TEST_SUITE_P(Batches, IncrementalSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace hdtest::hdc
