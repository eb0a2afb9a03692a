// Tests for the dense-free encoding pipeline: the fused packed bipolarize
// (Accumulator::bipolarize_packed), the bit-sliced full encode
// (PixelEncoder::encode_packed / encode_into via the biased bank), the
// packed delta re-encoder (encode_mutant_packed), the parallel batch
// encoder, and the packed fitness kernels. Every route must be bit-identical
// to a test-side reference that shares no code with the kernels (dense
// pixel_hv bundled through Accumulator::add, then Eq. 1) across awkward
// dimensions (off-by-one around the word size), pixel counts that are odd,
// even (so Eq. 1 ties occur) or not a multiple of the 16-pixel group, and
// quantized value memories.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend_guard.hpp"
#include "data/synthetic_digits.hpp"
#include "hdc/assoc_memory.hpp"
#include "hdc/encoder.hpp"
#include "hdc/packed_hv.hpp"
#include "util/bitops.hpp"
#include "util/simd/kernels.hpp"

namespace hdtest::hdc {
namespace {

// Dimensions chosen to straddle the 64-bit word boundary plus the paper's
// operating points.
const std::size_t kDims[] = {63, 64, 65, 1000, 8192};

ModelConfig config_for(std::size_t dim, std::size_t value_levels = 256) {
  ModelConfig config;
  config.dim = dim;
  config.seed = 77;
  config.value_levels = value_levels;
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

/// Accumulator with lanes drawn from a small range centered on zero so that
/// negative, zero, and positive lanes all occur.
Accumulator random_accumulator(std::size_t dim, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::int32_t> lanes(dim);
  for (auto& lane : lanes) {
    lane = static_cast<std::int32_t>(rng.uniform_u64(7)) - 3;
  }
  return Accumulator::from_lanes(std::move(lanes));
}

TEST(BipolarizePacked, MatchesDensePathAcrossDimsOnEveryBackend) {
  for (const auto* backend : util::simd::available_kernels()) {
    BackendGuard guard(backend->name);
    for (const auto dim : kDims) {
      util::Rng rng(dim);
      const auto tie_break = Hypervector::random(dim, rng);
      const auto tie_break_packed = PackedHv::from_dense(tie_break);
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const auto acc = random_accumulator(dim, seed * 31 + dim);
        EXPECT_EQ(acc.bipolarize_packed(tie_break_packed),
                  PackedHv::from_dense(acc.bipolarize(tie_break)))
            << backend->name << " dim=" << dim << " seed=" << seed;
      }
    }
  }
}

TEST(BipolarizePacked, AllZeroLanesTakeTieBreakPattern) {
  // A fresh accumulator is all zeros: Eq. 1 resolves every lane from the
  // tie-break HV, so the packed result must equal the packed tie-break.
  for (const auto dim : kDims) {
    util::Rng rng(dim + 1);
    const auto tie_break = Hypervector::random(dim, rng);
    const auto tie_break_packed = PackedHv::from_dense(tie_break);
    const Accumulator zeros(dim);
    EXPECT_EQ(zeros.bipolarize_packed(tie_break_packed), tie_break_packed);
    EXPECT_EQ(zeros.bipolarize_packed(tie_break_packed),
              PackedHv::from_dense(zeros.bipolarize(tie_break)));
  }
}

TEST(BipolarizePacked, RejectsDimensionMismatch) {
  const Accumulator acc(100);
  util::Rng rng(5);
  const auto tie_break = PackedHv::random(101, rng);
  EXPECT_THROW((void)acc.bipolarize_packed(tie_break), std::invalid_argument);
}

TEST(PackedHv, FromWordsValidates) {
  EXPECT_THROW((void)PackedHv::from_words(0, std::vector<std::uint64_t>{}), std::invalid_argument);
  EXPECT_THROW((void)PackedHv::from_words(64, {1, 2}), std::invalid_argument);
  // Bit 63 set for a 63-bit vector: tail bits must be zero.
  EXPECT_THROW((void)PackedHv::from_words(63, {1ULL << 63}),
               std::invalid_argument);
  const auto v = PackedHv::from_words(65, {~0ULL, 1ULL});
  EXPECT_EQ(v.dim(), 65u);
  EXPECT_EQ(v.get(64), -1);
}

/// The test-side encode: every pixel's dense bound HV (pixel_hv, which
/// regenerates remat rows densely) summed through Accumulator::add. Shares
/// no code with the bank builder or any kernel.
Accumulator reference_lanes(const PixelEncoder& enc, const data::Image& img) {
  Accumulator acc(enc.dim());
  const auto pixels = img.pixels();
  for (std::size_t p = 0; p < pixels.size(); ++p) {
    acc.add(enc.pixel_hv(p, pixels[p]));
  }
  return acc;
}

PackedHv reference_encode(const PixelEncoder& enc, const data::Image& img) {
  return PackedHv::from_dense(
      reference_lanes(enc, img).bipolarize(enc.tie_break()));
}

/// \p parent with \p count random pixels set to random values (the rand
/// strategy's shape).
data::Image mutate_pixels(const data::Image& parent, std::size_t count,
                          util::Rng& rng) {
  data::Image child = parent;
  for (std::size_t c = 0; c < count; ++c) {
    child.pixels()[rng.uniform_u64(child.size())] =
        static_cast<std::uint8_t>(rng.uniform_u64(256));
  }
  return child;
}

// Every encode route against the independent reference, on every backend
// (the oracle included) and in both codebook modes: encode_into's lanes
// exactly, and the packed, dense, root-patch and lineage-patch queries.
// P = 63 is odd (no lane can be zero); P = 64 and P = 204 are even, so Eq. 1
// ties occur and must take the tie-break bit; 63 and 204 are not multiples
// of the 16-pixel bundle group, and P = 204 needs 10 slice levels.
TEST(PackedEncode, EveryRouteMatchesTheIndependentReference) {
  struct Shape {
    std::size_t width;
    std::size_t height;
  };
  for (const auto* backend : util::simd::available_kernels()) {
    BackendGuard guard(backend->name);
    for (const auto mode : {CodebookMode::kStored, CodebookMode::kRemat}) {
      for (const Shape shape : {Shape{9, 7}, Shape{8, 8}, Shape{17, 12}}) {
        const std::size_t pixels = shape.width * shape.height;
        for (const std::size_t dim : {63u, 64u, 65u, 1000u}) {
          ModelConfig config = config_for(dim);
          config.codebook = mode;
          const PixelEncoder enc(config, shape.width, shape.height);
          const std::string where =
              std::string(backend->name) + " remat=" +
              std::to_string(mode == CodebookMode::kRemat) +
              " P=" + std::to_string(pixels) + " dim=" + std::to_string(dim);
          const auto original = random_image(shape.width, shape.height, dim);
          const Accumulator lanes = reference_lanes(enc, original);
          std::size_t ties = 0;
          for (const auto lane : lanes.lanes()) ties += lane == 0 ? 1 : 0;
          if (pixels % 2 == 1) {
            EXPECT_EQ(ties, 0u) << where;
          } else if (dim >= 1000) {
            // P(lane == 0) is ~10% at P = 64 and ~6% at P = 204.
            EXPECT_GT(ties, 10u) << where;
          }

          Accumulator drained(dim);
          enc.encode_into(original, drained);
          ASSERT_TRUE(std::equal(drained.lanes().begin(), drained.lanes().end(),
                                 lanes.lanes().begin(), lanes.lanes().end()))
              << where;
          ASSERT_EQ(enc.encode(original), lanes.bipolarize(enc.tie_break()))
              << where;
          ASSERT_EQ(enc.encode_packed(original),
                    PackedHv::from_dense(lanes.bipolarize(enc.tie_break())))
              << where;

          IncrementalPixelEncoder inc(enc);
          inc.rebase(original);
          util::Rng rng(dim + pixels);
          const auto sparse = mutate_pixels(original, 3, rng);
          ASSERT_EQ(inc.encode_mutant_packed(sparse),
                    reference_encode(enc, sparse))
              << where;
          data::Image parent = original;
          SliceBank parent_bank;
          SliceBank child_bank;
          for (int gen = 0; gen < 4; ++gen) {
            const auto child = mutate_pixels(parent, 2, rng);
            ASSERT_EQ(
                inc.encode_child_packed(child, parent, parent_bank, child_bank),
                reference_encode(enc, child))
                << where << " gen=" << gen;
            parent = child;
            std::swap(parent_bank, child_bank);
          }
        }
      }
    }
  }
}

TEST(PackedEncode, MatchesDenseEncodeAcrossDimsOnEveryBackend) {
  for (const auto* backend : util::simd::available_kernels()) {
    BackendGuard guard(backend->name);
    for (const auto dim : kDims) {
      const PixelEncoder enc(config_for(dim), 9, 7);
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        const auto img = random_image(9, 7, seed + dim);
        EXPECT_EQ(enc.encode_packed(img), PackedHv::from_dense(enc.encode(img)))
            << backend->name << " dim=" << dim << " seed=" << seed;
      }
    }
  }
}

TEST(PackedEncode, EncodeBatchPackedMatchesEncodePacked) {
  const PixelEncoder enc(config_for(1000), 8, 8);
  std::vector<data::Image> images;
  for (std::uint64_t s = 0; s < 9; ++s) images.push_back(random_image(8, 8, s));
  for (const std::size_t workers : {1u, 4u}) {
    const auto batch = enc.encode_batch_packed(images, workers);
    ASSERT_EQ(batch.size(), images.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
      ASSERT_EQ(batch[i], enc.encode_packed(images[i])) << "workers=" << workers;
    }
  }
}

TEST(PackedTraining, AddPackedMatchesDenseAdd) {
  // The encoded-dataset cache feeds training through Accumulator::add_packed;
  // its lane updates must equal dense add() exactly, weights included.
  for (const auto dim : kDims) {
    util::Rng rng(dim + 5);
    Accumulator dense_acc(dim);
    Accumulator packed_acc(dim);
    for (const int weight : {+1, -1, +3}) {
      const auto hv = Hypervector::random(dim, rng);
      dense_acc.add(hv, weight);
      packed_acc.add_packed(PackedHv::from_dense(hv).words(), weight);
    }
    for (std::size_t i = 0; i < dim; ++i) {
      ASSERT_EQ(packed_acc.lane(i), dense_acc.lane(i)) << "dim=" << dim;
    }
  }
  Accumulator acc(100);
  EXPECT_THROW(acc.add_packed(std::vector<std::uint64_t>(3, 0), 1),
               std::invalid_argument);
}

TEST(PackedEncode, MatchesDenseEncodeWithQuantizedValues) {
  // value_levels < 256 exercises the quantized codebook indexing.
  for (const auto levels : {2u, 16u, 100u}) {
    const PixelEncoder enc(config_for(1000, levels), 8, 8);
    const auto img = random_image(8, 8, levels);
    EXPECT_EQ(enc.encode_packed(img), PackedHv::from_dense(enc.encode(img)))
        << "levels=" << levels;
  }
}

TEST(PackedEncode, PackedCodebooksMirrorDenseEntries) {
  // Compares packed mirrors against the dense mirrors, which only a
  // stored-mode encoder keeps.
  auto config = config_for(1000);
  config.codebook = CodebookMode::kStored;
  const PixelEncoder enc(config, 6, 5);
  ASSERT_EQ(enc.packed_position_memory().count(), 30u);
  ASSERT_EQ(enc.packed_value_memory().count(), 256u);
  for (std::size_t p = 0; p < 30; ++p) {
    const auto expected = PackedHv::from_dense(enc.position_memory()[p]);
    const auto actual = enc.packed_position_memory()[p];
    ASSERT_TRUE(std::equal(actual.begin(), actual.end(),
                           expected.words().begin(), expected.words().end()));
  }
  EXPECT_EQ(enc.tie_break_packed(), PackedHv::from_dense(enc.tie_break()));
  EXPECT_THROW((void)enc.packed_position_memory().at(30), std::out_of_range);
}

TEST(PackedEncode, EncodeMutantPackedMatchesDenseOnEveryBackend) {
  for (const auto* backend : util::simd::available_kernels()) {
    BackendGuard guard(backend->name);
    for (const auto dim : kDims) {
      const PixelEncoder enc(config_for(dim), 10, 10);
      IncrementalPixelEncoder inc(enc);
      util::Rng rng(dim);
      const auto base = random_image(10, 10, dim);
      inc.rebase(base);
      auto mutant = base;
      for (std::uint64_t f = 0; f < 12; ++f) {
        mutant(static_cast<std::size_t>(rng.uniform_u64(10)),
               static_cast<std::size_t>(rng.uniform_u64(10))) =
            static_cast<std::uint8_t>(rng.uniform_u64(256));
      }
      EXPECT_EQ(inc.encode_mutant_packed(mutant),
                PackedHv::from_dense(enc.encode(mutant)))
          << backend->name << " dim=" << dim;
    }
  }
}

// A 30-generation rand lineage encoded parent-relative: each child patches
// only the pixels where it differs from its parent, and every encode is the
// full encode's exact bits, on every backend (the scalar oracle included),
// codebook storage and value quantization.
TEST(PackedEncode, LineageEncodeMatchesFullEncodeEverywhere) {
  for (const auto* backend : util::simd::available_kernels()) {
    BackendGuard guard(backend->name);
    for (const auto mode : {CodebookMode::kStored, CodebookMode::kRemat}) {
      for (const std::size_t levels : {256u, 16u}) {
        ModelConfig config = config_for(1000, levels);
        config.codebook = mode;
        const PixelEncoder enc(config, 28, 28);
        IncrementalPixelEncoder inc(enc);
        const auto original = random_image(28, 28, levels);
        inc.rebase(original);
        util::Rng rng(levels + 1);
        data::Image parent = original;
        SliceBank parent_bank;
        SliceBank child_bank;
        for (int gen = 0; gen < 30; ++gen) {
          const auto child = mutate_pixels(parent, 3, rng);
          const auto query =
              inc.encode_child_packed(child, parent, parent_bank, child_bank);
          const std::string where = std::string(backend->name) +
                                    " levels=" + std::to_string(levels) +
                                    " gen=" + std::to_string(gen);
          ASSERT_EQ(query, enc.encode_packed(child)) << where;
          EXPECT_LE(inc.last_delta_count(), 3u) << where;
          ASSERT_TRUE(child_bank.engaged()) << where;
          // Every re-indexed pixel is one more pair on the lineage.
          EXPECT_GE(child_bank.pairs(), parent_bank.pairs()) << where;
          EXPECT_LE(child_bank.pairs(),
                    parent_bank.pairs() + inc.last_delta_count())
              << where;
          if (levels == 256) {
            EXPECT_EQ(child_bank.pairs(),
                      parent_bank.pairs() + inc.last_delta_count())
                << where;
          }
          parent = child;
          std::swap(parent_bank, child_bank);
        }
      }
    }
  }
}

// P = 16 leaves a lineage headroom of (32 - 16 - 1) / 2 = 7 pairs. A
// lineage that keeps re-mutating two pixels outgrows it, falls back to the
// root bank (whose diff stays within 2 pixels), and stays bit-exact.
TEST(PackedEncode, LineagePastHeadroomFallsBackToTheRoot) {
  const PixelEncoder enc(config_for(65), 4, 4);
  IncrementalPixelEncoder inc(enc);
  const auto original = random_image(4, 4, 3);
  inc.rebase(original);
  data::Image parent = original;
  SliceBank parent_bank;
  SliceBank child_bank;
  bool fell_back = false;
  for (int gen = 0; gen < 40; ++gen) {
    data::Image child = parent;
    auto& px = child.pixels()[static_cast<std::size_t>(gen % 2)];
    px = static_cast<std::uint8_t>(px + 97);
    ASSERT_EQ(inc.encode_child_packed(child, parent, parent_bank, child_bank),
              enc.encode_packed(child))
        << "gen=" << gen;
    ASSERT_TRUE(child_bank.engaged());
    EXPECT_LE(child_bank.pairs(), 7u) << "gen=" << gen;
    if (child_bank.pairs() <= parent_bank.pairs()) {
      fell_back = true;
      EXPECT_EQ(child_bank.pairs(), child.count_diff(original));
    }
    parent = child;
    std::swap(parent_bank, child_bank);
  }
  EXPECT_TRUE(fell_back);
}

TEST(PackedEncode, DenseChildGetsNoBank) {
  const PixelEncoder enc(config_for(1000), 10, 10);
  IncrementalPixelEncoder inc(enc);
  const auto original = random_image(10, 10, 5);
  inc.rebase(original);
  util::Rng rng(6);
  const auto sparse = mutate_pixels(original, 3, rng);
  SliceBank root_child;
  (void)inc.encode_child_packed(sparse, original, SliceBank{}, root_child);
  ASSERT_TRUE(root_child.engaged());

  // Every pixel rewritten: the full encode's bits, and no bank to breed from.
  data::Image dense = sparse;
  for (auto& px : dense.pixels()) px = static_cast<std::uint8_t>(~px);
  SliceBank dense_bank;
  EXPECT_EQ(inc.encode_child_packed(dense, sparse, root_child, dense_bank),
            enc.encode_packed(dense));
  EXPECT_FALSE(dense_bank.engaged());

  // A bank from before a rebase is never patched: its child takes the root
  // route of the new base and is still exact.
  inc.rebase(dense);
  const auto after = mutate_pixels(sparse, 2, rng);
  SliceBank after_bank;
  EXPECT_EQ(inc.encode_child_packed(after, sparse, root_child, after_bank),
            enc.encode_packed(after));
  EXPECT_FALSE(after_bank.engaged());
}

TEST(PackedEncode, RebaseFromAccumulatorMatchesFullRebase) {
  const PixelEncoder enc(config_for(1000), 8, 8);
  const auto base = random_image(8, 8, 21);
  Accumulator acc(enc.dim());
  enc.encode_into(base, acc);

  IncrementalPixelEncoder from_acc(enc);
  from_acc.rebase(base, acc);
  IncrementalPixelEncoder full(enc);
  full.rebase(base);

  auto mutant = base;
  mutant(4, 4) = static_cast<std::uint8_t>(mutant(4, 4) ^ 0xff);
  EXPECT_EQ(from_acc.encode_mutant_packed(mutant),
            full.encode_mutant_packed(mutant));
  EXPECT_EQ(from_acc.encode_mutant_packed(mutant),
            PackedHv::from_dense(enc.encode(mutant)));
}

TEST(PackedEncode, RebaseFromAccumulatorValidates) {
  const PixelEncoder enc(config_for(256), 5, 5);
  IncrementalPixelEncoder inc(enc);
  EXPECT_THROW(inc.rebase(data::Image(4, 5, 0), Accumulator(256)),
               std::invalid_argument);
  EXPECT_THROW(inc.rebase(data::Image(5, 5, 0), Accumulator(100)),
               std::invalid_argument);
}

TEST(PackedEncode, EncodeBatchMatchesSequentialForAnyWorkerCount) {
  const PixelEncoder enc(config_for(1000), 8, 8);
  std::vector<data::Image> images;
  for (std::uint64_t s = 0; s < 9; ++s) images.push_back(random_image(8, 8, s));
  for (const std::size_t workers : {1u, 4u}) {
    const auto batch = enc.encode_batch(images, workers);
    ASSERT_EQ(batch.size(), images.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
      ASSERT_EQ(batch[i], enc.encode(images[i])) << "workers=" << workers;
    }
  }
}

TEST(PackedFitness, SimilarityToMatchesDenseExactly) {
  // The fuzzer's fitness must be the *same doubles* under both paths, or
  // seed selection could diverge between dense and packed runs.
  for (const auto metric : {Similarity::kCosine, Similarity::kHamming}) {
    AssociativeMemory am(4, 1000, /*seed=*/3, metric);
    util::Rng rng(13);
    for (std::size_t c = 0; c < 4; ++c) {
      am.add(c, Hypervector::random(1000, rng));
    }
    am.finalize();
    for (std::size_t q = 0; q < 6; ++q) {
      const auto query = Hypervector::random(1000, rng);
      const auto packed = PackedHv::from_dense(query);
      for (std::size_t c = 0; c < 4; ++c) {
        ASSERT_EQ(am.packed().similarity_to(c, packed),
                  am.similarity_to(c, query));
      }
    }
  }
}

TEST(PackedFitness, ValidatesClassAndDimension) {
  AssociativeMemory am(3, 256, /*seed=*/4);
  util::Rng rng(14);
  for (std::size_t c = 0; c < 3; ++c) am.add(c, Hypervector::random(256, rng));
  am.finalize();
  const auto query = PackedHv::random(256, rng);
  EXPECT_THROW((void)am.packed().similarity_to(3, query), std::out_of_range);
  EXPECT_THROW((void)am.packed().similarity_to(0, PackedHv::random(255, rng)),
               std::invalid_argument);
}

}  // namespace
}  // namespace hdtest::hdc
