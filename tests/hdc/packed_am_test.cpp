// Tests for the packed associative memory: predict / similarities must
// rank identically to the dense reference, and the query-blocked sweep
// (predict_block) must agree bit-for-bit with per-query
// predict()/similarity_to() on every compiled SIMD backend, every block
// size, and every worker count.

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "backend_guard.hpp"
#include "data/synthetic_digits.hpp"
#include "dense_oracle.hpp"
#include "hdc/classifier.hpp"
#include "util/simd/kernels.hpp"

namespace hdtest::hdc {
namespace {

constexpr std::uint64_t kAmSeed = 13;

AssociativeMemory small_am(std::size_t classes, std::size_t dim,
                           Similarity sim = Similarity::kCosine) {
  AssociativeMemory am(classes, dim, kAmSeed, sim);
  util::Rng rng(7);
  for (std::size_t c = 0; c < classes; ++c) {
    am.add_packed(c, PackedHv::random(dim, rng));
    am.add_packed(c, PackedHv::random(dim, rng));
  }
  am.finalize();
  return am;
}

TEST(PackedAm, RequiresFinalization) {
  AssociativeMemory am(2, 64, 1);
  EXPECT_THROW((void)am.packed(), std::logic_error);
}

TEST(PackedAm, SimilaritiesMatchDenseExactly) {
  const auto am = small_am(5, 1024);
  const auto classes = oracle::class_hvs(am, kAmSeed);
  util::Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const auto dense_query = oracle::Hypervector::random(1024, rng);
    const auto dense_sims =
        oracle::similarities(classes, dense_query, Similarity::kCosine);
    const auto packed_sims =
        am.packed().similarities(oracle::pack(dense_query));
    ASSERT_EQ(dense_sims.size(), packed_sims.size());
    for (std::size_t c = 0; c < dense_sims.size(); ++c) {
      EXPECT_DOUBLE_EQ(dense_sims[c], packed_sims[c]) << "class " << c;
    }
  }
}

TEST(PackedAm, PredictionsMatchDenseAtOddDimensions) {
  // Odd dims exercise the packed tail-word handling.
  for (const std::size_t dim : {63u, 65u, 1000u, 4097u}) {
    const auto am = small_am(4, dim);
    const auto classes = oracle::class_hvs(am, kAmSeed);
    util::Rng rng(dim);
    for (int trial = 0; trial < 5; ++trial) {
      const auto query = oracle::Hypervector::random(dim, rng);
      EXPECT_EQ(oracle::predict(classes, query, Similarity::kCosine),
                am.packed().predict(oracle::pack(query)))
          << "dim " << dim;
    }
  }
}

TEST(PackedAm, HammingMetricAlsoMatches) {
  const auto am = small_am(3, 512, Similarity::kHamming);
  const auto classes = oracle::class_hvs(am, kAmSeed);
  util::Rng rng(9);
  const auto query = oracle::Hypervector::random(512, rng);
  const auto dense =
      oracle::similarities(classes, query, Similarity::kHamming);
  const auto packed = am.packed().similarities(oracle::pack(query));
  for (std::size_t c = 0; c < dense.size(); ++c) {
    EXPECT_DOUBLE_EQ(dense[c], packed[c]);
  }
  EXPECT_EQ(oracle::predict(classes, query, Similarity::kHamming),
            am.packed().predict(oracle::pack(query)));
}

TEST(PackedAm, RefinalizeRefreshesPackedCache) {
  AssociativeMemory am(2, 2048, 3);
  util::Rng rng(4);
  const auto a = PackedHv::random(2048, rng);
  const auto b = PackedHv::random(2048, rng);
  am.add_packed(0, a);
  am.add_packed(1, b);
  am.finalize();
  EXPECT_EQ(am.packed().predict(a), 0u);

  // Retrain so class 1 absorbs `a` strongly; the packed rows must follow.
  am.add_packed(1, a);
  am.add_packed(1, a);
  am.add_packed(1, a);
  am.add_packed(0, a, -1);
  am.add_packed(0, a, -1);
  am.finalize();
  EXPECT_EQ(am.packed().predict(a),
            oracle::predict(oracle::class_hvs(am, 3), oracle::unpack(a),
                            Similarity::kCosine));
}

TEST(PackedAm, PredictBlockMatchesPerQueryOnEveryBackendBlockAndDim) {
  // The acceptance gate of the query-blocked sweep: for every compiled
  // backend, every block size, and dims straddling the word/vector
  // boundaries, predict_block must return the same labels as per-query
  // predict() and the same DOUBLES as similarity_to() for both the argmax
  // and the reference class.
  // {classes, dim}: the last case's 128 x 1 KiB prototype rows overflow L1,
  // the shape where query blocking pays.
  const std::size_t cases[][2] = {
      {5, 63}, {5, 64}, {5, 65}, {5, 1000}, {5, 8192}, {128, 8192}};
  for (const auto* backend : util::simd::available_kernels()) {
    BackendGuard guard(backend->name);
    for (const auto& [classes, dim] : cases) {
      const auto am = small_am(classes, dim);
      const auto& packed = am.packed();
      util::Rng rng(dim + 21);
      std::vector<PackedHv> queries;
      for (int q = 0; q < 13; ++q) queries.push_back(PackedHv::random(dim, rng));
      for (const std::size_t block : {1u, 7u, 64u}) {
        const auto sweep = packed.predict_block(queries, /*ref_class=*/2, block);
        ASSERT_EQ(sweep.labels.size(), queries.size());
        for (std::size_t q = 0; q < queries.size(); ++q) {
          EXPECT_EQ(sweep.labels[q], packed.predict(queries[q]))
              << backend->name << " classes=" << classes << " dim=" << dim
              << " block=" << block;
          EXPECT_EQ(sweep.ref_scores[q], packed.similarity_to(2, queries[q]))
              << backend->name << " classes=" << classes << " dim=" << dim
              << " block=" << block;
          EXPECT_EQ(sweep.best_scores[q],
                    packed.similarity_to(sweep.labels[q], queries[q]))
              << backend->name << " classes=" << classes << " dim=" << dim
              << " block=" << block;
        }
      }
    }
  }
}

TEST(PackedAm, PredictBlockAgreesAcrossBackendsAndWorkers) {
  // Cross-backend agreement on one fixed workload, including the Hamming
  // metric and multi-worker sweeps: every backend must produce the exact
  // same result object.
  const auto am = small_am(4, 4097, Similarity::kHamming);
  util::Rng rng(33);
  std::vector<PackedHv> queries;
  for (int q = 0; q < 40; ++q) queries.push_back(PackedHv::random(4097, rng));

  BlockSweepResult reference;
  bool have_reference = false;
  for (const auto* backend : util::simd::available_kernels()) {
    BackendGuard guard(backend->name);
    for (const std::size_t workers : {1u, 4u}) {
      const auto sweep =
          am.packed().predict_block(queries, /*ref_class=*/1, 16, workers);
      if (!have_reference) {
        reference = sweep;
        have_reference = true;
        continue;
      }
      EXPECT_EQ(sweep.labels, reference.labels)
          << backend->name << " workers=" << workers;
      EXPECT_EQ(sweep.best_scores, reference.best_scores) << backend->name;
      EXPECT_EQ(sweep.ref_scores, reference.ref_scores) << backend->name;
    }
  }
}

TEST(PackedAm, PredictBatchUsesBlockedSweepAndMatchesPredict) {
  for (const auto* backend : util::simd::available_kernels()) {
    BackendGuard guard(backend->name);
    const auto am = small_am(6, 1000);
    util::Rng rng(7);
    std::vector<PackedHv> queries;
    // More queries than one block, plus a ragged tail.
    for (int q = 0; q < 71; ++q) queries.push_back(PackedHv::random(1000, rng));
    for (const std::size_t workers : {1u, 3u}) {
      const auto labels = am.packed().predict_batch(
          std::span<const PackedHv>(queries), workers);
      ASSERT_EQ(labels.size(), queries.size());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(labels[q], am.packed().predict(queries[q]))
            << backend->name << " workers=" << workers;
      }
    }
  }
}

TEST(PackedAm, PredictBlockValidates) {
  const auto am = small_am(3, 256);
  util::Rng rng(5);
  std::vector<PackedHv> queries{PackedHv::random(256, rng)};
  EXPECT_THROW((void)am.packed().predict_block(queries, /*ref_class=*/3),
               std::out_of_range);
  // block = kAutoBlock (0) selects the cache-optimal size.
  EXPECT_EQ(am.packed()
                .predict_block(queries, 0, PackedAssocMemory::kAutoBlock)
                .labels[0],
            am.packed().predict(queries[0]));
  std::vector<PackedHv> bad{PackedHv::random(255, rng)};
  EXPECT_THROW((void)am.packed().predict_block(bad, 0), std::invalid_argument);
  PackedAssocMemory empty;
  EXPECT_THROW((void)empty.predict_block(queries, 0), std::logic_error);
  // Empty query span is fine: empty result vectors.
  const auto sweep =
      am.packed().predict_block(std::span<const PackedHv>{}, 0);
  EXPECT_TRUE(sweep.labels.empty());
  EXPECT_TRUE(sweep.best_scores.empty());
  EXPECT_TRUE(sweep.ref_scores.empty());
}

TEST(PackedAm, EndToEndClassifierAgreement) {
  // Full-model check: the classifier agrees with the dense reference
  // across a test set.
  ModelConfig config;
  config.dim = 2048;
  config.seed = 55;
  const auto pair = data::make_digit_train_test(20, 6, 717);
  HdcClassifier model(config, 28, 28, 10);
  model.fit(pair.train);
  const oracle::Classifier reference(model);
  for (const auto& image : pair.test.images) {
    EXPECT_EQ(model.predict(image), reference.predict(image));
    EXPECT_EQ(model.similarities(image), reference.similarities(image));
  }
}

}  // namespace
}  // namespace hdtest::hdc
