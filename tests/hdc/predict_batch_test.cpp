// Tests for the batched packed inference path: PackedAssocMemory and
// HdcClassifier::predict_batch must agree bit-exactly with the dense
// reference and with per-sample predict() at every dimension (odd dims
// exercise the packed tail_mask) and for every worker count.

#include <gtest/gtest.h>

#include <stdexcept>

#include "data/synthetic_digits.hpp"
#include "dense_oracle.hpp"
#include "hdc/classifier.hpp"
#include "hdc/packed_assoc_memory.hpp"

namespace hdtest::hdc {
namespace {

/// An associative memory over random class prototypes, its dense reference
/// class HVs, and random queries in both forms.
struct RandomSetup {
  AssociativeMemory am;
  std::vector<oracle::Hypervector> classes;
  std::vector<oracle::Hypervector> queries;
  std::vector<PackedHv> packed_queries;
};

RandomSetup make_random_setup(std::size_t classes, std::size_t dim,
                              std::size_t num_queries,
                              Similarity sim = Similarity::kCosine) {
  RandomSetup setup{AssociativeMemory(classes, dim, 17, sim), {}, {}, {}};
  util::Rng rng(dim * 31 + classes);
  for (std::size_t c = 0; c < classes; ++c) {
    setup.am.add_packed(c, PackedHv::random(dim, rng));
    setup.am.add_packed(c, PackedHv::random(dim, rng));
  }
  setup.am.finalize();
  setup.classes = oracle::class_hvs(setup.am, 17);
  for (std::size_t q = 0; q < num_queries; ++q) {
    setup.queries.push_back(oracle::Hypervector::random(dim, rng));
    setup.packed_queries.push_back(oracle::pack(setup.queries.back()));
  }
  return setup;
}

TEST(PackedAssocMemoryBatch, RejectsBadInputs) {
  const PackedAssocMemory empty;
  EXPECT_TRUE(empty.empty());
  util::Rng rng(1);
  EXPECT_THROW((void)empty.predict(PackedHv::random(64, rng)),
               std::logic_error);

  const auto setup = make_random_setup(3, 128, 0);
  const auto& packed = setup.am.packed();
  EXPECT_THROW((void)packed.predict(PackedHv::random(64, rng)),
               std::invalid_argument);

  // The rows must fill num_classes x words_for_bits(dim) words exactly.
  EXPECT_THROW(PackedAssocMemory(64, 2, Similarity::kCosine,
                                 std::vector<std::uint64_t>(3)),
               std::invalid_argument);
}

TEST(PackedAssocMemoryBatch, MatchesDensePredictAcrossDims) {
  for (const std::size_t dim : {64u, 1000u, 2048u, 8192u}) {
    const auto setup = make_random_setup(10, dim, 32);
    const auto& packed = setup.am.packed();
    EXPECT_EQ(packed.dim(), dim);
    EXPECT_EQ(packed.num_classes(), 10u);

    const auto batch = packed.predict_batch(setup.packed_queries);
    ASSERT_EQ(batch.size(), setup.queries.size());
    for (std::size_t q = 0; q < setup.queries.size(); ++q) {
      EXPECT_EQ(batch[q], oracle::predict(setup.classes, setup.queries[q],
                                          Similarity::kCosine))
          << "dim " << dim << " query " << q;
    }
  }
}

TEST(PackedAssocMemoryBatch, HammingMetricMatchesToo) {
  const auto setup = make_random_setup(7, 1000, 16, Similarity::kHamming);
  const auto batch = setup.am.packed().predict_batch(setup.packed_queries);
  for (std::size_t q = 0; q < setup.queries.size(); ++q) {
    EXPECT_EQ(batch[q], oracle::predict(setup.classes, setup.queries[q],
                                        Similarity::kHamming));
  }
}

TEST(PackedAssocMemoryBatch, SimilaritiesMatchDenseExactly) {
  for (const std::size_t dim : {64u, 1000u}) {
    const auto setup = make_random_setup(5, dim, 8);
    for (std::size_t q = 0; q < setup.queries.size(); ++q) {
      const auto dense = oracle::similarities(
          setup.classes, setup.queries[q], Similarity::kCosine);
      const auto packed =
          setup.am.packed().similarities(setup.packed_queries[q]);
      ASSERT_EQ(dense.size(), packed.size());
      for (std::size_t c = 0; c < dense.size(); ++c) {
        EXPECT_DOUBLE_EQ(dense[c], packed[c]) << "dim " << dim;
      }
    }
  }
}

TEST(PackedAssocMemoryBatch, WorkerCountNeverChangesResults) {
  for (const std::size_t dim : {64u, 1000u, 2048u, 8192u}) {
    const auto setup = make_random_setup(10, dim, 24);
    const auto& packed = setup.am.packed();
    const auto sequential = packed.predict_batch(setup.packed_queries, 1);
    const auto threaded = packed.predict_batch(setup.packed_queries, 4);
    EXPECT_EQ(sequential, threaded) << "dim " << dim;
  }
}

class ClassifierBatchTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kDim = 2048;

  static HdcClassifier make_model(std::size_t dim) {
    ModelConfig config;
    config.dim = dim;
    config.seed = 91;
    HdcClassifier model(config, 28, 28, 10);
    model.fit(pair().train);
    return model;
  }

  static const data::TrainTestPair& pair() {
    static const data::TrainTestPair p = data::make_digit_train_test(5, 4, 404);
    return p;
  }
};

TEST_F(ClassifierBatchTest, RequiresTraining) {
  ModelConfig config;
  config.dim = 256;
  const HdcClassifier untrained(config, 28, 28, 10);
  EXPECT_THROW((void)untrained.predict_batch(pair().test.images),
               std::logic_error);
  EXPECT_THROW((void)untrained.predict(pair().test.images.front()),
               std::logic_error);
}

TEST_F(ClassifierBatchTest, BitExactWithPerSamplePredictAcrossDims) {
  for (const std::size_t dim : {64u, 1000u, 2048u, 8192u}) {
    const auto model = make_model(dim);
    const auto batch = model.predict_batch(pair().test.images);
    ASSERT_EQ(batch.size(), pair().test.size());
    // Cap the per-sample reference loop at the largest dim: it re-encodes
    // every image a second time, which is the expensive part of this test.
    const std::size_t checked =
        dim >= 8192 ? std::min<std::size_t>(12, batch.size()) : batch.size();
    for (std::size_t i = 0; i < checked; ++i) {
      EXPECT_EQ(batch[i], model.predict(pair().test.images[i]))
          << "dim " << dim << " image " << i;
    }
  }
}

TEST_F(ClassifierBatchTest, WorkerCountNeverChangesResults) {
  const auto model = make_model(kDim);
  EXPECT_EQ(model.predict_batch(pair().test.images, 1),
            model.predict_batch(pair().test.images, 4));
}

TEST_F(ClassifierBatchTest, EncodedOverloadAgreesWithImageOverload) {
  const auto model = make_model(kDim);
  const auto queries = model.encoder().encode_batch_packed(pair().test.images);
  const auto encoded = model.evaluate_encoded(queries, pair().test.labels);
  const auto direct = model.evaluate(pair().test);
  EXPECT_EQ(encoded.correct, direct.correct);
  EXPECT_EQ(encoded.confusion, direct.confusion);
}

TEST_F(ClassifierBatchTest, EvaluateMatchesManualAccuracy) {
  const auto model = make_model(kDim);
  const auto eval_seq = model.evaluate(pair().test, 1);
  const auto eval_par = model.evaluate(pair().test, 4);
  EXPECT_EQ(eval_seq.correct, eval_par.correct);
  EXPECT_EQ(eval_seq.confusion, eval_par.confusion);

  std::size_t correct = 0;
  for (std::size_t i = 0; i < pair().test.size(); ++i) {
    correct += model.predict(pair().test.images[i]) ==
               static_cast<std::size_t>(pair().test.labels[i]);
  }
  EXPECT_EQ(eval_seq.correct, correct);
}

}  // namespace
}  // namespace hdtest::hdc
