// The packed-only guarantee of the fuzz loop. The library has no dense
// hypervector type, so every mutant query lives its whole life in packed
// sign-bit space by construction; what these tests judge is the work the
// loop must not redo: once a seed context is prepared, fuzz_one's
// steady-state generation loop generates ZERO codebooks, rebuilds ZERO class
// HVs, and walks a class row on its own once per call, not per mutant. The
// same holds for every other image fuzzer built on the shared generation
// step (cross-model, coverage, the scheduler's rounds) and for adversarial
// minimization. Verified with the process-wide instrumentation counters
// (hdc/instrument.hpp) rather than call-site review. Also asserts that the
// prepared-seed path is bit-identical to the self-contained fuzz_one
// overload.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>

#include "data/synthetic_digits.hpp"
#include "fuzz/coverage.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/minimize.hpp"
#include "fuzz/schedule.hpp"
#include "hdc/classifier.hpp"
#include "hdc/instrument.hpp"

namespace hdtest::fuzz {
namespace {

class DenseFreeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hdc::ModelConfig config;
    config.dim = 2048;
    config.seed = 19;
    pair_ = std::make_unique<data::TrainTestPair>(
        data::make_digit_train_test(30, 5, 99));
    model_ = std::make_unique<hdc::HdcClassifier>(config, 28, 28, 10);
    model_->fit(pair_->train);
  }
  static void TearDownTestSuite() {
    model_.reset();
    pair_.reset();
  }

  static const hdc::HdcClassifier& model() { return *model_; }
  static const data::Dataset& train_images() { return pair_->train; }
  static const data::Dataset& test_images() { return pair_->test; }

 private:
  static std::unique_ptr<hdc::HdcClassifier> model_;
  static std::unique_ptr<data::TrainTestPair> pair_;
};

std::unique_ptr<hdc::HdcClassifier> DenseFreeTest::model_;
std::unique_ptr<data::TrainTestPair> DenseFreeTest::pair_;

/// Asserts the counters recorded since the last instrument::reset() show no
/// model rebuilding: no codebook generated and no class HV rebuilt.
void expect_dense_free(const char* what) {
  EXPECT_EQ(hdc::instrument::packed_codebook_builds(), 0u)
      << what << " generated a codebook";
  EXPECT_EQ(hdc::instrument::packed_am_rebuilds(), 0u)
      << what << " rebuilt the class HVs";
}

TEST_F(DenseFreeTest, SteadyStateLoopIsDenseFree) {
  const GaussNoiseMutation strategy;
  FuzzConfig config;
  config.iter_times = 8;
  const Fuzzer fuzzer(model(), strategy, config);

  // Setup (model training, seed warm-up) builds the model; the guarantee
  // starts once the seed context exists.
  const auto seed = fuzzer.prepare_seed(test_images().images[0]);
  util::Rng rng(7);
  hdc::instrument::reset();
  const auto outcome = fuzzer.fuzz_one(test_images().images[0], rng, seed);
  EXPECT_GT(outcome.encodes, 1u);  // the loop actually encoded mutants
  expect_dense_free("fuzz_one");
  // The blocked AM sweep returns the reference-class score with the argmax,
  // so the only standalone row walk allowed is the parent seed's fitness —
  // exactly one per fuzz_one, never one per mutant.
  EXPECT_EQ(hdc::instrument::am_row_walks(), 1u)
      << "fuzz_one re-walked a class row per mutant instead of consuming "
         "the sweep's reference-class score";
}

TEST_F(DenseFreeTest, FullEncoderPathIsAlsoDenseFree) {
  // With the incremental encoder disabled every mutant takes the bit-sliced
  // full encode; that path must rebuild nothing either.
  const GaussNoiseMutation strategy;
  FuzzConfig config;
  config.iter_times = 3;
  config.use_incremental_encoder = false;
  const Fuzzer fuzzer(model(), strategy, config);
  const auto seed = fuzzer.prepare_seed(test_images().images[1]);
  util::Rng rng(8);
  hdc::instrument::reset();
  (void)fuzzer.fuzz_one(test_images().images[1], rng, seed);
  expect_dense_free("the full-encode fuzz_one");
  EXPECT_EQ(hdc::instrument::am_row_walks(), 1u);
}

TEST_F(DenseFreeTest, PrepareSeedIsDenseFree) {
  // The warm-up full encode reads the model's codebooks and class HVs as
  // they are: bit-sliced accumulation plus the fused bipolarize.
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  hdc::instrument::reset();
  const auto seed = fuzzer.prepare_seed(test_images().images[2]);
  EXPECT_EQ(seed.reference_label, model().predict(test_images().images[2]));
  expect_dense_free("prepare_seed");
}

TEST_F(DenseFreeTest, PreparedSeedMatchesSelfContainedFuzzOne) {
  const RandNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  const auto& input = test_images().images[3];
  const auto seed = fuzzer.prepare_seed(input);
  for (std::uint64_t s = 0; s < 3; ++s) {
    util::Rng ra(s);
    util::Rng rb(s);
    const auto with_seed = fuzzer.fuzz_one(input, ra, seed);
    const auto self_contained = fuzzer.fuzz_one(input, rb);
    EXPECT_EQ(with_seed.success, self_contained.success);
    EXPECT_EQ(with_seed.iterations, self_contained.iterations);
    EXPECT_EQ(with_seed.encodes, self_contained.encodes);
    EXPECT_EQ(with_seed.reference_label, self_contained.reference_label);
    if (with_seed.success) {
      EXPECT_EQ(with_seed.adversarial, self_contained.adversarial);
      EXPECT_EQ(with_seed.adversarial_label, self_contained.adversarial_label);
    }
  }
}

TEST_F(DenseFreeTest, StoredCodebooksNeverRematerializeARow) {
  // The stored-mirror configuration must stay on the zero-regeneration
  // path end to end: warm-up, steady-state loop, everything.
  hdc::ModelConfig config;
  config.dim = 1024;
  config.seed = 5;
  config.codebook = hdc::CodebookMode::kStored;
  hdc::HdcClassifier stored(config, 28, 28, 10);
  stored.fit(test_images());
  const GaussNoiseMutation strategy;
  FuzzConfig fuzz_config;
  fuzz_config.iter_times = 4;
  const Fuzzer fuzzer(stored, strategy, fuzz_config);
  hdc::instrument::reset();
  const auto seed = fuzzer.prepare_seed(test_images().images[0]);
  util::Rng rng(3);
  (void)fuzzer.fuzz_one(test_images().images[0], rng, seed);
  EXPECT_EQ(hdc::instrument::codebook_row_rematerializations(), 0u)
      << "a stored-mirror codebook regenerated a row";
}

TEST_F(DenseFreeTest, RematFuzzLoopIsDenseFreeAndCountsItsRows) {
  // Rematerializing codebooks trade row regenerations for mirror memory,
  // but the steady-state guarantee is unchanged: rows regenerate into
  // scratch, and no codebook is ever built.
  hdc::ModelConfig config;
  config.dim = 1024;
  config.seed = 5;
  config.codebook = hdc::CodebookMode::kRemat;
  hdc::HdcClassifier remat(config, 28, 28, 10);
  remat.fit(test_images());
  const GaussNoiseMutation strategy;
  FuzzConfig fuzz_config;
  fuzz_config.iter_times = 4;
  const Fuzzer fuzzer(remat, strategy, fuzz_config);
  const auto seed = fuzzer.prepare_seed(test_images().images[0]);
  util::Rng rng(3);
  hdc::instrument::reset();
  const auto outcome = fuzzer.fuzz_one(test_images().images[0], rng, seed);
  EXPECT_GT(outcome.encodes, 1u);
  expect_dense_free("remat fuzz_one");
  EXPECT_GT(hdc::instrument::codebook_row_rematerializations(), 0u)
      << "remat fuzz_one never regenerated a row — mirrors leaked back in";
}

TEST_F(DenseFreeTest, PrepareSeedsMatchesPerInputForAnyWorkerCount) {
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  const auto inputs =
      std::span<const data::Image>(test_images().images).first(6);
  for (const std::size_t workers : {1u, 4u}) {
    const auto seeds = fuzzer.prepare_seeds(inputs, workers);
    ASSERT_EQ(seeds.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto expected = fuzzer.prepare_seed(inputs[i]);
      ASSERT_EQ(seeds[i].reference, expected.reference) << "workers=" << workers;
      ASSERT_EQ(seeds[i].reference_label, expected.reference_label);
    }
  }
}

TEST_F(DenseFreeTest, CrossModelFuzzOneIsDenseFree) {
  hdc::ModelConfig config;
  config.dim = 2048;
  config.seed = 23;  // an independently seeded twin
  hdc::HdcClassifier twin(config, 28, 28, 10);
  twin.fit(train_images());
  const GaussNoiseMutation strategy;
  FuzzConfig fuzz_config;
  fuzz_config.iter_times = 4;
  const CrossModelFuzzer fuzzer(model(), twin, strategy, fuzz_config);
  std::size_t fuzzed = 0;
  for (std::size_t i = 0; i < test_images().size(); ++i) {
    util::Rng rng(i);
    hdc::instrument::reset();
    const auto outcome = fuzzer.fuzz_one(test_images().images[i], rng);
    if (outcome.skipped) continue;  // no loop ran
    ++fuzzed;
    EXPECT_GT(outcome.encodes, 2u);
    expect_dense_free("CrossModelFuzzer::fuzz_one");
  }
  EXPECT_GT(fuzzed, 0u) << "the models disagreed on every input";
}

TEST_F(DenseFreeTest, CoverageFuzzOneIsDenseFree) {
  const RandNoiseMutation strategy;
  FuzzConfig config;
  config.iter_times = 6;
  CoverageFuzzer fuzzer(model(), strategy, config, 0.3);
  util::Rng rng(11);
  hdc::instrument::reset();
  const auto outcome = fuzzer.fuzz_one(test_images().images[4], rng);
  EXPECT_GT(outcome.base.encodes, 1u);
  expect_dense_free("CoverageFuzzer::fuzz_one");
}

TEST_F(DenseFreeTest, MinimizeAdversarialIsDenseFree) {
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  const auto& original = test_images().images[5];
  util::Rng rng(12);
  const auto finding = fuzzer.fuzz_one(original, rng);
  ASSERT_TRUE(finding.success);
  hdc::instrument::reset();
  const auto result =
      minimize_adversarial(model(), original, finding.adversarial);
  EXPECT_GT(result.encodes, 2u);
  expect_dense_free("minimize_adversarial");
}

TEST_F(DenseFreeTest, ScheduledRoundsAddNoDenseWork) {
  // Warm-up and rounds alike read the one trained model.
  const RandNoiseMutation strategy;
  const auto inputs = test_images().take(6);
  ScheduleConfig with_rounds;
  with_rounds.total_encodes = 1500;
  with_rounds.round_encodes = 150;
  hdc::instrument::reset();
  const auto result =
      run_scheduled_campaign(model(), strategy, inputs, with_rounds);
  EXPECT_GT(result.rounds, 0u);
  expect_dense_free("a scheduled campaign");
}

}  // namespace
}  // namespace hdtest::fuzz
