// Tests for fuzz/fuzzer: Algorithm 1 end to end against a real HDC model.

#include "fuzz/fuzzer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "data/synthetic_digits.hpp"
#include "hdc/classifier.hpp"

namespace hdtest::fuzz {
namespace {

/// Shared fixture: one trained model reused by all fuzzer tests (training is
/// the expensive part).
class FuzzerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hdc::ModelConfig config;
    config.dim = 2048;
    config.seed = 11;
    pair_ = new data::TrainTestPair(data::make_digit_train_test(30, 5, 321));
    model_ = new hdc::HdcClassifier(config, 28, 28, 10);
    model_->fit(pair_->train);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete pair_;
    model_ = nullptr;
    pair_ = nullptr;
  }

  static const hdc::HdcClassifier& model() { return *model_; }
  static const data::Dataset& test_images() { return pair_->test; }

 private:
  static hdc::HdcClassifier* model_;
  static data::TrainTestPair* pair_;
};

hdc::HdcClassifier* FuzzerTest::model_ = nullptr;
data::TrainTestPair* FuzzerTest::pair_ = nullptr;

TEST_F(FuzzerTest, ConfigValidation) {
  FuzzConfig config;
  config.iter_times = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = FuzzConfig{};
  config.seeds_per_iteration = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = FuzzConfig{};
  config.keep_top_n = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_NO_THROW(FuzzConfig{}.validate());
}

TEST_F(FuzzerTest, ConfigRejectsNanInfiniteAndNegativeBudgetLimits) {
  const double bad[] = {std::nan(""), std::numeric_limits<double>::infinity(),
                        -1.0};
  for (const double value : bad) {
    for (auto limit : {&PerturbationBudget::max_l1, &PerturbationBudget::max_l2,
                       &PerturbationBudget::max_linf}) {
      FuzzConfig config;
      config.budget.*limit = value;
      EXPECT_THROW(config.validate(), std::invalid_argument) << value;
    }
  }
  // Zero is a real (strict) limit, and a disengaged limit is unlimited.
  FuzzConfig config;
  config.budget.max_l1 = 0.0;
  config.budget.max_l2 = 0.0;
  config.budget.max_linf = 0.0;
  EXPECT_NO_THROW(config.validate());
  config.budget = PerturbationBudget::unlimited();
  EXPECT_NO_THROW(config.validate());
}

TEST_F(FuzzerTest, RejectsUntrainedModel) {
  hdc::ModelConfig config;
  config.dim = 256;
  const hdc::HdcClassifier untrained(config, 28, 28, 10);
  const GaussNoiseMutation strategy;
  EXPECT_THROW(Fuzzer(untrained, strategy, FuzzConfig{}), std::logic_error);
}

TEST_F(FuzzerTest, GaussFindsAdversarialQuickly) {
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  util::Rng rng(1);
  const auto outcome = fuzzer.fuzz_one(test_images().images[0], rng);
  ASSERT_TRUE(outcome.success);
  EXPECT_LE(outcome.iterations, 5u);
}

TEST_F(FuzzerTest, SuccessfulOutcomeSatisfiesAllInvariants) {
  const GaussNoiseMutation strategy;
  FuzzConfig config;
  const Fuzzer fuzzer(model(), strategy, config);
  util::Rng rng(2);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto& original = test_images().images[i];
    const auto outcome = fuzzer.fuzz_one(original, rng);
    EXPECT_EQ(outcome.reference_label, model().predict(original));
    if (!outcome.success) continue;
    // The differential contract: mutant prediction differs from reference.
    EXPECT_NE(outcome.adversarial_label, outcome.reference_label);
    EXPECT_EQ(model().predict(outcome.adversarial), outcome.adversarial_label);
    // The budget was respected.
    EXPECT_TRUE(config.budget.accepts(outcome.perturbation));
    // The perturbation record matches a direct measurement.
    const auto direct = measure_perturbation(original, outcome.adversarial);
    EXPECT_DOUBLE_EQ(direct.l2, outcome.perturbation.l2);
    EXPECT_GT(outcome.perturbation.pixels_changed, 0u);
    EXPECT_GE(outcome.iterations, 1u);
    EXPECT_GT(outcome.encodes, 0u);
  }
}

TEST_F(FuzzerTest, IterTimesCapIsRespected) {
  // An impossible budget forces every mutant to be discarded, so the loop
  // must run exactly iter_times iterations and report failure.
  const GaussNoiseMutation strategy;
  FuzzConfig config;
  config.iter_times = 7;
  config.budget.max_l2 = 1e-12;
  const Fuzzer fuzzer(model(), strategy, config);
  util::Rng rng(3);
  const auto outcome = fuzzer.fuzz_one(test_images().images[0], rng);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.iterations, 7u);
  EXPECT_GT(outcome.discarded, 0u);
  // Only the reference encode happened (all mutants discarded pre-encode).
  EXPECT_EQ(outcome.encodes, 1u);
}

TEST_F(FuzzerTest, DeterministicGivenRngSeed) {
  const RandNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  util::Rng a(42);
  util::Rng b(42);
  const auto oa = fuzzer.fuzz_one(test_images().images[1], a);
  const auto ob = fuzzer.fuzz_one(test_images().images[1], b);
  EXPECT_EQ(oa.success, ob.success);
  EXPECT_EQ(oa.iterations, ob.iterations);
  EXPECT_EQ(oa.encodes, ob.encodes);
  if (oa.success) {
    EXPECT_EQ(oa.adversarial, ob.adversarial);
    EXPECT_EQ(oa.adversarial_label, ob.adversarial_label);
  }
}

TEST_F(FuzzerTest, IncrementalAndFullEncodersAgree) {
  // The delta re-encoder is an optimization; outcomes must be identical.
  const RandNoiseMutation strategy;
  FuzzConfig fast;
  fast.use_incremental_encoder = true;
  FuzzConfig slow;
  slow.use_incremental_encoder = false;
  const Fuzzer fast_fuzzer(model(), strategy, fast);
  const Fuzzer slow_fuzzer(model(), strategy, slow);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    util::Rng ra(seed);
    util::Rng rb(seed);
    const auto oa = fast_fuzzer.fuzz_one(test_images().images[2], ra);
    const auto ob = slow_fuzzer.fuzz_one(test_images().images[2], rb);
    EXPECT_EQ(oa.success, ob.success);
    EXPECT_EQ(oa.iterations, ob.iterations);
    if (oa.success) {
      EXPECT_EQ(oa.adversarial, ob.adversarial);
    }
  }
}

TEST_F(FuzzerTest, UnguidedModeRunsAndFindsAdversarials) {
  const GaussNoiseMutation strategy;
  FuzzConfig config;
  config.guided = false;
  const Fuzzer fuzzer(model(), strategy, config);
  util::Rng rng(5);
  const auto outcome = fuzzer.fuzz_one(test_images().images[0], rng);
  EXPECT_TRUE(outcome.success);  // gauss flips easily either way
}

TEST_F(FuzzerTest, GuidedBeatsUnguidedOnAverageIterations) {
  // The paper's claim (12% faster) is about averages; with the weaker
  // 'rand' strategy guided search should not need *more* iterations.
  const RandNoiseMutation strategy;
  FuzzConfig guided;
  guided.iter_times = 25;
  FuzzConfig unguided = guided;
  unguided.guided = false;
  const Fuzzer guided_fuzzer(model(), strategy, guided);
  const Fuzzer unguided_fuzzer(model(), strategy, unguided);
  std::size_t guided_total = 0;
  std::size_t unguided_total = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    util::Rng ra(100 + i);
    util::Rng rb(100 + i);
    guided_total += guided_fuzzer.fuzz_one(test_images().images[i], ra).iterations;
    unguided_total +=
        unguided_fuzzer.fuzz_one(test_images().images[i], rb).iterations;
  }
  EXPECT_LE(guided_total, unguided_total + 5);
}

TEST_F(FuzzerTest, ShiftStrategyNeedsUnlimitedBudget) {
  const ShiftMutation strategy;
  FuzzConfig config;
  config.budget = default_budget_for_strategy("shift");
  const Fuzzer fuzzer(model(), strategy, config);
  util::Rng rng(6);
  const auto outcome = fuzzer.fuzz_one(test_images().images[0], rng);
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.discarded, 0u);
}

TEST_F(FuzzerTest, StrategyAccessorReturnsBoundStrategy) {
  const ShiftMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  EXPECT_EQ(fuzzer.strategy().name(), "shift");
  EXPECT_EQ(fuzzer.config().keep_top_n, 3u);
}

}  // namespace
}  // namespace hdtest::fuzz
