// Property sweep: Algorithm 1's invariants must hold under *every* mutation
// strategy (Table I + extensions + a composite), not just the headline ones.

#include <gtest/gtest.h>

#include "data/synthetic_digits.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutation.hpp"
#include "hdc/classifier.hpp"

namespace hdtest::fuzz {
namespace {

class StrategySweep : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    hdc::ModelConfig config;
    config.dim = 2048;
    config.seed = 81;
    pair_ = new data::TrainTestPair(data::make_digit_train_test(25, 4, 909));
    model_ = new hdc::HdcClassifier(config, 28, 28, 10);
    model_->fit(pair_->train);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete pair_;
  }
  static const hdc::HdcClassifier& model() { return *model_; }
  static const data::Dataset& inputs() { return pair_->test; }

 private:
  static hdc::HdcClassifier* model_;
  static data::TrainTestPair* pair_;
};

hdc::HdcClassifier* StrategySweep::model_ = nullptr;
data::TrainTestPair* StrategySweep::pair_ = nullptr;

TEST_P(StrategySweep, FuzzOneInvariantsHold) {
  const auto strategy = make_strategy(GetParam());
  FuzzConfig config;
  config.budget = default_budget_for_strategy(GetParam());
  config.iter_times = 15;
  const Fuzzer fuzzer(model(), *strategy, config);

  for (std::size_t i = 0; i < 5; ++i) {
    util::Rng rng(1000 + i);
    const auto& original = inputs().images[i];
    const auto outcome = fuzzer.fuzz_one(original, rng);

    // The reference label is always the model's own clean prediction.
    EXPECT_EQ(outcome.reference_label, model().predict(original));
    // Iterations never exceed the cap and are counted when work happened.
    EXPECT_GE(outcome.iterations, 1u);
    EXPECT_LE(outcome.iterations, config.iter_times);
    EXPECT_GE(outcome.encodes, 1u);

    if (outcome.success) {
      // Differential contract + budget + measurement consistency.
      EXPECT_NE(outcome.adversarial_label, outcome.reference_label);
      EXPECT_EQ(model().predict(outcome.adversarial),
                outcome.adversarial_label);
      EXPECT_TRUE(config.budget.accepts(outcome.perturbation));
      const auto direct = measure_perturbation(original, outcome.adversarial);
      EXPECT_DOUBLE_EQ(direct.l1, outcome.perturbation.l1);
      EXPECT_DOUBLE_EQ(direct.l2, outcome.perturbation.l2);
      EXPECT_EQ(direct.pixels_changed, outcome.perturbation.pixels_changed);
      EXPECT_GT(outcome.perturbation.pixels_changed, 0u);
      // The adversarial image is a same-shape sibling, never the original.
      EXPECT_EQ(outcome.adversarial.width(), original.width());
      EXPECT_EQ(outcome.adversarial.height(), original.height());
      EXPECT_NE(outcome.adversarial, original);
    }
  }
}

TEST_P(StrategySweep, DeterministicAcrossEncoderPaths) {
  // Lineage delta, root delta and full re-encoding must agree for every
  // strategy (the delta path sees wildly different change patterns per
  // strategy), over full-length runs, guided and unguided.
  const auto strategy = make_strategy(GetParam());
  for (const bool guided : {true, false}) {
    FuzzConfig fast;
    fast.budget = default_budget_for_strategy(GetParam());
    fast.guided = guided;
    FuzzConfig slow = fast;
    slow.use_incremental_encoder = false;
    const Fuzzer fast_fuzzer(model(), *strategy, fast);
    const Fuzzer slow_fuzzer(model(), *strategy, slow);

    for (std::size_t i = 0; i < 5; ++i) {
      util::Rng ra(7 + i);
      util::Rng rb(7 + i);
      const auto oa = fast_fuzzer.fuzz_one(inputs().images[i], ra);
      const auto ob = slow_fuzzer.fuzz_one(inputs().images[i], rb);
      SCOPED_TRACE(::testing::Message()
                   << "input " << i << (guided ? " guided" : " unguided"));
      EXPECT_EQ(oa.success, ob.success);
      EXPECT_EQ(oa.adversarial, ob.adversarial);
      EXPECT_EQ(oa.reference_label, ob.reference_label);
      EXPECT_EQ(oa.adversarial_label, ob.adversarial_label);
      EXPECT_EQ(oa.iterations, ob.iterations);
      EXPECT_EQ(oa.perturbation.l1, ob.perturbation.l1);
      EXPECT_EQ(oa.perturbation.l2, ob.perturbation.l2);
      EXPECT_EQ(oa.perturbation.linf, ob.perturbation.linf);
      EXPECT_EQ(oa.perturbation.pixels_changed, ob.perturbation.pixels_changed);
      EXPECT_EQ(oa.encodes, ob.encodes);
      EXPECT_EQ(oa.discarded, ob.discarded);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategySweep,
                         ::testing::Values("row_rand", "col_rand",
                                           "row_col_rand", "rand", "gauss",
                                           "shift", "block_rand",
                                           "salt_pepper", "brightness",
                                           "gauss+block_rand"));

}  // namespace
}  // namespace hdtest::fuzz
