// Tests for defense/retrain_defense and baseline/unguided — the paper's
// section V-D case study and the comparison baselines.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "baseline/unguided.hpp"
#include "data/synthetic_digits.hpp"
#include "defense/retrain_defense.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/mutation.hpp"
#include "hdc/classifier.hpp"

namespace hdtest {
namespace {

class DefenseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hdc::ModelConfig config;
    config.dim = 2048;
    config.seed = 21;
    pair_ = std::make_unique<data::TrainTestPair>(
        data::make_digit_train_test(30, 10, 888));
    model_ = std::make_unique<hdc::HdcClassifier>(config, 28, 28, 10);
    model_->fit(pair_->train);

    // One shared adversarial pool for all defense tests. Every test below
    // feeds these successes into a downstream stage, so an empty pool would
    // make the whole suite vacuous — assert it produced findings.
    const fuzz::GaussNoiseMutation strategy;
    const fuzz::Fuzzer fuzzer(*model_, strategy, fuzz::FuzzConfig{});
    fuzz::CampaignConfig config_campaign;
    config_campaign.max_images = 60;
    campaign_ = std::make_unique<fuzz::CampaignResult>(
        fuzz::run_campaign(fuzzer, pair_->test, config_campaign));
    ASSERT_FALSE(campaign_->gave_up);
    ASSERT_GT(campaign_->successes(), 0u)
        << "shared adversarial pool is empty; defense tests would be vacuous";
  }
  static void TearDownTestSuite() {
    campaign_.reset();
    model_.reset();
    pair_.reset();
  }

  static const hdc::HdcClassifier& model() { return *model_; }
  static const data::TrainTestPair& pair() { return *pair_; }
  static const fuzz::CampaignResult& campaign() { return *campaign_; }

  /// A fresh victim model identical to the shared one (defense mutates it).
  static hdc::HdcClassifier fresh_victim() {
    hdc::ModelConfig config;
    config.dim = 2048;
    config.seed = 21;
    hdc::HdcClassifier victim(config, 28, 28, 10);
    victim.fit(pair_->train);
    return victim;
  }

 private:
  static std::unique_ptr<hdc::HdcClassifier> model_;
  static std::unique_ptr<data::TrainTestPair> pair_;
  static std::unique_ptr<fuzz::CampaignResult> campaign_;
};

std::unique_ptr<hdc::HdcClassifier> DefenseTest::model_;
std::unique_ptr<data::TrainTestPair> DefenseTest::pair_;
std::unique_ptr<fuzz::CampaignResult> DefenseTest::campaign_;

TEST_F(DefenseTest, SharedPoolIsNonEmpty) {
  EXPECT_FALSE(campaign().gave_up);
  const auto pool = defense::collect_adversarials(campaign(), 10);
  EXPECT_GT(pool.size(), 0u)
      << "defense suite would silently run against an empty adversarial pool";
}

TEST_F(DefenseTest, CollectAdversarialsKeepsOnlySuccesses) {
  const auto pool = defense::collect_adversarials(campaign(), 10);
  EXPECT_EQ(pool.size(), campaign().successes());
  EXPECT_GT(pool.size(), 0u);
  EXPECT_EQ(pool.num_classes, 10);
  EXPECT_NO_THROW(pool.validate());
  // Every pooled image fools the original model (differential construction).
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_NE(model().predict(pool.images[i]),
              static_cast<std::size_t>(pool.labels[i]));
  }
}

TEST_F(DefenseTest, ConfigValidation) {
  defense::DefenseConfig config;
  EXPECT_NO_THROW(config.validate());
  config.retrain_fraction = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.retrain_fraction = 1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = defense::DefenseConfig{};
  config.epochs = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST_F(DefenseTest, ConfigRejectsFractionsOutsideTheOpenUnitInterval) {
  for (const double fraction :
       {std::nan(""), std::numeric_limits<double>::infinity(), 1.5, -0.5}) {
    defense::DefenseConfig config;
    config.retrain_fraction = fraction;
    EXPECT_THROW(config.validate(), std::invalid_argument) << fraction;
  }
}

TEST_F(DefenseTest, RejectsTinyPools) {
  auto victim = fresh_victim();
  data::Dataset tiny;
  tiny.num_classes = 10;
  tiny.images.emplace_back(28, 28, 0);
  tiny.labels.push_back(0);
  EXPECT_THROW((void)defense::run_defense(victim, tiny, pair().test,
                                    defense::DefenseConfig{}),
               std::invalid_argument);
}

TEST_F(DefenseTest, AttackRateBeforeIsTotalByConstruction) {
  auto victim = fresh_victim();
  const auto pool = defense::collect_adversarials(campaign(), 10);
  const auto result = defense::run_defense(victim, pool, pair().test,
                                           defense::DefenseConfig{});
  // Fig. 8: held-out adversarials fool the undefended model 100% of the time.
  EXPECT_DOUBLE_EQ(result.attack_rate_before, 1.0);
  EXPECT_EQ(result.pool_size, pool.size());
  EXPECT_EQ(result.retrain_size + result.attack_size, pool.size());
}

TEST_F(DefenseTest, RetrainingDropsAttackSuccessRate) {
  auto victim = fresh_victim();
  const auto pool = defense::collect_adversarials(campaign(), 10);
  defense::DefenseConfig config;
  config.epochs = 2;
  const auto result = defense::run_defense(victim, pool, pair().test, config);
  // The paper reports a drop of more than 20 percentage points.
  EXPECT_GT(result.attack_rate_drop(), 0.2)
      << "before=" << result.attack_rate_before
      << " after=" << result.attack_rate_after;
  // Clean accuracy must not collapse.
  EXPECT_GT(result.clean_accuracy_after,
            result.clean_accuracy_before - 0.15);
}

TEST_F(DefenseTest, AddOnlyModeAlsoRuns) {
  auto victim = fresh_victim();
  const auto pool = defense::collect_adversarials(campaign(), 10);
  defense::DefenseConfig config;
  config.retrain_mode = hdc::RetrainMode::kAddOnly;
  const auto result = defense::run_defense(victim, pool, pair().test, config);
  EXPECT_LE(result.attack_rate_after, result.attack_rate_before);
}

TEST_F(DefenseTest, SplitSeedChangesPartition) {
  const auto pool = defense::collect_adversarials(campaign(), 10);
  defense::DefenseConfig c1;
  defense::DefenseConfig c2;
  c2.split_seed = 0x1234;
  auto v1 = fresh_victim();
  auto v2 = fresh_victim();
  const auto r1 = defense::run_defense(v1, pool, pair().test, c1);
  const auto r2 = defense::run_defense(v2, pool, pair().test, c2);
  EXPECT_EQ(r1.retrain_size, r2.retrain_size);
  // Different partitions may (and usually do) yield different after-rates;
  // at minimum the runs must both be internally consistent.
  EXPECT_LE(r1.attack_rate_after, 1.0);
  EXPECT_LE(r2.attack_rate_after, 1.0);
}

TEST_F(DefenseTest, UnguidedCampaignIsLabeledAndRuns) {
  const fuzz::GaussNoiseMutation strategy;
  fuzz::CampaignConfig config;
  config.max_images = 10;
  const auto result = baseline::run_unguided_campaign(model(), strategy,
                                                      pair().test, config);
  EXPECT_EQ(result.strategy_name, "gauss (unguided)");
  EXPECT_EQ(result.images_fuzzed(), 10u);
  EXPECT_GT(result.successes(), 0u);
}

TEST_F(DefenseTest, RandomAttackRespectsBudgetAndReports) {
  const fuzz::GaussNoiseMutation strategy;
  fuzz::PerturbationBudget budget;
  budget.max_l2 = 1.0;
  const auto result = baseline::run_random_attack(
      model(), strategy, pair().test.take(20), budget, 3, 42);
  EXPECT_EQ(result.attempts, 20u);
  EXPECT_LE(result.successes, result.attempts);
  EXPECT_GE(result.success_rate(), 0.0);
  EXPECT_LE(result.success_rate(), 1.0);
  if (result.successes > 0) {
    EXPECT_GT(result.avg_l2, 0.0);
    EXPECT_LE(result.avg_l2, 1.0);
  }
}

TEST_F(DefenseTest, RandomAttackWithImpossibleBudgetNeverSucceeds) {
  const fuzz::GaussNoiseMutation strategy;
  fuzz::PerturbationBudget budget;
  budget.max_l2 = 1e-12;
  const auto result = baseline::run_random_attack(
      model(), strategy, pair().test.take(5), budget, 2, 42);
  EXPECT_EQ(result.successes, 0u);
}

}  // namespace
}  // namespace hdtest
