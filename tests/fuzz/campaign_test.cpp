// Tests for fuzz/campaign: aggregation math and the parallel driver.

#include "fuzz/campaign.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "data/synthetic_digits.hpp"
#include "fuzz/mutation.hpp"
#include "hdc/classifier.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace hdtest::fuzz {
namespace {

CampaignRecord make_record(bool success, std::size_t iterations, double l1,
                           double l2, int true_label, double seconds = 0.1) {
  CampaignRecord r;
  r.true_label = true_label;
  r.outcome.success = success;
  r.outcome.iterations = iterations;
  r.outcome.perturbation.l1 = l1;
  r.outcome.perturbation.l2 = l2;
  r.outcome.perturbation.pixels_changed = success ? 3 : 0;
  r.outcome.encodes = iterations * 10;
  r.outcome.seconds = seconds;
  return r;
}

TEST(CampaignResult, EmptyAggregatesAreZero) {
  CampaignResult result;
  EXPECT_EQ(result.successes(), 0u);
  EXPECT_DOUBLE_EQ(result.success_rate(), 0.0);
  EXPECT_DOUBLE_EQ(result.avg_iterations(), 0.0);
  EXPECT_DOUBLE_EQ(result.avg_l1(), 0.0);
  EXPECT_DOUBLE_EQ(result.time_per_1k_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(result.adversarials_per_minute(), 0.0);
}

TEST(CampaignResult, AggregatesMatchHandComputation) {
  CampaignResult result;
  result.records.push_back(make_record(true, 2, 1.0, 0.1, 0));
  result.records.push_back(make_record(true, 4, 3.0, 0.3, 1));
  result.records.push_back(make_record(false, 30, 0.0, 0.0, 0));
  result.total_seconds = 60.0;

  EXPECT_EQ(result.images_fuzzed(), 3u);
  EXPECT_EQ(result.successes(), 2u);
  EXPECT_NEAR(result.success_rate(), 2.0 / 3.0, 1e-12);
  // Paper definition: total iterations / #images = (2+4+30)/3.
  EXPECT_DOUBLE_EQ(result.avg_iterations(), 12.0);
  // Distances averaged over successes only.
  EXPECT_DOUBLE_EQ(result.avg_l1(), 2.0);
  EXPECT_DOUBLE_EQ(result.avg_l2(), 0.2);
  EXPECT_DOUBLE_EQ(result.avg_pixels_changed(), 3.0);
  EXPECT_EQ(result.total_encodes(), 360u);
  // 60 s for 2 adversarials -> 30000 s per 1K, 2 per minute.
  EXPECT_DOUBLE_EQ(result.time_per_1k_seconds(), 30000.0);
  EXPECT_DOUBLE_EQ(result.adversarials_per_minute(), 2.0);
}

TEST(CampaignResult, PerClassAttributesByTrueLabel) {
  CampaignResult result;
  result.records.push_back(make_record(true, 2, 1.0, 0.1, 0));
  result.records.push_back(make_record(true, 6, 2.0, 0.2, 0));
  result.records.push_back(make_record(false, 30, 0.0, 0.0, 1));
  result.records.push_back(make_record(true, 1, 5.0, 0.5, -1));  // unlabeled

  const auto classes = result.per_class(3);
  ASSERT_EQ(classes.size(), 3u);
  EXPECT_EQ(classes[0].attempts, 2u);
  EXPECT_EQ(classes[0].successes, 2u);
  EXPECT_DOUBLE_EQ(classes[0].l1.mean(), 1.5);
  EXPECT_DOUBLE_EQ(classes[0].iterations.mean(), 4.0);
  EXPECT_EQ(classes[1].attempts, 1u);
  EXPECT_EQ(classes[1].successes, 0u);
  EXPECT_EQ(classes[2].attempts, 0u);
}

TEST(CampaignConfig, Validation) {
  CampaignConfig config;
  EXPECT_NO_THROW(config.validate());
  config.workers = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = CampaignConfig{};
  config.fuzz.iter_times = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(CampaignConfig, MaxStreamsValidation) {
  CampaignConfig config;
  config.target_adversarials = 10;
  config.max_streams = 10;  // exactly the target is the legal minimum
  EXPECT_NO_THROW(config.validate());
  config.max_streams = 9;  // can only ever give up
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.max_streams = 0;  // legacy formula
  EXPECT_NO_THROW(config.validate());
  // The knob is target-mode only; sweep mode ignores it.
  config = CampaignConfig{};
  config.max_streams = 3;
  EXPECT_NO_THROW(config.validate());
}

/// Integration fixture with a small trained model.
class CampaignRunTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hdc::ModelConfig config;
    config.dim = 1024;
    config.seed = 3;
    pair_ = new data::TrainTestPair(data::make_digit_train_test(20, 4, 77));
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

hdc::HdcClassifier* CampaignRunTest::model_ = nullptr;
data::TrainTestPair* CampaignRunTest::pair_ = nullptr;

TEST_F(CampaignRunTest, RejectsEmptyInputs) {
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  data::Dataset empty;
  EXPECT_THROW(run_campaign(fuzzer, empty, CampaignConfig{}),
               std::invalid_argument);
}

TEST_F(CampaignRunTest, SweepModeFuzzesEachInputOnce) {
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  CampaignConfig config;
  config.max_images = 12;
  const auto result = run_campaign(fuzzer, inputs(), config);
  EXPECT_EQ(result.images_fuzzed(), 12u);
  EXPECT_EQ(result.strategy_name, "gauss");
  EXPECT_GT(result.successes(), 6u);  // gauss flips nearly everything
  EXPECT_GT(result.total_seconds, 0.0);
  // Records carry the true labels for per-class reporting.
  for (const auto& r : result.records) {
    EXPECT_EQ(r.true_label, inputs().labels[r.image_index]);
  }
}

TEST_F(CampaignRunTest, ResultsAreIdenticalAcrossWorkerCounts) {
  const RandNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  CampaignConfig sequential;
  sequential.max_images = 10;
  sequential.workers = 1;
  sequential.seed = 99;
  CampaignConfig parallel = sequential;
  parallel.workers = 4;

  const auto a = run_campaign(fuzzer, inputs(), sequential);
  const auto b = run_campaign(fuzzer, inputs(), parallel);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].outcome.success, b.records[i].outcome.success);
    EXPECT_EQ(a.records[i].outcome.iterations, b.records[i].outcome.iterations);
    if (a.records[i].outcome.success) {
      EXPECT_EQ(a.records[i].outcome.adversarial,
                b.records[i].outcome.adversarial);
    }
  }

  // Telemetry is out-of-band: metrics and tracing fully on must not move a
  // record of the multi-worker run either.
  const bool was_enabled = obs::enabled();
  const bool was_tracing = obs::trace_enabled();
  obs::set_enabled(true);
  obs::set_trace_enabled(true);
  const auto traced = run_campaign(fuzzer, inputs(), parallel);
  obs::set_enabled(was_enabled);
  obs::set_trace_enabled(was_tracing);
  EXPECT_TRUE(identical_records(a, traced));
}

TEST_F(CampaignRunTest, TargetModeReachesRequestedCount) {
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  CampaignConfig config;
  config.target_adversarials = 25;  // more than the 40-image input set yields
  const auto result = run_campaign(fuzzer, inputs(), config);
  EXPECT_GE(result.successes(), 25u);
  EXPECT_FALSE(result.gave_up);
}

TEST_F(CampaignRunTest, TargetModeGivesUpOnImpossibleTarget) {
  const GaussNoiseMutation strategy;
  FuzzConfig fuzz;
  fuzz.iter_times = 1;
  fuzz.budget.max_l2 = 1e-12;  // nothing can succeed
  const Fuzzer fuzzer(model(), strategy, fuzz);
  CampaignConfig config;
  config.fuzz = fuzz;
  config.target_adversarials = 5;
  const auto result = run_campaign(fuzzer, inputs().take(3), config);
  EXPECT_EQ(result.successes(), 0u);  // terminated by the safety valve
  // The give-up is recorded on the result, not just log_warn'ed, so callers
  // can detect a short/empty pool instead of silently consuming it.
  EXPECT_TRUE(result.gave_up);
}

TEST_F(CampaignRunTest, MaxStreamsKnobForcesGaveUpAtExactBudget) {
  const GaussNoiseMutation strategy;
  FuzzConfig fuzz;
  fuzz.iter_times = 1;
  fuzz.budget.max_l2 = 1e-12;  // nothing can succeed
  const Fuzzer fuzzer(model(), strategy, fuzz);
  CampaignConfig config;
  config.fuzz = fuzz;
  config.target_adversarials = 3;
  config.max_streams = 7;  // far below the legacy formula's 3*1000 + ...
  const auto result = run_campaign(fuzzer, inputs().take(3), config);
  EXPECT_TRUE(result.gave_up);
  EXPECT_EQ(result.successes(), 0u);
  // The knob is exact: precisely max_streams inputs were fuzzed (wrapping
  // the 3-image set), not the legacy formula's thousands.
  EXPECT_EQ(result.images_fuzzed(), 7u);
  for (std::size_t s = 0; s < result.records.size(); ++s) {
    EXPECT_EQ(result.records[s].image_index, s % 3);
  }
}

TEST_F(CampaignRunTest, MaxStreamsLeavesSuccessfulCampaignsUntouched) {
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  CampaignConfig config;
  config.target_adversarials = 5;
  const auto unlimited = run_campaign(fuzzer, inputs(), config);
  ASSERT_FALSE(unlimited.gave_up);
  // A cap above the natural stopping point changes nothing.
  config.max_streams = unlimited.images_fuzzed() + 50;
  const auto capped = run_campaign(fuzzer, inputs(), config);
  EXPECT_FALSE(capped.gave_up);
  ASSERT_EQ(capped.records.size(), unlimited.records.size());
  for (std::size_t i = 0; i < capped.records.size(); ++i) {
    EXPECT_EQ(capped.records[i].outcome.success,
              unlimited.records[i].outcome.success);
  }
}

TEST_F(CampaignRunTest, SweepModeNeverGivesUp) {
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  CampaignConfig config;
  config.max_images = 4;
  EXPECT_FALSE(run_campaign(fuzzer, inputs(), config).gave_up);
}

}  // namespace
}  // namespace hdtest::fuzz
