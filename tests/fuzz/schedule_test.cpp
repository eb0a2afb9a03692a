// Tests for fuzz/schedule: the AFL-style energy-scheduled population fuzzer.

#include "fuzz/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "data/synthetic_digits.hpp"
#include "fuzz/mutation.hpp"
#include "hdc/classifier.hpp"

namespace hdtest::fuzz {
namespace {

class ScheduleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hdc::ModelConfig config;
    config.dim = 2048;
    config.seed = 71;
    pair_ = new data::TrainTestPair(data::make_digit_train_test(30, 4, 515));
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

hdc::HdcClassifier* ScheduleTest::model_ = nullptr;
data::TrainTestPair* ScheduleTest::pair_ = nullptr;

TEST_F(ScheduleTest, ConfigValidation) {
  ScheduleConfig config;
  EXPECT_NO_THROW(config.validate());
  config.total_encodes = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = ScheduleConfig{};
  config.round_encodes = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = ScheduleConfig{};
  config.round_encodes = config.total_encodes + 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = ScheduleConfig{};
  config.explore = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST_F(ScheduleTest, RejectsBadInputs) {
  const GaussNoiseMutation strategy;
  data::Dataset empty;
  EXPECT_THROW(
      (void)run_scheduled_campaign(model(), strategy, empty, ScheduleConfig{}),
      std::invalid_argument);
  hdc::ModelConfig config;
  config.dim = 128;
  const hdc::HdcClassifier untrained(config, 28, 28, 10);
  EXPECT_THROW((void)run_scheduled_campaign(untrained, strategy, inputs(),
                                            ScheduleConfig{}),
               std::logic_error);
}

TEST_F(ScheduleTest, RespectsTotalBudget) {
  const RandNoiseMutation strategy;
  ScheduleConfig config;
  config.total_encodes = 3000;
  config.round_encodes = 150;
  const auto result =
      run_scheduled_campaign(model(), strategy, inputs().take(10), config);
  // Budget may overshoot by at most one seed batch within the final round.
  EXPECT_LE(result.total_encodes,
            config.total_encodes + config.fuzz.seeds_per_iteration);
  EXPECT_GT(result.rounds, 0u);
}

TEST_F(ScheduleTest, SolvedEntriesAreGenuineAdversarials) {
  const GaussNoiseMutation strategy;
  ScheduleConfig config;
  config.total_encodes = 4000;
  const auto result =
      run_scheduled_campaign(model(), strategy, inputs().take(10), config);
  EXPECT_GT(result.solved(), 0u);
  for (const auto& entry : result.queue) {
    if (!entry.solved) continue;
    EXPECT_EQ(model().predict(entry.adversarial), entry.adversarial_label);
    EXPECT_NE(entry.adversarial_label, entry.reference_label);
    EXPECT_EQ(model().predict(inputs().images[entry.image_index]),
              entry.reference_label);
  }
}

TEST_F(ScheduleTest, StopsEarlyWhenEverythingSolved) {
  const GaussNoiseMutation strategy;  // flips essentially immediately
  ScheduleConfig config;
  config.total_encodes = 1000000;  // would take forever if not early-stopped
  config.round_encodes = 500;
  const auto result =
      run_scheduled_campaign(model(), strategy, inputs().take(5), config);
  EXPECT_EQ(result.solved(), 5u);
  EXPECT_LT(result.total_encodes, 100000u);
}

TEST_F(ScheduleTest, DeterministicInSeed) {
  const RandNoiseMutation strategy;
  ScheduleConfig config;
  config.total_encodes = 2000;
  const auto a = run_scheduled_campaign(model(), strategy, inputs().take(8), config);
  const auto b = run_scheduled_campaign(model(), strategy, inputs().take(8), config);
  EXPECT_EQ(a.solved(), b.solved());
  EXPECT_EQ(a.total_encodes, b.total_encodes);
  for (std::size_t i = 0; i < a.queue.size(); ++i) {
    EXPECT_EQ(a.queue[i].solved, b.queue[i].solved);
    EXPECT_EQ(a.queue[i].encodes_spent, b.queue[i].encodes_spent);
  }
}

TEST_F(ScheduleTest, ParallelWarmupIsBitIdenticalToSequential) {
  const RandNoiseMutation strategy;
  ScheduleConfig config;
  config.total_encodes = 1500;
  config.workers = 1;
  const auto a = run_scheduled_campaign(model(), strategy, inputs().take(8), config);
  config.workers = 4;
  const auto b = run_scheduled_campaign(model(), strategy, inputs().take(8), config);
  EXPECT_EQ(a.solved(), b.solved());
  EXPECT_EQ(a.total_encodes, b.total_encodes);
  EXPECT_EQ(a.rounds, b.rounds);
  ASSERT_EQ(a.queue.size(), b.queue.size());
  for (std::size_t i = 0; i < a.queue.size(); ++i) {
    EXPECT_EQ(a.queue[i].margin, b.queue[i].margin);
    EXPECT_EQ(a.queue[i].reference_label, b.queue[i].reference_label);
    EXPECT_EQ(a.queue[i].best_fitness, b.queue[i].best_fitness);
    EXPECT_EQ(a.queue[i].solved, b.queue[i].solved);
    EXPECT_EQ(a.queue[i].encodes_spent, b.queue[i].encodes_spent);
  }
}

TEST_F(ScheduleTest, PriorityFavorsThinMarginsAndDecaysWithRounds) {
  QueueEntry thin;
  thin.margin = 0.001;
  thin.best_fitness = 0.8;
  QueueEntry wide = thin;
  wide.margin = 0.2;
  EXPECT_GT(thin.priority(), wide.priority());

  QueueEntry spent = thin;
  spent.rounds = 5;
  EXPECT_GT(thin.priority(), spent.priority());
}

TEST_F(ScheduleTest, SchedulerBeatsUniformSplitUnderTightBudget) {
  // With a strongly skewed population (some inputs flip in a handful of
  // queries, some need thousands) the scheduler's margin-driven ordering
  // should solve at least as many inputs as a uniform split of the same
  // budget. This is the property the bench quantifies; here we only assert
  // non-inferiority to keep the test robust.
  const RandNoiseMutation strategy;
  ScheduleConfig scheduled;
  scheduled.total_encodes = 6000;
  scheduled.round_encodes = 300;
  const auto with_schedule =
      run_scheduled_campaign(model(), strategy, inputs().take(12), scheduled);

  // Uniform split: same budget, fixed per-input allocation, no resume.
  FuzzConfig uniform;
  uniform.iter_times = 6000 / 12 / uniform.seeds_per_iteration;
  const Fuzzer fuzzer(model(), strategy, uniform);
  std::size_t uniform_solved = 0;
  util::Rng rng(scheduled.seed);
  for (std::size_t i = 0; i < 12; ++i) {
    util::Rng child = rng.child(i);
    uniform_solved += fuzzer.fuzz_one(inputs().images[i], child).success;
  }
  EXPECT_GE(with_schedule.solved() + 2, uniform_solved);
}

TEST_F(ScheduleTest, SolvesAtLeastUniformAtTheAblationSplit) {
  // bench/schedule_ablation's claim at a small cap, on every fixture input:
  // both sides get the strategy's default budget filter, and uniform splits
  // the cap into equal per-input iteration counts. Budget-rejected mutants
  // cost no encode, so uniform spends far less than the cap; the claim is
  // about equal caps, not equal spend.
  constexpr std::size_t kCap = 3000;
  for (const char* name : {"rand", "row_col_rand"}) {
    const auto strategy = make_strategy(name);
    ScheduleConfig scheduled;
    scheduled.total_encodes = kCap;
    scheduled.round_encodes = 300;
    scheduled.fuzz.budget = default_budget_for_strategy(name);
    const auto with_schedule =
        run_scheduled_campaign(model(), *strategy, inputs(), scheduled);

    FuzzConfig uniform;
    uniform.budget = default_budget_for_strategy(name);
    uniform.iter_times = std::max<std::size_t>(
        1, kCap / inputs().size() / uniform.seeds_per_iteration);
    const Fuzzer fuzzer(model(), *strategy, uniform);
    util::Rng master(scheduled.seed);
    std::size_t uniform_solved = 0;
    for (std::size_t i = 0; i < inputs().size(); ++i) {
      util::Rng rng = master.child(i);
      uniform_solved += fuzzer.fuzz_one(inputs().images[i], rng).success;
    }
    EXPECT_GE(with_schedule.solved(), uniform_solved) << name;
  }
}

}  // namespace
}  // namespace hdtest::fuzz
