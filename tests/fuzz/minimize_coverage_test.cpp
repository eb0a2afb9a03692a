// Tests for fuzz/minimize (adversarial minimization), fuzz/coverage
// (novelty archive + coverage-guided fuzzing), and fuzz/vulnerability.

#include <gtest/gtest.h>

#include <stdexcept>

#include "data/synthetic_digits.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/coverage.hpp"
#include "fuzz/minimize.hpp"
#include "fuzz/mutation.hpp"
#include "fuzz/vulnerability.hpp"
#include "hdc/classifier.hpp"

namespace hdtest::fuzz {
namespace {

class MinimizeCoverageTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hdc::ModelConfig config;
    config.dim = 2048;
    config.seed = 31;
    pair_ = new data::TrainTestPair(data::make_digit_train_test(30, 6, 404));
    model_ = new hdc::HdcClassifier(config, 28, 28, 10);
    model_->fit(pair_->train);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete pair_;
  }
  static const hdc::HdcClassifier& model() { return *model_; }
  static const data::Dataset& inputs() { return pair_->test; }

  /// A (original, adversarial) pair found by the standard fuzzer.
  static std::pair<data::Image, data::Image> make_finding(std::size_t index) {
    const GaussNoiseMutation strategy;
    const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
    util::Rng rng(1000 + index);
    const auto outcome = fuzzer.fuzz_one(inputs().images[index], rng);
    EXPECT_TRUE(outcome.success);
    return {inputs().images[index], outcome.adversarial};
  }

 private:
  static hdc::HdcClassifier* model_;
  static data::TrainTestPair* pair_;
};

hdc::HdcClassifier* MinimizeCoverageTest::model_ = nullptr;
data::TrainTestPair* MinimizeCoverageTest::pair_ = nullptr;

TEST_F(MinimizeCoverageTest, MinimizeConfigValidation) {
  MinimizeConfig config;
  config.max_passes = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_NO_THROW(MinimizeConfig{}.validate());
}

TEST_F(MinimizeCoverageTest, MinimizeRejectsNonAdversarialInput) {
  const auto& original = inputs().images[0];
  EXPECT_THROW(
      (void)minimize_adversarial(model(), original, original, MinimizeConfig{}),
      std::invalid_argument);
}

TEST_F(MinimizeCoverageTest, MinimizeRejectsShapeMismatch) {
  EXPECT_THROW((void)minimize_adversarial(model(), inputs().images[0],
                                          data::Image(14, 14, 0)),
               std::invalid_argument);
}

TEST_F(MinimizeCoverageTest, MinimizedImageIsStillAdversarialAndSmaller) {
  const auto [original, adversarial] = make_finding(0);
  const auto result = minimize_adversarial(model(), original, adversarial);
  // Oracle preserved.
  EXPECT_NE(model().predict(result.minimized), model().predict(original));
  // Never larger, usually much smaller (gauss findings touch ~350 pixels).
  EXPECT_LE(result.pixels_after, result.pixels_before);
  EXPECT_LT(result.pixels_after, result.pixels_before)
      << "gauss finding should shed at least one pixel";
  EXPECT_EQ(result.pixels_after, original.count_diff(result.minimized));
  EXPECT_EQ(result.pixels_before - result.pixels_after, result.reverted);
  EXPECT_GT(result.encodes, 0u);
}

TEST_F(MinimizeCoverageTest, MinimizeReducesPerturbationMetrics) {
  const auto [original, adversarial] = make_finding(1);
  const auto result = minimize_adversarial(model(), original, adversarial);
  const auto before = measure_perturbation(original, adversarial);
  EXPECT_LE(result.perturbation.l1, before.l1);
  EXPECT_LE(result.perturbation.l2, before.l2 + 1e-12);
  EXPECT_GE(result.reduction(), 0.0);
  EXPECT_LE(result.reduction(), 1.0);
}

TEST_F(MinimizeCoverageTest, FineOnlyModeAlsoWorks) {
  const auto [original, adversarial] = make_finding(2);
  MinimizeConfig config;
  config.coarse_to_fine = false;
  config.max_passes = 2;
  const auto result =
      minimize_adversarial(model(), original, adversarial, config);
  EXPECT_NE(model().predict(result.minimized), model().predict(original));
  EXPECT_LE(result.pixels_after, result.pixels_before);
}

TEST(NoveltyArchive, ValidatesThreshold) {
  EXPECT_THROW(NoveltyArchive(-0.1), std::invalid_argument);
  EXPECT_THROW(NoveltyArchive(2.1), std::invalid_argument);
  EXPECT_NO_THROW(NoveltyArchive(0.0));
}

TEST(NoveltyArchive, EmptyArchiveHasMaximalNovelty) {
  NoveltyArchive archive;
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(archive.novelty(hdc::PackedHv::random(256, rng)), 2.0);
}

TEST(NoveltyArchive, KnownVectorHasZeroNovelty) {
  NoveltyArchive archive;
  util::Rng rng(2);
  const auto v = hdc::PackedHv::random(512, rng);
  archive.add(v);
  EXPECT_NEAR(archive.novelty(v), 0.0, 1e-12);
}

TEST(NoveltyArchive, RandomVectorsAreMutuallyNovel) {
  NoveltyArchive archive;
  util::Rng rng(3);
  archive.add(hdc::PackedHv::random(4096, rng));
  const auto other = hdc::PackedHv::random(4096, rng);
  // Orthogonal vectors: cosine ~ 0 -> novelty ~ 1.
  EXPECT_NEAR(archive.novelty(other), 1.0, 0.1);
}

TEST(NoveltyArchive, ObserveArchivesAboveThresholdOnly) {
  NoveltyArchive archive(0.5);
  util::Rng rng(4);
  const auto v = hdc::PackedHv::random(1024, rng);
  EXPECT_DOUBLE_EQ(archive.observe(v), 2.0);  // empty -> max novelty, added
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_NEAR(archive.observe(v), 0.0, 1e-12);  // known -> not re-added
  EXPECT_EQ(archive.size(), 1u);
  const auto other = hdc::PackedHv::random(1024, rng);
  archive.observe(other);  // novelty ~1 >= 0.5 -> added
  EXPECT_EQ(archive.size(), 2u);
}

TEST(NoveltyArchive, CapacityBoundsGrowth) {
  NoveltyArchive archive(0.0, 2);
  util::Rng rng(5);
  for (int i = 0; i < 5; ++i) {
    archive.add(hdc::PackedHv::random(128, rng));
  }
  EXPECT_EQ(archive.size(), 2u);
}

TEST_F(MinimizeCoverageTest, CoverageFuzzerValidatesConstruction) {
  const GaussNoiseMutation strategy;
  EXPECT_THROW(CoverageFuzzer(model(), strategy, FuzzConfig{}, -0.1),
               std::invalid_argument);
  EXPECT_THROW(CoverageFuzzer(model(), strategy, FuzzConfig{}, 1.1),
               std::invalid_argument);
  hdc::ModelConfig config;
  config.dim = 128;
  const hdc::HdcClassifier untrained(config, 28, 28, 10);
  EXPECT_THROW(CoverageFuzzer(untrained, strategy, FuzzConfig{}),
               std::logic_error);
}

TEST_F(MinimizeCoverageTest, CoverageFuzzerFindsAdversarialsAndGrowsArchive) {
  const GaussNoiseMutation strategy;
  CoverageFuzzer fuzzer(model(), strategy, FuzzConfig{}, 0.3);
  util::Rng rng(6);
  const auto outcome = fuzzer.fuzz_one(inputs().images[0], rng);
  EXPECT_TRUE(outcome.base.success);
  EXPECT_NE(outcome.base.adversarial_label, outcome.base.reference_label);
  EXPECT_EQ(model().predict(outcome.base.adversarial),
            outcome.base.adversarial_label);
  EXPECT_GE(fuzzer.archive().size(), 1u);  // at least the clean input
}

TEST_F(MinimizeCoverageTest, CoverageArchivePersistsAcrossInputs) {
  const RandNoiseMutation strategy;
  CoverageFuzzer fuzzer(model(), strategy, FuzzConfig{}, 0.5);
  util::Rng rng(7);
  (void)fuzzer.fuzz_one(inputs().images[0], rng);
  const auto after_first = fuzzer.archive().size();
  (void)fuzzer.fuzz_one(inputs().images[1], rng);
  EXPECT_GE(fuzzer.archive().size(), after_first + 1);  // second clean input
}

/// Every FuzzOutcome field except wall time.
void expect_same_outcome(const FuzzOutcome& a, const FuzzOutcome& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.adversarial, b.adversarial);
  EXPECT_EQ(a.reference_label, b.reference_label);
  EXPECT_EQ(a.adversarial_label, b.adversarial_label);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.perturbation.l1, b.perturbation.l1);
  EXPECT_EQ(a.perturbation.l2, b.perturbation.l2);
  EXPECT_EQ(a.perturbation.linf, b.perturbation.linf);
  EXPECT_EQ(a.perturbation.pixels_changed, b.perturbation.pixels_changed);
  EXPECT_EQ(a.encodes, b.encodes);
  EXPECT_EQ(a.discarded, b.discarded);
}

TEST_F(MinimizeCoverageTest, ZeroNoveltyWeightMatchesPlainGuidance) {
  // w = 0 reduces the objective to the paper's fitness; outcomes match the
  // plain Fuzzer given identical RNG streams, field for field.
  const RandNoiseMutation strategy;
  const Fuzzer plain(model(), strategy, FuzzConfig{});
  CoverageFuzzer coverage(model(), strategy, FuzzConfig{}, 0.0);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    util::Rng ra(seed);
    util::Rng rb(seed);
    const auto oa = plain.fuzz_one(inputs().images[2], ra);
    const auto ob = coverage.fuzz_one(inputs().images[2], rb);
    expect_same_outcome(oa, ob.base);
    EXPECT_EQ(ra.next_u64(), rb.next_u64()) << "RNG streams diverged";
  }
}

TEST_F(MinimizeCoverageTest, ZeroNoveltyUnguidedMatchesUnguidedFuzzer) {
  // The coverage loop honours FuzzConfig::guided: unguided survival is
  // uniform (keep_random), exactly like the unguided Fuzzer baseline.
  const RandNoiseMutation strategy;
  FuzzConfig config;
  config.guided = false;
  const Fuzzer plain(model(), strategy, config);
  CoverageFuzzer coverage(model(), strategy, config, 0.0);
  std::size_t late_findings = 0;  // found after selection ran
  for (std::size_t image = 0; image < inputs().size(); ++image) {
    util::Rng ra(image);
    util::Rng rb(image);
    const auto oa = plain.fuzz_one(inputs().images[image], ra);
    const auto ob = coverage.fuzz_one(inputs().images[image], rb);
    late_findings += oa.success && oa.iterations > 1;
    expect_same_outcome(oa, ob.base);
    EXPECT_EQ(ra.next_u64(), rb.next_u64()) << "RNG streams diverged";
  }
  EXPECT_GT(late_findings, 0u);
}

TEST_F(MinimizeCoverageTest, VulnerabilityAnalysisRanksAndScores) {
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  CampaignConfig config;
  config.max_images = 20;
  const auto campaign = run_campaign(fuzzer, inputs(), config);

  const auto report =
      analyze_vulnerability(model(), inputs(), campaign, FuzzConfig{}.iter_times);
  ASSERT_EQ(report.records.size(), 20u);
  EXPECT_EQ(report.flipped, campaign.successes());
  // Sorted descending by score.
  for (std::size_t i = 1; i < report.records.size(); ++i) {
    EXPECT_GE(report.records[i - 1].score, report.records[i].score);
  }
  // Scores are in [0, 1]; unflipped inputs score 0.
  for (const auto& r : report.records) {
    EXPECT_GE(r.score, 0.0);
    EXPECT_LE(r.score, 1.0);
    if (!r.flipped) {
      EXPECT_DOUBLE_EQ(r.score, 0.0);
    }
  }
  EXPECT_EQ(report.top(5).size(), 5u);
  EXPECT_NE(report.to_table(5).find("Rank"), std::string::npos);
}

TEST_F(MinimizeCoverageTest, SimilarityMarginIsNonNegative) {
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_GE(similarity_margin(model(), inputs().images[i]), 0.0);
  }
}

TEST_F(MinimizeCoverageTest, VulnerabilityRejectsZeroIterCap) {
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  CampaignConfig config;
  config.max_images = 2;
  const auto campaign = run_campaign(fuzzer, inputs(), config);
  EXPECT_THROW((void)analyze_vulnerability(model(), inputs(), campaign, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace hdtest::fuzz
