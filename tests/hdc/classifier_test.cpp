// Tests for hdc/classifier: end-to-end training, evaluation, retraining.

#include "hdc/classifier.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "data/synthetic_digits.hpp"

namespace hdtest::hdc {
namespace {

ModelConfig test_config(std::size_t dim = 2048) {
  ModelConfig config;
  config.dim = dim;
  config.seed = 7;
  return config;
}

const data::TrainTestPair& digits() {
  // Small but sufficient for ~90% accuracy at D=2048.
  static const data::TrainTestPair pair = data::make_digit_train_test(30, 10, 123);
  return pair;
}

TEST(HdcClassifier, UntrainedModelRefusesQueries) {
  HdcClassifier model(test_config(), 28, 28, 10);
  EXPECT_FALSE(model.trained());
  const data::Image img(28, 28, 0);
  EXPECT_THROW((void)model.predict(img), std::logic_error);
  EXPECT_THROW((void)model.similarities(img), std::logic_error);
  EXPECT_THROW((void)model.evaluate(digits().test), std::logic_error);
  data::Dataset empty;
  EXPECT_THROW(model.retrain(empty), std::logic_error);
}

TEST(HdcClassifier, FitRejectsBadInputs) {
  HdcClassifier model(test_config(), 28, 28, 10);
  data::Dataset empty;
  EXPECT_THROW(model.fit(empty), std::invalid_argument);

  auto wrong_classes = digits().train;
  wrong_classes.num_classes = 7;
  EXPECT_THROW(model.fit(wrong_classes), std::invalid_argument);
}

TEST(HdcClassifier, DoubleFitThrows) {
  HdcClassifier model(test_config(), 28, 28, 10);
  model.fit(digits().train);
  EXPECT_THROW(model.fit(digits().train), std::logic_error);
}

TEST(HdcClassifier, ReachesPaperAccuracyBand) {
  // The paper trains its MNIST model to ~90%; the synthetic substitute must
  // land in the same band for the fuzzing experiments to be meaningful.
  HdcClassifier model(test_config(4096), 28, 28, 10);
  model.fit(digits().train);
  const auto eval = model.evaluate(digits().test);
  EXPECT_GE(eval.accuracy(), 0.85) << "accuracy " << eval.accuracy();
  EXPECT_EQ(eval.total, digits().test.size());
}

TEST(HdcClassifier, ConfusionMatrixRowsSumToClassCounts) {
  HdcClassifier model(test_config(), 28, 28, 10);
  model.fit(digits().train);
  const auto eval = model.evaluate(digits().test);
  const auto counts = digits().test.class_counts();
  for (std::size_t truth = 0; truth < 10; ++truth) {
    const auto row_sum = std::accumulate(eval.confusion[truth].begin(),
                                         eval.confusion[truth].end(),
                                         std::size_t{0});
    EXPECT_EQ(row_sum, counts[truth]) << "class " << truth;
  }
  // Diagonal sum equals the correct count.
  std::size_t diagonal = 0;
  for (std::size_t c = 0; c < 10; ++c) diagonal += eval.confusion[c][c];
  EXPECT_EQ(diagonal, eval.correct);
}

TEST(HdcClassifier, PredictionsAreDeterministic) {
  HdcClassifier model(test_config(), 28, 28, 10);
  model.fit(digits().train);
  const auto& img = digits().test.images[0];
  EXPECT_EQ(model.predict(img), model.predict(img));
  EXPECT_EQ(model.similarities(img), model.similarities(img));
}

TEST(HdcClassifier, SameConfigSameModel) {
  HdcClassifier a(test_config(), 28, 28, 10);
  HdcClassifier b(test_config(), 28, 28, 10);
  a.fit(digits().train);
  b.fit(digits().train);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(a.predict(digits().test.images[i]),
              b.predict(digits().test.images[i]));
  }
}

TEST(HdcClassifier, DifferentSeedsGiveDifferentModels) {
  auto config_b = test_config();
  config_b.seed = 999;
  HdcClassifier a(test_config(), 28, 28, 10);
  HdcClassifier b(config_b, 28, 28, 10);
  a.fit(digits().train);
  b.fit(digits().train);
  bool any_diff = false;
  for (std::size_t i = 0; i < digits().test.size() && !any_diff; ++i) {
    any_diff = a.predict(digits().test.images[i]) !=
               b.predict(digits().test.images[i]);
  }
  // Different random item memories -> (almost surely) some disagreement.
  EXPECT_TRUE(any_diff);
}

TEST(HdcClassifier, PredictEncodedMatchesPredict) {
  HdcClassifier model(test_config(), 28, 28, 10);
  model.fit(digits().train);
  const auto& img = digits().test.images[3];
  EXPECT_EQ(model.am().packed().predict(model.encoder().encode_packed(img)),
            model.predict(img));
}

TEST(HdcClassifier, SimilarityToClassMatchesSimilarities) {
  HdcClassifier model(test_config(), 28, 28, 10);
  model.fit(digits().train);
  const auto& img = digits().test.images[5];
  const auto query = model.encoder().encode_packed(img);
  const auto sims = model.similarities(img);
  for (std::size_t c = 0; c < 10; ++c) {
    EXPECT_DOUBLE_EQ(model.am().packed().similarity_to(c, query), sims[c]);
  }
}

TEST(HdcClassifier, RetrainValidatesInputs) {
  HdcClassifier model(test_config(), 28, 28, 10);
  model.fit(digits().train);
  const std::vector<data::Image> images{data::Image(28, 28, 0)};
  const std::vector<int> too_many{1, 2};
  EXPECT_THROW(model.retrain(std::span<const data::Image>(images),
                             std::span<const int>(too_many)),
               std::invalid_argument);
  const std::vector<int> bad_label{10};
  EXPECT_THROW(model.retrain(std::span<const data::Image>(images),
                             std::span<const int>(bad_label)),
               std::invalid_argument);
}

TEST(HdcClassifier, RetrainFixesTargetedMispredictions) {
  HdcClassifier model(test_config(), 28, 28, 10);
  model.fit(digits().train);

  // Collect a few test images the model gets wrong.
  data::Dataset wrong;
  wrong.num_classes = 10;
  const auto extra = data::make_digit_dataset(20, 777);
  for (std::size_t i = 0; i < extra.size() && wrong.size() < 5; ++i) {
    if (model.predict(extra.images[i]) !=
        static_cast<std::size_t>(extra.labels[i])) {
      wrong.images.push_back(extra.images[i]);
      wrong.labels.push_back(extra.labels[i]);
    }
  }
  if (wrong.empty()) {
    GTEST_SKIP() << "model made no errors on the probe set";
  }

  const auto missed_before = model.retrain(wrong, RetrainMode::kAddSubtract);
  EXPECT_EQ(missed_before, wrong.size());

  // After a few epochs the retrained examples should mostly be fixed.
  for (int epoch = 0; epoch < 4; ++epoch) {
    model.retrain(wrong, RetrainMode::kAddSubtract);
  }
  std::size_t still_wrong = 0;
  for (std::size_t i = 0; i < wrong.size(); ++i) {
    still_wrong += model.predict(wrong.images[i]) !=
                   static_cast<std::size_t>(wrong.labels[i]);
  }
  EXPECT_LT(still_wrong, wrong.size());
}

TEST(HdcClassifier, RetrainAddOnlyAlsoReinforces) {
  HdcClassifier model(test_config(), 28, 28, 10);
  model.fit(digits().train);
  // Retraining on correctly-labeled clean data must not crash and keeps the
  // model functional.
  const auto extra = data::make_digit_dataset(2, 555);
  model.retrain(extra, RetrainMode::kAddOnly);
  EXPECT_TRUE(model.trained());
  const auto eval = model.evaluate(digits().test);
  EXPECT_GT(eval.accuracy(), 0.5);
}

TEST(EvalResult, EmptyAccuracyIsZero) {
  EvalResult r;
  EXPECT_DOUBLE_EQ(r.accuracy(), 0.0);
}

}  // namespace
}  // namespace hdtest::hdc
