// Tests for hdc/serialize (model persistence) and hdc/trainer (multi-epoch
// retraining with early stopping).

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "data/synthetic_digits.hpp"
#include "hdc/instrument.hpp"
#include "hdc/serialize.hpp"
#include "hdc/trainer.hpp"

namespace hdtest::hdc {
namespace {

const data::TrainTestPair& digits() {
  static const data::TrainTestPair pair = data::make_digit_train_test(25, 8, 606);
  return pair;
}

HdcClassifier trained_model(std::uint64_t seed = 11,
                            Similarity sim = Similarity::kCosine) {
  ModelConfig config;
  config.dim = 1024;
  config.seed = seed;
  config.similarity = sim;
  HdcClassifier model(config, 28, 28, 10);
  model.fit(digits().train);
  return model;
}

TEST(Serialize, SaveRequiresTrainedModel) {
  ModelConfig config;
  config.dim = 256;
  const HdcClassifier untrained(config, 28, 28, 10);
  std::ostringstream out;
  EXPECT_THROW(save_model(untrained, out), std::logic_error);
}

TEST(Serialize, RoundTripPreservesEveryPrediction) {
  const auto model = trained_model();
  std::stringstream buffer;
  save_model(model, buffer);
  const auto loaded = load_model(buffer);

  EXPECT_EQ(loaded.config().dim, model.config().dim);
  EXPECT_EQ(loaded.config().seed, model.config().seed);
  EXPECT_EQ(loaded.num_classes(), model.num_classes());
  for (const auto& image : digits().test.images) {
    EXPECT_EQ(loaded.predict(image), model.predict(image));
  }
}

TEST(Serialize, RoundTripPreservesExactSimilarities) {
  const auto model = trained_model();
  std::stringstream buffer;
  save_model(model, buffer);
  const auto loaded = load_model(buffer);
  const auto& probe = digits().test.images[0];
  EXPECT_EQ(loaded.similarities(probe), model.similarities(probe));
}

TEST(Serialize, RoundTripPreservesNonDefaultConfig) {
  const auto model = trained_model(99, Similarity::kHamming);
  std::stringstream buffer;
  save_model(model, buffer);
  const auto loaded = load_model(buffer);
  EXPECT_EQ(loaded.config().similarity, Similarity::kHamming);
  EXPECT_EQ(loaded.config().seed, 99u);
  EXPECT_EQ(loaded.predict(digits().test.images[1]),
            model.predict(digits().test.images[1]));
}

TEST(Serialize, LoadedModelSupportsFurtherRetraining) {
  auto model = trained_model();
  std::stringstream buffer;
  save_model(model, buffer);
  auto loaded = load_model(buffer);
  // Accumulators (not just class HVs) round-trip, so retraining continues
  // from the same state in both models.
  const auto extra = data::make_digit_dataset(3, 313);
  const auto missed_original = model.retrain(extra);
  const auto missed_loaded = loaded.retrain(extra);
  EXPECT_EQ(missed_original, missed_loaded);
  for (const auto& image : digits().test.images) {
    EXPECT_EQ(loaded.predict(image), model.predict(image));
  }
}

TEST(Serialize, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "hdtest_model.bin").string();
  const auto model = trained_model();
  save_model(model, path);
  const auto loaded = load_model(path);
  EXPECT_EQ(loaded.predict(digits().test.images[0]),
            model.predict(digits().test.images[0]));
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsBadMagicVersionAndCorruption) {
  const auto model = trained_model();
  std::stringstream buffer;
  save_model(model, buffer);
  const std::string bytes = buffer.str();

  {
    std::istringstream bad_magic("XXXX" + bytes.substr(4));
    EXPECT_THROW((void)load_model(bad_magic), std::runtime_error);
  }
  {
    std::string flipped_version = bytes;
    flipped_version[4] = static_cast<char>(0x7f);
    std::istringstream in(flipped_version);
    EXPECT_THROW((void)load_model(in), std::runtime_error);
  }
  {
    // Flip one payload byte: checksum must catch it.
    std::string corrupted = bytes;
    corrupted[bytes.size() / 2] =
        static_cast<char>(corrupted[bytes.size() / 2] ^ 0x01);
    std::istringstream in(corrupted);
    EXPECT_THROW((void)load_model(in), std::runtime_error);
  }
  {
    std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW((void)load_model(truncated), std::runtime_error);
  }
  {
    std::istringstream empty("");
    EXPECT_THROW((void)load_model(empty), std::runtime_error);
  }
}

TEST(Serialize, StreamLoadRestoresPackedSnapshotVerbatim) {
  const auto model = trained_model();
  std::stringstream buffer;
  save_model(model, buffer);
  std::uint32_t version = 0;
  std::memcpy(&version, buffer.str().data() + 4, sizeof version);
  ASSERT_EQ(version, kModelFormatVersion);

  instrument::reset();
  const auto loaded = load_model(buffer);
  // The stream loader restores the stored packed AM rows verbatim: zero
  // class-HV rebuilds during load (the encoder's packed codebook mirrors
  // still regenerate from the seed; only the AM rebuild is on trial).
  EXPECT_EQ(instrument::packed_am_rebuilds(), 0u);

  // The snapshot is bit-identical to the saved model's.
  ASSERT_EQ(loaded.num_classes(), model.num_classes());
  for (std::size_t c = 0; c < model.num_classes(); ++c) {
    const auto original = model.am().packed().class_words(c);
    const auto restored = loaded.am().packed().class_words(c);
    ASSERT_EQ(std::vector<std::uint64_t>(original.begin(), original.end()),
              std::vector<std::uint64_t>(restored.begin(), restored.end()));
  }
  for (const auto& image : digits().test.images) {
    EXPECT_EQ(loaded.predict(image), model.predict(image));
  }
}

TEST(Serialize, RejectsEveryVersionButTheCurrent) {
  // The retired v1/v2 stream layouts, a zero, and a future version are all
  // refused on the first eight bytes by every loader, even when the payload
  // behind the header is a perfectly valid current-format body.
  const auto model = trained_model();
  std::stringstream buffer;
  save_model(model, buffer);
  const std::string current = buffer.str();
  const auto path =
      (std::filesystem::temp_directory_path() / "hdtest_model_version.hdtm")
          .string();
  for (const std::uint32_t version : {1u, 2u, 0u, kModelFormatVersion + 1}) {
    std::string bytes = current;
    std::memcpy(bytes.data() + 4, &version, sizeof version);
    const std::string expected =
        "unsupported format version " + std::to_string(version);
    const auto expect_named = [&](const auto& load) {
      try {
        load();
        ADD_FAILURE() << "version " << version << " loaded";
      } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
            << error.what();
      }
    };
    expect_named([&] {
      std::istringstream in(bytes);
      (void)load_model(in);
    });
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    expect_named([&] { (void)load_model(path); });
    expect_named([&] { (void)MappedModel(path); });
  }
  std::filesystem::remove(path);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW((void)load_model("/nonexistent_zzz/model.bin"),
               std::runtime_error);
}

TEST(AccumulatorFromLanes, RoundTripsAndValidates) {
  const auto acc = Accumulator::from_lanes({1, -5, 0, 42});
  EXPECT_EQ(acc.dim(), 4u);
  EXPECT_EQ(acc.lane(1), -5);
  EXPECT_THROW((void)Accumulator::from_lanes({}), std::invalid_argument);
}

TEST(Trainer, ConfigValidation) {
  TrainerConfig config;
  config.target_accuracy = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = TrainerConfig{};
  config.patience = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_NO_THROW(TrainerConfig{}.validate());
}

TEST(Trainer, RequiresUntrainedModel) {
  auto model = trained_model();
  EXPECT_THROW(train_with_retraining(model, digits().train, digits().test),
               std::logic_error);
}

TEST(Trainer, RecordsHistoryAndNeverLosesBest) {
  ModelConfig config;
  config.dim = 1024;
  config.seed = 5;
  HdcClassifier model(config, 28, 28, 10);
  TrainerConfig trainer;
  trainer.max_epochs = 4;
  const auto history =
      train_with_retraining(model, digits().train, digits().test, trainer);

  ASSERT_GE(history.val_accuracy.size(), 1u);
  EXPECT_EQ(history.val_accuracy.size(), history.train_accuracy.size());
  EXPECT_LE(history.val_accuracy.size(), trainer.max_epochs + 1);
  // best_val_accuracy is the max of the trace at best_epoch.
  double best = 0.0;
  for (const auto a : history.val_accuracy) best = std::max(best, a);
  EXPECT_DOUBLE_EQ(history.best_val_accuracy, best);
  EXPECT_LT(history.best_epoch, history.val_accuracy.size());
  EXPECT_DOUBLE_EQ(history.val_accuracy[history.best_epoch], best);
}

TEST(Trainer, RetrainingImprovesTrainAccuracy) {
  ModelConfig config;
  config.dim = 1024;
  config.seed = 5;
  HdcClassifier model(config, 28, 28, 10);
  TrainerConfig trainer;
  trainer.max_epochs = 5;
  const auto history =
      train_with_retraining(model, digits().train, digits().test, trainer);
  // Perceptron-style epochs should not make the train fit worse overall.
  EXPECT_GE(history.train_accuracy.back() + 0.02, history.train_accuracy.front());
}

TEST(Trainer, TargetAccuracyStopsEarly) {
  ModelConfig config;
  config.dim = 1024;
  config.seed = 5;
  HdcClassifier model(config, 28, 28, 10);
  TrainerConfig trainer;
  trainer.max_epochs = 50;
  trainer.target_accuracy = 0.01;  // met by the one-shot fit
  const auto history =
      train_with_retraining(model, digits().train, digits().test, trainer);
  EXPECT_EQ(history.val_accuracy.size(), 1u);  // no retraining epochs ran
}

}  // namespace
}  // namespace hdtest::hdc
