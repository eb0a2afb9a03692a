// On-the-fly codebook rematerialization property suite: a remat-mode model
// (no stored codebook mirrors; rows regenerate from the seed per encode)
// must be bit-identical to the stored-mirror model in everything it
// computes — predictions, packed encodes, fuzz campaign records — across
// every kernel backend (the scalar oracle included), and both serving modes
// (owning encoder and mmap-served file), and both must agree with the dense
// reference (dense_oracle.hpp). Also pins the rematerialization
// counter semantics: stored-mode paths never rematerialize a row, remat
// paths never touch mirror storage.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend_guard.hpp"
#include "data/synthetic_digits.hpp"
#include "dense_oracle.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutation.hpp"
#include "hdc/instrument.hpp"
#include "hdc/serialize.hpp"
#include "util/simd/kernels.hpp"

namespace hdtest::hdc {
namespace {

ModelConfig config_for(std::size_t dim, CodebookMode mode,
                       ValueStrategy strategy = ValueStrategy::kRandom) {
  ModelConfig config;
  config.dim = dim;
  config.seed = 4242;
  config.codebook = mode;
  config.value_strategy = strategy;
  return config;
}

const data::TrainTestPair& digits() {
  static const data::TrainTestPair pair =
      data::make_digit_train_test(12, 6, 777);
  return pair;
}

HdcClassifier trained(const ModelConfig& config) {
  HdcClassifier model(config, 28, 28, 10);
  model.fit(digits().train);
  return model;
}

/// A v3 model file on disk, removed on scope exit.
class ModelFile {
 public:
  explicit ModelFile(const HdcClassifier& model, const char* tag) {
    path_ = (std::filesystem::temp_directory_path() /
             (std::string("hdtest_remat_") + tag + "_" +
              std::to_string(std::random_device{}()) + ".hdtm"))
                .string();
    save_model(model, path_);
  }
  ~ModelFile() { std::filesystem::remove(path_); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

// The tentpole acceptance sweep: dims covering word-tail boundaries and
// production scale, every available kernel backend (the oracle included),
// stored vs remat, owning vs mapped — one bit-identical prediction vector per
// cell.
TEST(CodebookRemat, PredictionsBitIdenticalAcrossEveryCell) {
  for (const std::size_t dim : {63u, 64u, 65u, 4096u, 16384u}) {
    const auto stored = trained(config_for(dim, CodebookMode::kStored));
    const auto remat = trained(config_for(dim, CodebookMode::kRemat));
    const auto expected = stored.predict_batch(digits().test.images);
    if (dim <= 4096) {  // the reference's plain loops stay cheap up to here
      const oracle::Classifier reference(stored);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i], reference.predict(digits().test.images[i]))
            << "reference dim=" << dim << " image " << i;
      }
    }
    const ModelFile stored_file(stored, "cellstored");
    const ModelFile remat_file(remat, "cellremat");
    for (const auto* backend : util::simd::available_kernels()) {
      BackendGuard guard(backend->name);
      EXPECT_EQ(remat.predict_batch(digits().test.images), expected)
          << "owning dim=" << dim << " backend=" << backend->name;
      EXPECT_EQ(stored.predict_batch(digits().test.images), expected)
          << "stored dim=" << dim << " backend=" << backend->name;
      const MappedModel mapped_stored(stored_file.path());
      const MappedModel mapped_remat(remat_file.path());
      EXPECT_EQ(mapped_stored.predict_batch(digits().test.images), expected)
          << "mapped-stored dim=" << dim << " backend=" << backend->name;
      EXPECT_EQ(mapped_remat.predict_batch(digits().test.images), expected)
          << "mapped-remat dim=" << dim << " backend=" << backend->name;
    }
  }
}

TEST(CodebookRemat, PackedEncodesAgreeForCorrelatedValueStrategies) {
  // Level/thermometer value codebooks stay stored even in remat mode (the
  // rows are correlated, not per-row regenerable); the mixed encoder must
  // still match the fully stored one bit for bit.
  for (const auto strategy :
       {ValueStrategy::kLevel, ValueStrategy::kThermometer}) {
    auto stored_config = config_for(512, CodebookMode::kStored, strategy);
    stored_config.value_levels = 16;
    auto remat_config = stored_config;
    remat_config.codebook = CodebookMode::kRemat;
    const PixelEncoder enc_stored(stored_config, 28, 28);
    const PixelEncoder enc_remat(remat_config, 28, 28);
    EXPECT_FALSE(enc_remat.packed_value_memory().rematerializing());
    EXPECT_TRUE(enc_remat.packed_position_memory().rematerializing());
    const oracle::Encoder reference(stored_config, 28, 28);
    for (const auto& image : digits().test.images) {
      EXPECT_EQ(enc_remat.encode_packed(image),
                enc_stored.encode_packed(image));
      EXPECT_EQ(enc_stored.encode_packed(image),
                oracle::pack(reference.encode(image)));
    }
  }
}

TEST(CodebookRemat, CampaignRecordsBitIdenticalAcrossStorageAndBackends) {
  // run_campaign records must not depend on codebook storage mode or the
  // kernel backend — the full differential-fuzzing observable surface.
  const auto stored = trained(config_for(2048, CodebookMode::kStored));
  const auto remat = trained(config_for(2048, CodebookMode::kRemat));
  const fuzz::GaussNoiseMutation strategy;
  fuzz::FuzzConfig fuzz_config;
  fuzz_config.iter_times = 4;
  const fuzz::Fuzzer stored_fuzzer(stored, strategy, fuzz_config);
  const fuzz::Fuzzer remat_fuzzer(remat, strategy, fuzz_config);
  fuzz::CampaignConfig campaign;
  campaign.max_images = 4;
  campaign.workers = 2;

  const auto baseline =
      fuzz::run_campaign(stored_fuzzer, digits().test, campaign);
  for (const auto* backend : util::simd::available_kernels()) {
    BackendGuard guard(backend->name);
    const auto stored_result =
        fuzz::run_campaign(stored_fuzzer, digits().test, campaign);
    const auto remat_result =
        fuzz::run_campaign(remat_fuzzer, digits().test, campaign);
    EXPECT_TRUE(fuzz::identical_records(baseline, stored_result))
        << "stored backend=" << backend->name;
    EXPECT_TRUE(fuzz::identical_records(baseline, remat_result))
        << "remat backend=" << backend->name;
  }
}

TEST(CodebookRemat, StoredPathsNeverRematerializeARow) {
  const auto stored = trained(config_for(1024, CodebookMode::kStored));
  const ModelFile file(stored, "counter");
  instrument::reset();
  (void)stored.predict_batch(digits().test.images);
  const auto loaded = load_model(file.path());
  (void)loaded.predict_batch(digits().test.images);
  const MappedModel mapped(file.path());
  (void)mapped.predict_batch(digits().test.images);
  EXPECT_EQ(instrument::codebook_row_rematerializations(), 0u)
      << "a stored-mirror path regenerated a codebook row";
}

TEST(CodebookRemat, RematPathsRematerializeWithoutMirrorStorage) {
  const auto remat = trained(config_for(1024, CodebookMode::kRemat));
  EXPECT_TRUE(remat.encoder().packed_position_memory().rematerializing());
  EXPECT_TRUE(remat.encoder().packed_value_memory().rematerializing());
  EXPECT_FALSE(remat.encoder().packed_position_memory().owning());
  EXPECT_THROW((void)remat.encoder().packed_position_memory().at(0),
               std::logic_error);
  instrument::reset();
  (void)remat.predict(digits().test.images[0]);
  // One row per pixel position and one per pixel value lookup: 28*28 of
  // each for a full encode.
  EXPECT_EQ(instrument::codebook_row_rematerializations(), 2u * 28u * 28u);
}

}  // namespace
}  // namespace hdtest::hdc
