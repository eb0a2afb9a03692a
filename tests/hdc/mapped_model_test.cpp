// Tests for hdc::MappedModel (serialize format v3 served from a read-only
// mmap) and the view-vs-owning storage semantics it relies on: zero-copy
// construction, bit-exact agreement with the stream loaders, and the
// instrument counters proving no rebuild/regeneration work on the mapped
// path.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "hdc/instrument.hpp"
#include "hdc/serialize.hpp"

namespace hdtest::hdc {
namespace {

const data::TrainTestPair& digits() {
  static const data::TrainTestPair pair = data::make_digit_train_test(25, 8, 909);
  return pair;
}

HdcClassifier trained_model(std::uint64_t seed = 17,
                            Similarity sim = Similarity::kCosine) {
  ModelConfig config;
  config.dim = 1024;
  config.seed = seed;
  config.similarity = sim;
  // This suite asserts the stored-mirror zero-copy contract (views over the
  // mapping, zero regenerations); the remat layout has its own coverage in
  // serialize_remat_test / codebook_remat_test.
  config.codebook = CodebookMode::kStored;
  HdcClassifier model(config, 28, 28, 10);
  model.fit(digits().train);
  return model;
}

/// A v3 model file on disk, removed on scope exit.
class ModelFile {
 public:
  explicit ModelFile(const HdcClassifier& model, const char* tag) {
    path_ = (std::filesystem::temp_directory_path() /
             (std::string("hdtest_mapped_") + tag + "_" +
              std::to_string(std::random_device{}()) + ".hdtm"))
                .string();
    save_model(model, path_);
  }
  ~ModelFile() { std::filesystem::remove(path_); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

TEST(MappedModel, PredictionsBitIdenticalToStreamLoad) {
  const auto model = trained_model();
  const ModelFile file(model, "bitexact");

  const auto streamed = load_model(file.path());
  const MappedModel mapped(file.path());

  EXPECT_EQ(mapped.config().dim, model.config().dim);
  EXPECT_EQ(mapped.config().seed, model.config().seed);
  EXPECT_EQ(mapped.width(), 28u);
  EXPECT_EQ(mapped.height(), 28u);
  EXPECT_EQ(mapped.num_classes(), model.num_classes());

  for (const auto& image : digits().test.images) {
    const auto expected = model.predict(image);
    EXPECT_EQ(mapped.predict(image), expected);
    EXPECT_EQ(streamed.predict(image), expected);
  }
  // Batched path, across worker counts, against the owning batched path.
  const auto expected = model.predict_batch(digits().test.images);
  EXPECT_EQ(mapped.predict_batch(digits().test.images, 1), expected);
  EXPECT_EQ(mapped.predict_batch(digits().test.images, 4), expected);
}

TEST(MappedModel, EncodeMatchesEncoderExactly) {
  const auto model = trained_model(23, Similarity::kHamming);
  const ModelFile file(model, "encode");
  const MappedModel mapped(file.path());
  for (const auto& image : digits().test.images) {
    EXPECT_EQ(mapped.encode_packed(image), model.encoder().encode_packed(image));
  }
  EXPECT_THROW((void)mapped.encode_packed(data::Image(5, 5, 0)),
               std::invalid_argument);
}

TEST(MappedModel, ZeroRebuildsZeroRegenerationsZeroDenseWork) {
  const auto model = trained_model();
  const ModelFile file(model, "counters");

  instrument::reset();
  const MappedModel mapped(file.path());
  // Construction: views over the mapping — nothing is rebuilt or
  // regenerated.
  EXPECT_EQ(instrument::packed_am_rebuilds(), 0u);
  EXPECT_EQ(instrument::packed_codebook_builds(), 0u);

  // Serving builds nothing either: bit-sliced encode + packed sweep only.
  const auto labels = mapped.predict_batch(digits().test.images, 2);
  EXPECT_EQ(labels.size(), digits().test.images.size());
  EXPECT_EQ(instrument::packed_am_rebuilds(), 0u);
  EXPECT_EQ(instrument::packed_codebook_builds(), 0u);

  // Contrast: the stream loader constructs a full HdcClassifier, which
  // regenerates the codebooks from the seed (but still restores the packed
  // AM snapshot verbatim).
  instrument::reset();
  const auto streamed = load_model(file.path());
  EXPECT_GT(instrument::packed_codebook_builds(), 0u);
  EXPECT_EQ(instrument::packed_am_rebuilds(), 0u);
  EXPECT_EQ(streamed.num_classes(), mapped.num_classes());
}

TEST(MappedModel, TwoMappingsOfOneFileAliasTheSameBytes) {
  const auto model = trained_model();
  const ModelFile file(model, "alias");

  const MappedModel first(file.path());
  const MappedModel second(file.path());

  // Both serve non-owning views (MAP_SHARED + PROT_READ: the kernel backs
  // every mapping of the file with the same page-cache pages, so N serving
  // processes hold one physical copy).
  EXPECT_FALSE(first.am().owning());
  EXPECT_FALSE(second.am().owning());
  EXPECT_FALSE(first.position_codebook().owning());
  EXPECT_FALSE(first.value_codebook().owning());

  // Distinct mappings, identical bytes.
  const auto words1 = first.am().words();
  const auto words2 = second.am().words();
  ASSERT_EQ(words1.size(), words2.size());
  EXPECT_NE(words1.data(), words2.data());
  EXPECT_EQ(std::vector<std::uint64_t>(words1.begin(), words1.end()),
            std::vector<std::uint64_t>(words2.begin(), words2.end()));

  // And both agree bit-exactly with the owning loader.
  const auto owning = load_model(file.path());
  EXPECT_TRUE(owning.am().packed().owning());
  for (const auto& image : digits().test.images) {
    const auto expected = owning.predict(image);
    EXPECT_EQ(first.predict(image), expected);
    EXPECT_EQ(second.predict(image), expected);
  }
}

TEST(MappedModel, VerifyChecksumOffStillServesIdentically) {
  const auto model = trained_model();
  const ModelFile file(model, "noverify");
  MapOptions options;
  options.verify_checksum = false;
  const MappedModel mapped(file.path(), options);
  EXPECT_EQ(mapped.predict_batch(digits().test.images),
            model.predict_batch(digits().test.images));
}

TEST(MappedModel, RejectsLegacyFormatsAndMissingFiles) {
  // A retired v1/v2 header is refused before anything past it is read, with
  // an error naming the version.
  for (const std::uint32_t version : {1u, 2u}) {
    const auto path =
        (std::filesystem::temp_directory_path() /
         ("hdtest_mapped_legacy_v" + std::to_string(version) + ".hdtm"))
            .string();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write("HDTM", 4);
      out.write(reinterpret_cast<const char*>(&version), sizeof version);
      out << std::string(256, '\x5a');
    }
    const std::string expected =
        "unsupported format version " + std::to_string(version);
    try {
      const MappedModel mapped(path);
      ADD_FAILURE() << "v" << version << " header mapped";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
          << error.what();
    }
    std::filesystem::remove(path);
  }
  EXPECT_THROW(MappedModel{"/nonexistent_zzz/model.hdtm"}, std::runtime_error);
}

TEST(MappedModel, HammingModelsRoundTripThroughTheMapToo) {
  const auto model = trained_model(77, Similarity::kHamming);
  const ModelFile file(model, "hamming");
  const MappedModel mapped(file.path());
  EXPECT_EQ(mapped.config().similarity, Similarity::kHamming);
  EXPECT_EQ(mapped.predict_batch(digits().test.images),
            model.predict_batch(digits().test.images));
}

TEST(ViewStorage, CopyOfViewBorrowsCopyOfOwningDeepCopies) {
  const auto model = trained_model();
  const ModelFile file(model, "views");
  const MappedModel mapped(file.path());

  // Copying a view shares the external words (same pointer — still backed
  // by the mapping, which outlives the copy inside this scope).
  const PackedAssocMemory view_copy = mapped.am();
  EXPECT_FALSE(view_copy.owning());
  EXPECT_EQ(view_copy.words().data(), mapped.am().words().data());

  // Copying an owning memory re-points into its own storage.
  const auto owning = load_model(file.path());
  const PackedAssocMemory owning_copy = owning.am().packed();
  EXPECT_TRUE(owning_copy.owning());
  EXPECT_NE(owning_copy.words().data(), owning.am().packed().words().data());
  const auto a = owning_copy.words();
  const auto b = owning.am().packed().words();
  EXPECT_EQ(std::vector<std::uint64_t>(a.begin(), a.end()),
            std::vector<std::uint64_t>(b.begin(), b.end()));

  // Item-memory mirrors follow the same contract.
  const PackedItemMemory codebook_copy = mapped.position_codebook();
  EXPECT_FALSE(codebook_copy.owning());
  EXPECT_EQ(codebook_copy.words().data(),
            mapped.position_codebook().words().data());
  const PackedItemMemory rebuilt(16, 256, 1);
  EXPECT_TRUE(rebuilt.owning());
  const PackedItemMemory rebuilt_copy = rebuilt;
  EXPECT_NE(rebuilt_copy.words().data(), rebuilt.words().data());

  // A query answered through the copied view matches the original.
  const auto& probe = digits().test.images[0];
  EXPECT_EQ(view_copy.predict(mapped.encode_packed(probe)),
            mapped.predict(probe));
}

TEST(ViewStorage, ViewFactoriesValidateShapeAndPadding) {
  // 65 bits -> 2 words per row with a 1-bit tail.
  std::vector<std::uint64_t> words(2 * 2, 0);
  EXPECT_NO_THROW((void)PackedAssocMemory::view(65, 2, Similarity::kCosine,
                                                words));
  EXPECT_NO_THROW((void)PackedItemMemory::view(65, 2, words));
  EXPECT_THROW((void)PackedAssocMemory::view(65, 3, Similarity::kCosine, words),
               std::invalid_argument);
  EXPECT_THROW((void)PackedItemMemory::view(65, 3, words),
               std::invalid_argument);
  EXPECT_THROW((void)PackedItemMemory::view(0, 2, words),
               std::invalid_argument);
  words[1] = 0x2;  // padding bit past dim in row 0's last word
  EXPECT_THROW((void)PackedAssocMemory::view(65, 2, Similarity::kCosine, words),
               std::invalid_argument);
  EXPECT_THROW((void)PackedItemMemory::view(65, 2, words),
               std::invalid_argument);
}

}  // namespace
}  // namespace hdtest::hdc
