// Serializer coverage for the v3 remat layout (header flag bit 0): round
// trips, the on-disk size win, storage-mode fidelity on load, and the
// rejection matrix — doctored flags, misplaced sections, digest mismatches,
// and seeds that cannot regenerate the saved codebooks must all throw
// std::runtime_error, never load silently wrong bits.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "hdc/serialize.hpp"

namespace hdtest::hdc {
namespace {

// --- on-disk layout helpers (serialize.hpp's documented contract) ---------

std::uint64_t fnv1a(const char* data, std::size_t size) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<std::uint8_t>(data[i]);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

template <typename T>
T read_at(const std::string& bytes, std::size_t offset) {
  T value{};
  std::memcpy(&value, bytes.data() + offset, sizeof value);
  return value;
}

template <typename T>
void write_at(std::string& bytes, std::size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof value);
}

constexpr std::size_t kSectionCountOff = 24;
constexpr std::size_t kFlagsOff = 28;
constexpr std::size_t kTableChecksumOff = 40;
constexpr std::size_t kFileChecksumOff = 48;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kEntryBytes = 32;
constexpr std::uint32_t kRematFlag = 1;

struct SectionEntry {
  std::uint32_t kind = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
};

std::vector<SectionEntry> read_table(const std::string& file) {
  const auto count = read_at<std::uint32_t>(file, kSectionCountOff);
  std::vector<SectionEntry> entries(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t base = kHeaderBytes + i * kEntryBytes;
    entries[i].kind = read_at<std::uint32_t>(file, base);
    entries[i].offset = read_at<std::uint64_t>(file, base + 8);
    entries[i].bytes = read_at<std::uint64_t>(file, base + 16);
  }
  return entries;
}

bool has_section(const std::string& file, std::uint32_t kind) {
  for (const auto& entry : read_table(file)) {
    if (entry.kind == kind) return true;
  }
  return false;
}

/// Recomputes every checksum of a doctored v3 image so only the doctored
/// fields are on trial.
void refresh_checksums(std::string& file) {
  const auto count = read_at<std::uint32_t>(file, kSectionCountOff);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t base = kHeaderBytes + i * kEntryBytes;
    const auto offset = read_at<std::uint64_t>(file, base + 8);
    const auto bytes = read_at<std::uint64_t>(file, base + 16);
    if (offset <= file.size() && bytes <= file.size() - offset) {
      write_at(file, base + 24,
               fnv1a(file.data() + offset, static_cast<std::size_t>(bytes)));
    }
  }
  write_at(file, kTableChecksumOff,
           fnv1a(file.data() + kHeaderBytes, count * kEntryBytes));
  write_at(file, kFileChecksumOff,
           fnv1a(file.data() + kHeaderBytes, file.size() - kHeaderBytes));
}

const data::TrainTestPair& digits() {
  static const data::TrainTestPair pair =
      data::make_digit_train_test(10, 4, 505);
  return pair;
}

HdcClassifier trained(CodebookMode mode, std::size_t dim = 1024,
                      ValueStrategy strategy = ValueStrategy::kRandom) {
  ModelConfig config;
  config.dim = dim;
  config.seed = 91;
  config.codebook = mode;
  config.value_strategy = strategy;
  if (strategy != ValueStrategy::kRandom) config.value_levels = 16;
  HdcClassifier model(config, 28, 28, 10);
  model.fit(digits().train);
  return model;
}

std::string serialized(const HdcClassifier& model) {
  std::ostringstream out;
  save_model(model, out);
  return out.str();
}

HdcClassifier load_bytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return load_model(in);
}

void expect_stream_load_throws(const std::string& bytes) {
  std::istringstream in(bytes);
  EXPECT_THROW((void)load_model(in), std::runtime_error);
}

/// Writes bytes to a temp file, runs \p probe, removes the file.
template <typename Probe>
void with_temp_file(const std::string& bytes, const char* tag, Probe&& probe) {
  const auto path = (std::filesystem::temp_directory_path() /
                     (std::string("hdtest_rematfile_") + tag + "_" +
                      std::to_string(std::random_device{}()) + ".hdtm"))
                        .string();
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  probe(path);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------

TEST(SerializeRemat, RoundTripPreservesPredictionsAndStorageMode) {
  const auto model = trained(CodebookMode::kRemat);
  const auto bytes = serialized(model);
  EXPECT_EQ(read_at<std::uint32_t>(bytes, kFlagsOff), kRematFlag);
  const auto loaded = load_bytes(bytes);
  EXPECT_EQ(loaded.config().codebook, CodebookMode::kRemat);
  EXPECT_TRUE(loaded.encoder().packed_position_memory().rematerializing());
  EXPECT_EQ(loaded.predict_batch(digits().test.images),
            model.predict_batch(digits().test.images));
  // And the remat round trip re-serializes byte-identically.
  EXPECT_EQ(serialized(loaded), bytes);
}

TEST(SerializeRemat, RematFileDropsMirrorSectionsAndShrinks) {
  const auto stored_bytes = serialized(trained(CodebookMode::kStored));
  const auto remat_bytes = serialized(trained(CodebookMode::kRemat));
  // Stored: six sections including both codebook mirrors, flags clear.
  EXPECT_EQ(read_at<std::uint32_t>(stored_bytes, kFlagsOff), 0u);
  EXPECT_TRUE(has_section(stored_bytes, 4));
  EXPECT_TRUE(has_section(stored_bytes, 5));
  EXPECT_FALSE(has_section(stored_bytes, 7));
  // Remat + random values: both mirrors gone, digest section present.
  EXPECT_FALSE(has_section(remat_bytes, 4));
  EXPECT_FALSE(has_section(remat_bytes, 5));
  EXPECT_TRUE(has_section(remat_bytes, 7));
  // The position mirror dominates the file (28*28 rows), so the remat
  // variant is dramatically smaller — the paper-scale win the bench
  // quantifies at D=16384.
  EXPECT_LT(remat_bytes.size(), stored_bytes.size() / 2);
}

TEST(SerializeRemat, CorrelatedValueStrategyKeepsItsValueMirror) {
  const auto model =
      trained(CodebookMode::kRemat, 1024, ValueStrategy::kLevel);
  const auto bytes = serialized(model);
  EXPECT_EQ(read_at<std::uint32_t>(bytes, kFlagsOff), kRematFlag);
  EXPECT_FALSE(has_section(bytes, 4));
  EXPECT_TRUE(has_section(bytes, 5));  // level rows are not regenerable
  EXPECT_TRUE(has_section(bytes, 7));
  const auto loaded = load_bytes(bytes);
  EXPECT_EQ(loaded.config().codebook, CodebookMode::kRemat);
  EXPECT_EQ(loaded.predict_batch(digits().test.images),
            model.predict_batch(digits().test.images));
  with_temp_file(bytes, "level", [&](const std::string& path) {
    const MappedModel mapped(path);
    EXPECT_TRUE(mapped.position_codebook().rematerializing());
    EXPECT_FALSE(mapped.value_codebook().rematerializing());
    EXPECT_EQ(mapped.predict_batch(digits().test.images),
              model.predict_batch(digits().test.images));
  });
}

TEST(SerializeRemat, MappedServingMatchesOwningAndStoredFile) {
  const auto stored = trained(CodebookMode::kStored);
  const auto remat = trained(CodebookMode::kRemat);
  const auto expected = stored.predict_batch(digits().test.images);
  with_temp_file(serialized(remat), "map", [&](const std::string& path) {
    const MappedModel mapped(path);
    EXPECT_TRUE(mapped.position_codebook().rematerializing());
    EXPECT_TRUE(mapped.value_codebook().rematerializing());
    EXPECT_EQ(mapped.predict_batch(digits().test.images), expected);
    // Structural-only map (checksum + digest sweep off) serves identically.
    MapOptions options;
    options.verify_checksum = false;
    const MappedModel unverified(path, options);
    EXPECT_EQ(unverified.predict_batch(digits().test.images), expected);
  });
}

TEST(SerializeRemat, StoredFileLoadsStoredEvenUnderRematDefault) {
  // The file's storage mode wins over the loading process's env default:
  // a stored file always yields a stored model (and vice versa), keeping
  // load → save byte-stable in any environment.
  const auto bytes = serialized(trained(CodebookMode::kStored));
  const auto loaded = load_bytes(bytes);
  EXPECT_EQ(loaded.config().codebook, CodebookMode::kStored);
  EXPECT_FALSE(loaded.encoder().packed_position_memory().rematerializing());
  EXPECT_EQ(serialized(loaded), bytes);
}

TEST(SerializeRemat, RejectsUnknownFlagBits) {
  auto bytes = serialized(trained(CodebookMode::kRemat));
  write_at(bytes, kFlagsOff, std::uint32_t{kRematFlag | 2u});
  refresh_checksums(bytes);
  expect_stream_load_throws(bytes);
  with_temp_file(bytes, "badflag", [](const std::string& path) {
    EXPECT_THROW(MappedModel{path}, std::runtime_error);
  });
}

TEST(SerializeRemat, RejectsRematFlagOnAFileCarryingMirrors) {
  // A stored six-section file with the remat bit forced on is inconsistent
  // (mirror sections present, digest section missing) — reject, don't pick
  // a side.
  auto bytes = serialized(trained(CodebookMode::kStored));
  write_at(bytes, kFlagsOff, kRematFlag);
  refresh_checksums(bytes);
  expect_stream_load_throws(bytes);
  with_temp_file(bytes, "flagstored", [](const std::string& path) {
    EXPECT_THROW(MappedModel{path}, std::runtime_error);
  });
}

TEST(SerializeRemat, RejectsDigestSectionWithoutTheFlag) {
  // Clearing the flag on a remat file makes kind 7 an unknown section (and
  // the mirrors missing) — pre-remat semantics, cleanly rejected.
  auto bytes = serialized(trained(CodebookMode::kRemat));
  write_at(bytes, kFlagsOff, std::uint32_t{0});
  refresh_checksums(bytes);
  expect_stream_load_throws(bytes);
  with_temp_file(bytes, "flagcleared", [](const std::string& path) {
    EXPECT_THROW(MappedModel{path}, std::runtime_error);
  });
}

TEST(SerializeRemat, RejectsSeedThatCannotRegenerateTheCodebooks) {
  // Doctoring the stored seed (config field offset 8) re-checksums cleanly,
  // so only the digest verification stands between a wrong-seed file and
  // silently different codebooks.
  auto bytes = serialized(trained(CodebookMode::kRemat));
  const auto table = read_table(bytes);
  ASSERT_EQ(table[0].kind, 1u);
  write_at(bytes, static_cast<std::size_t>(table[0].offset) + 8,
           std::uint64_t{92});
  refresh_checksums(bytes);
  expect_stream_load_throws(bytes);
  with_temp_file(bytes, "wrongseed", [](const std::string& path) {
    EXPECT_THROW(MappedModel{path}, std::runtime_error);
    // With verification off the map defers digest trust by contract — it
    // must still construct (the serving stack owns the tradeoff).
    MapOptions options;
    options.verify_checksum = false;
    EXPECT_NO_THROW(MappedModel(path, options));
  });
}

TEST(SerializeRemat, RejectsDoctoredDigestBytes) {
  auto bytes = serialized(trained(CodebookMode::kRemat));
  for (const auto& entry : read_table(bytes)) {
    if (entry.kind != 7) continue;
    bytes[static_cast<std::size_t>(entry.offset)] ^= 0x01;
  }
  refresh_checksums(bytes);
  expect_stream_load_throws(bytes);
  with_temp_file(bytes, "baddigest", [](const std::string& path) {
    EXPECT_THROW(MappedModel{path}, std::runtime_error);
  });
}

TEST(SerializeRemat, RejectsMissingValueMirrorForCorrelatedStrategy) {
  // A remat+random file carries no value section; doctoring its strategy
  // field to kLevel claims a correlated codebook that nothing can
  // regenerate — the loader must refuse.
  auto bytes = serialized(trained(CodebookMode::kRemat));
  const auto table = read_table(bytes);
  ASSERT_EQ(table[0].kind, 1u);
  const auto config_offset = static_cast<std::size_t>(table[0].offset);
  write_at(bytes, config_offset + 16, std::uint64_t{16});  // value_levels
  write_at(bytes, config_offset + 24, std::uint32_t{1});   // kLevel
  refresh_checksums(bytes);
  expect_stream_load_throws(bytes);
  with_temp_file(bytes, "novalue", [](const std::string& path) {
    EXPECT_THROW(MappedModel{path}, std::runtime_error);
  });
}

TEST(SerializeRemat, EveryFlippedHeaderOrTableByteIsRejected) {
  const auto clean = serialized(trained(CodebookMode::kRemat, 256));
  const auto sections = read_table(clean).size();
  for (std::size_t i = 0; i < kHeaderBytes + sections * kEntryBytes; ++i) {
    std::string corrupt = clean;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x20);
    expect_stream_load_throws(corrupt);
  }
  // And a truncation sweep across section boundaries.
  for (const auto& entry : read_table(clean)) {
    const auto offset = static_cast<std::size_t>(entry.offset);
    expect_stream_load_throws(clean.substr(0, offset));
    expect_stream_load_throws(clean.substr(0, offset + 1));
  }
  expect_stream_load_throws(clean.substr(0, clean.size() - 1));
}

// --- pinned bytes ----------------------------------------------------------

struct GoldenCell {
  CodebookMode mode;
  ValueStrategy strategy;
  std::uint64_t file_fnv1a;  ///< recorded from the dense-built codebooks
};

class SerializeGolden : public ::testing::TestWithParam<GoldenCell> {};

// The whole v3 file of a small fixed model, pinned by its FNV-1a across
// commits: a codebook builder, the training sums, finalize's Eq. 1 or the
// writer that moves one bit of a saved model fails here.
TEST_P(SerializeGolden, V3BytesArePinned) {
  const GoldenCell cell = GetParam();
  const auto bytes = serialized(trained(cell.mode, 256, cell.strategy));
  EXPECT_EQ(fnv1a(bytes.data(), bytes.size()), cell.file_fnv1a)
      << "actual 0x" << std::hex << fnv1a(bytes.data(), bytes.size());
}

INSTANTIATE_TEST_SUITE_P(
    Cells, SerializeGolden,
    ::testing::Values(
        GoldenCell{CodebookMode::kStored, ValueStrategy::kRandom,
                   0x83616c83c5dade29ULL},
        GoldenCell{CodebookMode::kStored, ValueStrategy::kLevel,
                   0xbf581fa9edb10ddbULL},
        GoldenCell{CodebookMode::kStored, ValueStrategy::kThermometer,
                   0x46dc18bc54bd63aaULL},
        GoldenCell{CodebookMode::kRemat, ValueStrategy::kRandom,
                   0x06c034500f7fd249ULL},
        GoldenCell{CodebookMode::kRemat, ValueStrategy::kLevel,
                   0x6fcb661bbb138e99ULL},
        GoldenCell{CodebookMode::kRemat, ValueStrategy::kThermometer,
                   0x398a6254ec760981ULL}),
    [](const ::testing::TestParamInfo<GoldenCell>& cell) {
      return to_string(cell.param.mode) + "_" +
             to_string(cell.param.strategy);
    });

}  // namespace
}  // namespace hdtest::hdc
