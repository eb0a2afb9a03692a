// Tests for data/idx: the MNIST container format.

#include "data/idx.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

namespace hdtest::data {
namespace {

class IdxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: gtest_discover_tests runs cases as separate
    // processes, so a shared directory races under `ctest -j` (one case's
    // TearDown deletes another's files mid-test).
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("hdtest_idx_") + info->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

std::vector<Image> make_images(std::size_t n) {
  std::vector<Image> images;
  for (std::size_t i = 0; i < n; ++i) {
    Image img(28, 28, 0);
    img(i % 28, (i * 3) % 28) = static_cast<std::uint8_t>(i + 1);
    images.push_back(std::move(img));
  }
  return images;
}

TEST_F(IdxTest, ImageRoundTrip) {
  const auto images = make_images(5);
  write_idx_images(images, path("imgs"));
  const auto loaded = read_idx_images(path("imgs"));
  ASSERT_EQ(loaded.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(loaded[i], images[i]);
}

TEST_F(IdxTest, LabelRoundTrip) {
  const std::vector<std::uint8_t> labels{0, 1, 9, 5, 3};
  write_idx_labels(labels, path("labels"));
  EXPECT_EQ(read_idx_labels(path("labels")), labels);
}

TEST_F(IdxTest, EmptyImageFileRoundTrips) {
  write_idx_images({}, path("empty"));
  EXPECT_TRUE(read_idx_images(path("empty")).empty());
}

TEST_F(IdxTest, WriterRejectsMixedShapes) {
  std::vector<Image> images;
  images.emplace_back(28, 28, 0);
  images.emplace_back(14, 14, 0);
  EXPECT_THROW(write_idx_images(images, path("bad")), std::invalid_argument);
}

TEST_F(IdxTest, ReaderRejectsWrongMagic) {
  // A label file read as an image file must fail (and vice versa).
  write_idx_labels({1, 2, 3}, path("labels"));
  EXPECT_THROW(read_idx_images(path("labels")), std::runtime_error);
  write_idx_images(make_images(1), path("imgs"));
  EXPECT_THROW(read_idx_labels(path("imgs")), std::runtime_error);
}

TEST_F(IdxTest, ReaderRejectsTruncatedFile) {
  write_idx_images(make_images(3), path("imgs"));
  // Truncate to half size.
  const auto full = std::filesystem::file_size(path("imgs"));
  std::filesystem::resize_file(path("imgs"), full / 2);
  EXPECT_THROW(read_idx_images(path("imgs")), std::runtime_error);
}

/// Writes a bare idx3 image header (no pixel data) with the given fields.
void write_image_header(const std::string& file, std::uint32_t count,
                        std::uint32_t rows, std::uint32_t cols) {
  std::ofstream out(file, std::ios::binary);
  for (const std::uint32_t field : {0x00000803u, count, rows, cols}) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      out.put(static_cast<char>((field >> shift) & 0xffu));
    }
  }
}

TEST_F(IdxTest, HeaderOnlyFileWithHugeCountIsTruncatedNotAllocated) {
  // The header promises ~3 TB of pixels; the reader must reject it from the
  // file size instead of reserving memory for it (std::bad_alloc).
  write_image_header(path("imgs"), 0xFFFFFFFFu, 28, 28);
  EXPECT_THROW(read_idx_images(path("imgs")), std::runtime_error);
}

TEST_F(IdxTest, OverflowingImagePayloadThrows) {
  write_image_header(path("imgs"), 0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu);
  EXPECT_THROW(read_idx_images(path("imgs")), std::runtime_error);
}

TEST_F(IdxTest, MissingFileThrows) {
  EXPECT_THROW(read_idx_images(path("nope")), std::runtime_error);
  EXPECT_THROW(read_idx_labels(path("nope")), std::runtime_error);
}

TEST_F(IdxTest, LoadDatasetPairsImagesWithLabels) {
  write_idx_images(make_images(4), path("imgs"));
  write_idx_labels({0, 1, 2, 3}, path("labels"));
  const auto ds = load_idx_dataset(path("imgs"), path("labels"), 10);
  EXPECT_EQ(ds.size(), 4u);
  EXPECT_EQ(ds.num_classes, 10);
  EXPECT_EQ(ds.labels, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_NO_THROW(ds.validate());
}

TEST_F(IdxTest, LoadDatasetRejectsCountMismatch) {
  write_idx_images(make_images(4), path("imgs"));
  write_idx_labels({0, 1}, path("labels"));
  EXPECT_THROW(load_idx_dataset(path("imgs"), path("labels"), 10),
               std::runtime_error);
}

TEST_F(IdxTest, LoadDatasetRejectsOutOfRangeLabel) {
  write_idx_images(make_images(2), path("imgs"));
  write_idx_labels({0, 10}, path("labels"));  // 10 >= num_classes
  EXPECT_THROW(load_idx_dataset(path("imgs"), path("labels"), 10),
               std::invalid_argument);
}

TEST_F(IdxTest, MnistLoaderUsesCanonicalNames) {
  write_idx_images(make_images(2), path("train-images-idx3-ubyte"));
  write_idx_labels({1, 2}, path("train-labels-idx1-ubyte"));
  const auto train = load_mnist_dataset(dir_.string(), /*train=*/true);
  EXPECT_EQ(train.size(), 2u);
  // t10k pair absent -> error.
  EXPECT_THROW(load_mnist_dataset(dir_.string(), /*train=*/false),
               std::runtime_error);
}

}  // namespace
}  // namespace hdtest::data
