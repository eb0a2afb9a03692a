#include "data/idx.hpp"

#include <array>
#include <fstream>
#include <stdexcept>

#include "util/checked.hpp"

namespace hdtest::data {

namespace {

constexpr std::uint32_t kImageMagic = 0x00000803;
constexpr std::uint32_t kLabelMagic = 0x00000801;

std::uint32_t read_be32(std::istream& in, const std::string& path) {
  std::array<unsigned char, 4> bytes{};
  in.read(reinterpret_cast<char*>(bytes.data()), 4);
  if (!in) throw std::runtime_error("idx: truncated header in " + path);
  return (static_cast<std::uint32_t>(bytes[0]) << 24) |
         (static_cast<std::uint32_t>(bytes[1]) << 16) |
         (static_cast<std::uint32_t>(bytes[2]) << 8) |
         static_cast<std::uint32_t>(bytes[3]);
}

/// Throws unless \p in holds at least \p payload more bytes. Runs before any
/// allocation sized from the header, so a hostile count cannot reserve
/// memory the file does not back.
void require_payload(std::istream& in, std::size_t payload, const char* what,
                     const std::string& path) {
  const auto here = in.tellg();
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(here);
  if (!in || here < 0 || end < here) {
    throw std::runtime_error("idx: cannot size " + path);
  }
  if (payload > static_cast<std::size_t>(end - here)) {
    throw std::runtime_error(std::string("idx: truncated ") + what +
                             " data in " + path);
  }
}

void write_be32(std::ostream& out, std::uint32_t value) {
  const std::array<char, 4> bytes = {
      static_cast<char>((value >> 24) & 0xff),
      static_cast<char>((value >> 16) & 0xff),
      static_cast<char>((value >> 8) & 0xff),
      static_cast<char>(value & 0xff),
  };
  out.write(bytes.data(), 4);
}

}  // namespace

std::vector<Image> read_idx_images(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("idx: cannot open " + path);
  const auto magic = read_be32(in, path);
  if (magic != kImageMagic) {
    throw std::runtime_error("idx: bad image magic in " + path);
  }
  const auto count = read_be32(in, path);
  const auto rows = read_be32(in, path);
  const auto cols = read_be32(in, path);
  if (count == 0) return {};
  if (rows == 0 || cols == 0) {
    throw std::runtime_error("idx: zero image dimensions in " + path);
  }
  const auto image_bytes = util::checked_mul(rows, cols, "idx: image");
  require_payload(in, util::checked_mul(count, image_bytes, "idx: image data"),
                  "image", path);
  std::vector<Image> images;
  images.reserve(count);
  std::vector<std::uint8_t> buffer(image_bytes);
  for (std::uint32_t i = 0; i < count; ++i) {
    in.read(reinterpret_cast<char*>(buffer.data()),
            static_cast<std::streamsize>(buffer.size()));
    if (!in) throw std::runtime_error("idx: truncated image data in " + path);
    images.emplace_back(cols, rows, buffer);
  }
  return images;
}

std::vector<std::uint8_t> read_idx_labels(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("idx: cannot open " + path);
  const auto magic = read_be32(in, path);
  if (magic != kLabelMagic) {
    throw std::runtime_error("idx: bad label magic in " + path);
  }
  const auto count = read_be32(in, path);
  require_payload(in, count, "label", path);
  std::vector<std::uint8_t> labels(count);
  in.read(reinterpret_cast<char*>(labels.data()),
          static_cast<std::streamsize>(labels.size()));
  if (!in) throw std::runtime_error("idx: truncated label data in " + path);
  return labels;
}

void write_idx_images(const std::vector<Image>& images,
                      const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("idx: cannot open " + path + " for write");
  const std::size_t rows = images.empty() ? 0 : images.front().height();
  const std::size_t cols = images.empty() ? 0 : images.front().width();
  for (const auto& image : images) {
    if (image.height() != rows || image.width() != cols) {
      throw std::invalid_argument("idx: images must share dimensions");
    }
  }
  write_be32(out, kImageMagic);
  write_be32(out, static_cast<std::uint32_t>(images.size()));
  write_be32(out, static_cast<std::uint32_t>(rows));
  write_be32(out, static_cast<std::uint32_t>(cols));
  for (const auto& image : images) {
    out.write(reinterpret_cast<const char*>(image.pixels().data()),
              static_cast<std::streamsize>(image.size()));
  }
  if (!out) throw std::runtime_error("idx: write failed for " + path);
  // The destructor would swallow a close-time flush failure (ENOSPC/EIO).
  out.close();
  if (out.fail()) throw std::runtime_error("idx: close failed for " + path);
}

void write_idx_labels(const std::vector<std::uint8_t>& labels,
                      const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("idx: cannot open " + path + " for write");
  write_be32(out, kLabelMagic);
  write_be32(out, static_cast<std::uint32_t>(labels.size()));
  out.write(reinterpret_cast<const char*>(labels.data()),
            static_cast<std::streamsize>(labels.size()));
  if (!out) throw std::runtime_error("idx: write failed for " + path);
  out.close();
  if (out.fail()) throw std::runtime_error("idx: close failed for " + path);
}

Dataset load_idx_dataset(const std::string& images_path,
                         const std::string& labels_path, int num_classes) {
  auto images = read_idx_images(images_path);
  auto labels = read_idx_labels(labels_path);
  if (images.size() != labels.size()) {
    throw std::runtime_error("idx: image/label count mismatch");
  }
  Dataset ds;
  ds.num_classes = num_classes;
  ds.images = std::move(images);
  ds.labels.reserve(labels.size());
  for (const auto label : labels) {
    ds.labels.push_back(static_cast<int>(label));
  }
  ds.validate();
  return ds;
}

Dataset load_mnist_dataset(const std::string& dir, bool train) {
  const std::string prefix = dir + (train ? "/train" : "/t10k");
  return load_idx_dataset(prefix + "-images-idx3-ubyte",
                          prefix + "-labels-idx1-ubyte", 10);
}

}  // namespace hdtest::data
