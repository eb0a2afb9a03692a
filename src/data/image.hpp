#pragma once
/// \file image.hpp
/// 8-bit grayscale image value type plus the perturbation metrics used by the
/// HDTest fuzzer (normalized L1/L2 distance between original and mutant).
///
/// The paper evaluates on 28x28 MNIST digits; Image supports arbitrary W x H
/// so the same fuzzing framework applies to other image workloads.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace hdtest::data {

/// Pixel intensities span the 8-bit grayscale range [0, 255].
inline constexpr int kMaxPixel = 255;

/// An owning W x H grayscale image with 8-bit pixels in row-major order.
class Image {
 public:
  /// Creates an empty (0x0) image.
  Image() = default;

  /// Creates a width x height image filled with \p fill.
  /// \throws std::invalid_argument when either dimension is zero.
  Image(std::size_t width, std::size_t height, std::uint8_t fill = 0);

  /// Wraps existing pixel data (row-major, size must equal width*height).
  Image(std::size_t width, std::size_t height, std::vector<std::uint8_t> pixels);

  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t height() const noexcept { return height_; }
  [[nodiscard]] std::size_t size() const noexcept { return pixels_.size(); }
  [[nodiscard]] bool empty() const noexcept { return pixels_.empty(); }

  /// Unchecked element access by (row, col).
  [[nodiscard]] std::uint8_t operator()(std::size_t row, std::size_t col) const noexcept {
    return pixels_[row * width_ + col];
  }
  [[nodiscard]] std::uint8_t& operator()(std::size_t row, std::size_t col) noexcept {
    return pixels_[row * width_ + col];
  }

  /// Bounds-checked element access; throws std::out_of_range.
  [[nodiscard]] std::uint8_t at(std::size_t row, std::size_t col) const;
  void set(std::size_t row, std::size_t col, std::uint8_t value);

  /// Flat pixel view, row-major — this is the "array of 784 elements" the
  /// paper's encoding step consumes.
  [[nodiscard]] std::span<const std::uint8_t> pixels() const noexcept {
    return pixels_;
  }
  [[nodiscard]] std::span<std::uint8_t> pixels() noexcept { return pixels_; }

  /// Adds \p delta to pixel (row, col), clamping to [0, 255].
  void add_clamped(std::size_t row, std::size_t col, int delta) noexcept;

  /// Mean pixel intensity in [0, 255].
  [[nodiscard]] double mean_intensity() const noexcept;

  /// Number of pixels differing from \p other. \pre same dimensions.
  [[nodiscard]] std::size_t count_diff(const Image& other) const;

  bool operator==(const Image& other) const = default;

 private:
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  std::vector<std::uint8_t> pixels_;
};

/// Calls visit(begin, end) on every 8-pixel word of \p a and \p b whose
/// bytes are not all equal, then on the trailing partial word, in index
/// order. Every differing pixel lies in a visited range (equal pixels may
/// too), so sparse diffs cost one 8-byte compare per clean word.
/// \pre a.size() == b.size().
template <typename Visit>
void for_each_unequal_word(std::span<const std::uint8_t> a,
                           std::span<const std::uint8_t> b, Visit&& visit) {
  constexpr std::size_t kWord = sizeof(std::uint64_t);
  const std::size_t count = a.size();
  std::size_t begin = 0;
  for (; begin + kWord <= count; begin += kWord) {
    if (std::memcmp(a.data() + begin, b.data() + begin, kWord) != 0) {
      visit(begin, begin + kWord);
    }
  }
  if (begin < count) visit(begin, count);
}

/// Normalized L1 distance: sum_i |a_i - b_i| / 255.
///
/// This matches the scale of the paper's Table II (e.g. gauss: L1 = 2.91 over
/// a 784-pixel image). \throws std::invalid_argument on dimension mismatch.
[[nodiscard]] double l1_distance(const Image& a, const Image& b);

/// Normalized L2 distance: sqrt(sum_i ((a_i - b_i)/255)^2).
///
/// The paper's perturbation budget ("e.g. L2 < 1") is expressed in this
/// metric. \throws std::invalid_argument on dimension mismatch.
[[nodiscard]] double l2_distance(const Image& a, const Image& b);

/// Linf distance normalized to [0,1]: max_i |a_i - b_i| / 255.
[[nodiscard]] double linf_distance(const Image& a, const Image& b);

/// A boolean mask of pixels that differ between two same-sized images —
/// the "(b) mutated pixels" panel of the paper's Figs. 4-5.
[[nodiscard]] Image diff_mask(const Image& a, const Image& b);

/// Serializes to binary PGM (P5). \throws std::runtime_error on I/O failure.
void write_pgm(const Image& image, const std::string& path);

/// Loads a binary PGM (P5) with maxval 255.
/// \throws std::runtime_error on parse/I/O failure.
[[nodiscard]] Image read_pgm(const std::string& path);

/// Renders the image as ASCII art (one char per pixel, ramp " .:-=+*#%@"),
/// used to dump Fig. 4-6-style samples into logs without image viewers.
[[nodiscard]] std::string ascii_art(const Image& image);

}  // namespace hdtest::data
