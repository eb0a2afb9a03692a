#include "hdc/accumulator.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "util/bitops.hpp"
#include "util/simd/kernels.hpp"

namespace hdtest::hdc {

namespace {

/// Byte x spread over eight bytes: byte b of kSpreadBits[x] is bit b of x.
constexpr std::array<std::uint64_t, 256> kSpreadBits = [] {
  std::array<std::uint64_t, 256> table{};
  for (std::size_t x = 0; x < table.size(); ++x) {
    for (std::size_t b = 0; b < 8; ++b) {
      table[x] |= static_cast<std::uint64_t>((x >> b) & 1u) << (8 * b);
    }
  }
  return table;
}();

}  // namespace

Accumulator::Accumulator(std::size_t dim) : lanes_(dim, 0) {
  if (dim == 0) {
    throw std::invalid_argument("Accumulator: dimension must be non-zero");
  }
}

Accumulator Accumulator::from_lanes(std::vector<std::int32_t> lanes) {
  if (lanes.empty()) {
    throw std::invalid_argument("Accumulator::from_lanes: empty lane vector");
  }
  Accumulator acc(lanes.size());
  acc.lanes_ = std::move(lanes);
  return acc;
}

void Accumulator::add_packed(std::span<const std::uint64_t> v, int weight) {
  const std::size_t n = lanes_.size();
  if (v.size() != util::words_for_bits(n)) {
    throw std::invalid_argument("Accumulator::add_packed: word count mismatch");
  }
  for (std::size_t w = 0, base = 0; base < n; ++w, base += 64) {
    const std::uint64_t word = v[w];
    const std::size_t chunk = std::min<std::size_t>(64, n - base);
    for (std::size_t b = 0; b < chunk; ++b) {
      // bit = 1 encodes element -1: lane += weight * (1 - 2*bit).
      const auto bit = static_cast<std::int32_t>((word >> b) & 1ULL);
      lanes_[base + b] += weight - 2 * weight * bit;
    }
  }
}

void Accumulator::add_biased_slices(std::span<const std::uint64_t> slices,
                                    std::size_t levels, std::uint64_t bias) {
  const std::size_t n = lanes_.size();
  const std::size_t words = util::words_for_bits(n);
  if (levels > 31 || slices.size() != levels * words) {
    throw std::invalid_argument(
        "Accumulator::add_biased_slices: bank shape mismatch");
  }
  const auto offset = static_cast<std::int32_t>(bias);
  for (auto& lane : lanes_) lane -= offset;
  // Transpose eight lanes by eight levels at a time: byte k of level j's
  // word, spread to one 0/1 byte per lane and shifted to bit j, builds
  // eight levels of eight lanes' stored values in one word.
  for (std::size_t w = 0, base = 0; base < n; ++w, base += 64) {
    const std::size_t chunk = std::min<std::size_t>(64, n - base);
    for (std::size_t group = 0; group < levels; group += 8) {
      const std::size_t group_end = std::min<std::size_t>(levels, group + 8);
      for (std::size_t lane0 = 0; lane0 < chunk; lane0 += 8) {
        std::uint64_t bytes = 0;
        for (std::size_t j = group; j < group_end; ++j) {
          bytes |= kSpreadBits[(slices[j * words + w] >> lane0) & 0xffu]
                   << (j - group);
        }
        const std::size_t here = std::min<std::size_t>(8, chunk - lane0);
        for (std::size_t b = 0; b < here; ++b) {
          lanes_[base + lane0 + b] +=
              static_cast<std::int32_t>(((bytes >> (8 * b)) & 0xffu) << group);
        }
      }
    }
  }
}

void Accumulator::clear() noexcept {
  for (auto& lane : lanes_) lane = 0;
}

PackedHv Accumulator::bipolarize_packed(const PackedHv& tie_break) const {
  if (tie_break.dim() != dim()) {
    throw std::invalid_argument(
        "Accumulator::bipolarize_packed: dimension mismatch");
  }
  // Eq. 1 sign extraction straight into packed words — bit = 1 (element -1)
  // when the lane is negative, or zero with a negative tie-break element —
  // run on the active kernel backend (branch-free SWAR, AVX2 movemask, or
  // AVX-512 compare masks; all bit-identical to the scalar oracle).
  const std::size_t n = lanes_.size();
  std::vector<std::uint64_t> words(util::words_for_bits(n), 0);
  util::simd::kernels().bipolarize_packed(lanes_.data(), n,
                                          tie_break.words().data(),
                                          words.data());
  return PackedHv::from_words(n, std::move(words));
}

}  // namespace hdtest::hdc
