#include "hdc/hypervector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "device/device.hpp"
#include "hdc/packed_hv.hpp"

namespace hdtest::hdc {

namespace {

void check_same_dim(std::size_t a, std::size_t b, const char* who) {
  if (a != b) {
    throw std::invalid_argument(std::string(who) + ": dimension mismatch");
  }
}

}  // namespace

Hypervector::Hypervector(std::size_t dim) : elems_(dim, 1) {
  if (dim == 0) {
    throw std::invalid_argument("Hypervector: dimension must be non-zero");
  }
  instrument::note_dense_hv();
}

Hypervector Hypervector::random(std::size_t dim, util::Rng& rng) {
  std::vector<std::int8_t> raw(dim);
  // Consume 64 random bits at a time; one bit per element.
  std::size_t i = 0;
  while (i < dim) {
    std::uint64_t bits = rng.next_u64();
    const std::size_t chunk = std::min<std::size_t>(64, dim - i);
    for (std::size_t b = 0; b < chunk; ++b, ++i) {
      raw[i] = (bits & 1u) ? static_cast<std::int8_t>(1)
                           : static_cast<std::int8_t>(-1);
      bits >>= 1;
    }
  }
  return Hypervector(std::move(raw), Unchecked{});
}

Hypervector Hypervector::from_raw(std::vector<std::int8_t> raw) {
  for (const auto value : raw) {
    if (value != 1 && value != -1) {
      throw std::invalid_argument("Hypervector::from_raw: value not in {-1, +1}");
    }
  }
  return Hypervector(std::move(raw), Unchecked{});
}

void Hypervector::set(std::size_t i, std::int8_t value) {
  if (i >= elems_.size()) {
    throw std::out_of_range("Hypervector::set: index out of range");
  }
  if (value != 1 && value != -1) {
    throw std::invalid_argument("Hypervector::set: value must be -1 or +1");
  }
  elems_[i] = value;
}

void Hypervector::flip(std::size_t i) {
  if (i >= elems_.size()) {
    throw std::out_of_range("Hypervector::flip: index out of range");
  }
  elems_[i] = static_cast<std::int8_t>(-elems_[i]);
}

Hypervector bind(const Hypervector& a, const Hypervector& b) {
  check_same_dim(a.dim(), b.dim(), "bind");
  Hypervector out = a;
  // {-1,+1} is closed under multiplication, so the invariant holds.
  for (std::size_t i = 0; i < out.elems_.size(); ++i) {
    out.elems_[i] = static_cast<std::int8_t>(out.elems_[i] * b.elems_[i]);
  }
  return out;
}

std::int64_t dot(const Hypervector& a, const Hypervector& b) {
  check_same_dim(a.dim(), b.dim(), "dot");
  const auto pa = a.elements();
  const auto pb = b.elements();
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    sum += static_cast<std::int64_t>(pa[i]) * pb[i];
  }
  return sum;
}

double cosine(const Hypervector& a, const Hypervector& b) {
  check_same_dim(a.dim(), b.dim(), "cosine");
  if (a.dim() == 0) {
    throw std::invalid_argument("cosine: zero-dimensional operands");
  }
  // Bipolar vectors have Euclidean norm sqrt(D), so cosine = dot / D.
  return static_cast<double>(dot(a, b)) / static_cast<double>(a.dim());
}

std::size_t hamming(const Hypervector& a, const Hypervector& b) {
  check_same_dim(a.dim(), b.dim(), "hamming");
  std::size_t count = 0;
  const auto pa = a.elements();
  const auto pb = b.elements();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    count += pa[i] != pb[i];
  }
  return count;
}

double hamming_similarity(const Hypervector& a, const Hypervector& b) {
  if (a.dim() == 0) {
    throw std::invalid_argument("hamming_similarity: zero-dimensional operands");
  }
  return 1.0 - static_cast<double>(hamming(a, b)) / static_cast<double>(a.dim());
}

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

void Accumulator::add(const Hypervector& v, int weight) {
  check_same_dim(dim(), v.dim(), "Accumulator::add");
  const auto pv = v.elements();
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i] += weight * pv[i];
  }
}

void Accumulator::add_bound(const Hypervector& a, const Hypervector& b) {
  check_same_dim(dim(), a.dim(), "Accumulator::add_bound");
  check_same_dim(a.dim(), b.dim(), "Accumulator::add_bound");
  const auto pa = a.elements();
  const auto pb = b.elements();
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i] += pa[i] * pb[i];
  }
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

void Accumulator::add_bitsliced(const util::BitSliceAccumulator& bits) {
  check_same_dim(dim(), bits.bits(), "Accumulator::add_bitsliced");
  bits.drain_into(lanes_);
}

void Accumulator::clear() noexcept {
  for (auto& lane : lanes_) lane = 0;
}

Hypervector Accumulator::bipolarize(const Hypervector& tie_break) const {
  check_same_dim(dim(), tie_break.dim(), "Accumulator::bipolarize");
  std::vector<std::int8_t> raw(dim());
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i] < 0) {
      raw[i] = -1;
    } else if (lanes_[i] > 0) {
      raw[i] = 1;
    } else {
      raw[i] = tie_break[i];  // Eq. 1 RandomSelect, made deterministic
    }
  }
  return Hypervector::from_raw(std::move(raw));
}

PackedHv Accumulator::bipolarize_packed(const PackedHv& tie_break) const {
  check_same_dim(dim(), tie_break.dim(), "Accumulator::bipolarize_packed");
  // Eq. 1 sign extraction straight into packed words — bit = 1 (element -1)
  // when the lane is negative, or zero with a negative tie-break element —
  // submitted to the active compute device (branch-free SWAR, AVX2
  // movemask, or AVX-512 compare masks underneath the cpu device; all
  // bit-identical, including the scalar oracle device).
  const std::size_t n = lanes_.size();
  std::vector<std::uint64_t> words(util::words_for_bits(n), 0);
  active_device().bipolarize_block(lanes_.data(), n, tie_break.words().data(),
                                   words.data());
  return PackedHv::from_words(n, std::move(words));
}

}  // namespace hdtest::hdc
