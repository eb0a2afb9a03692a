#include "hdc/packed_hv.hpp"

#include <stdexcept>
#include <string>

namespace hdtest::hdc {

namespace {

void check_same_dim(std::size_t a, std::size_t b, const char* who) {
  if (a != b) {
    throw std::invalid_argument(std::string(who) + ": dimension mismatch");
  }
}

}  // namespace

PackedHv::PackedHv(std::size_t dim)
    : dim_(dim), words_(util::words_for_bits(dim), 0) {
  if (dim == 0) {
    throw std::invalid_argument("PackedHv: dimension must be non-zero");
  }
}

PackedHv PackedHv::random(std::size_t dim, util::Rng& rng) {
  PackedHv v(dim);
  fill_random(dim, rng, v.words_);
  return v;
}

PackedHv PackedHv::from_words(std::size_t dim,
                              std::vector<std::uint64_t> words) {
  if (dim == 0) {
    throw std::invalid_argument("PackedHv::from_words: dimension must be non-zero");
  }
  if (words.size() != util::words_for_bits(dim)) {
    throw std::invalid_argument("PackedHv::from_words: word count mismatch");
  }
  if ((words.back() & ~util::tail_mask(dim)) != 0) {
    throw std::invalid_argument("PackedHv::from_words: tail bits must be zero");
  }
  PackedHv v;
  v.dim_ = dim;
  v.words_ = std::move(words);
  return v;
}

std::int8_t PackedHv::get(std::size_t i) const {
  if (i >= dim_) throw std::out_of_range("PackedHv::get: index out of range");
  return util::get_bit(words_, i) ? static_cast<std::int8_t>(-1)
                                  : static_cast<std::int8_t>(1);
}

void PackedHv::set(std::size_t i, std::int8_t value) {
  if (i >= dim_) throw std::out_of_range("PackedHv::set: index out of range");
  if (value != 1 && value != -1) {
    throw std::invalid_argument("PackedHv::set: value must be -1 or +1");
  }
  util::set_bit(words_, i, value < 0);
}

void PackedHv::bind_with(const PackedHv& other) {
  check_same_dim(dim_, other.dim_, "PackedHv::bind_with");
  // (-1)^x * (-1)^y = (-1)^(x xor y): bind is XOR in sign-bit space.
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] ^= other.words_[i];
  }
}

PackedHv bind(const PackedHv& a, const PackedHv& b) {
  PackedHv out = a;
  out.bind_with(b);
  return out;
}

std::int64_t dot(const PackedHv& a, const PackedHv& b) {
  check_same_dim(a.dim(), b.dim(), "dot(PackedHv)");
  const auto differing =
      static_cast<std::int64_t>(util::xor_popcount(a.words(), b.words()));
  return static_cast<std::int64_t>(a.dim()) - 2 * differing;
}

double cosine(const PackedHv& a, const PackedHv& b) {
  check_same_dim(a.dim(), b.dim(), "cosine(PackedHv)");
  if (a.dim() == 0) {
    throw std::invalid_argument("cosine(PackedHv): zero-dimensional operands");
  }
  return static_cast<double>(dot(a, b)) / static_cast<double>(a.dim());
}

std::size_t hamming(const PackedHv& a, const PackedHv& b) {
  check_same_dim(a.dim(), b.dim(), "hamming(PackedHv)");
  return util::xor_popcount(a.words(), b.words());
}

}  // namespace hdtest::hdc
