#include "hdc/item_memory.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "hdc/instrument.hpp"
#include "util/bitops.hpp"
#include "util/checksum.hpp"

namespace hdtest::hdc {

PackedItemMemory::PackedItemMemory(std::size_t count, std::size_t dim,
                                   std::uint64_t seed, ValueStrategy strategy)
    : dim_(dim), count_(count), stride_(util::words_for_bits(dim)) {
  if (count == 0) {
    throw std::invalid_argument("PackedItemMemory: count must be non-zero");
  }
  if (dim == 0) {
    throw std::invalid_argument("PackedItemMemory: dim must be non-zero");
  }
  storage_.assign(count * stride_, 0);
  data_ = storage_.data();
  const auto row = [this](std::size_t i) {
    return std::span(storage_).subspan(i * stride_, stride_);
  };
  switch (strategy) {
    case ValueStrategy::kRandom:
      for (std::size_t i = 0; i < count; ++i) {
        util::Rng rng(util::derive_seed(seed, i));
        PackedHv::fill_random(dim, rng, row(i));
      }
      break;
    case ValueStrategy::kLevel: {
      // Level encoding: start from a random HV; between consecutive levels
      // flip a fixed-size batch of fresh positions so that level 0 and level
      // count-1 differ in ~dim/2 positions (near-orthogonal endpoints) and
      // similarity decays linearly with level distance.
      util::Rng rng(util::derive_seed(seed, 0));
      PackedHv::fill_random(dim, rng, row(0));
      if (count > 1) {
        // Random permutation of positions; each step flips the next batch.
        const auto order = rng.sample_indices(dim, dim);
        const std::size_t total_flips = dim / 2;
        std::size_t flipped = 0;
        for (std::size_t level = 1; level < count; ++level) {
          const auto current = row(level);
          std::copy_n(row(level - 1).begin(), stride_, current.begin());
          const std::size_t target = total_flips * level / (count - 1);
          for (; flipped < target; ++flipped) {
            current[order[flipped] / 64] ^= 1ULL << (order[flipped] % 64);
          }
        }
      }
      break;
    }
    case ValueStrategy::kThermometer: {
      // Thermometer code over a fixed random permutation: level i is +1 on
      // the first floor(dim * i / (count-1)) permuted positions and -1
      // (bit set) elsewhere.
      util::Rng rng(util::derive_seed(seed, 0));
      const auto order = rng.sample_indices(dim, dim);
      for (std::size_t level = 0; level < count; ++level) {
        const auto words = row(level);
        std::fill(words.begin(), words.end(), ~0ULL);
        words.back() &= util::tail_mask(dim);
        const std::size_t ones = count > 1 ? dim * level / (count - 1) : dim;
        for (std::size_t i = 0; i < ones; ++i) {
          util::set_bit(words, order[i], false);
        }
      }
      break;
    }
  }
  instrument::note_packed_codebook_build();
}

PackedItemMemory::PackedItemMemory(const PackedItemMemory& other)
    : dim_(other.dim_),
      count_(other.count_),
      stride_(other.stride_),
      seed_(other.seed_),
      remat_(other.remat_),
      storage_(other.storage_) {
  // An owning copy re-points into its own storage; a view copy keeps
  // borrowing the external words.
  data_ = other.owning() ? storage_.data() : other.data_;
}

PackedItemMemory& PackedItemMemory::operator=(const PackedItemMemory& other) {
  if (this != &other) *this = PackedItemMemory(other);
  return *this;
}

PackedItemMemory::PackedItemMemory(PackedItemMemory&& other) noexcept
    : dim_(std::exchange(other.dim_, 0)),
      count_(std::exchange(other.count_, 0)),
      stride_(std::exchange(other.stride_, 0)),
      seed_(std::exchange(other.seed_, 0)),
      remat_(std::exchange(other.remat_, false)),
      data_(std::exchange(other.data_, nullptr)),
      storage_(std::move(other.storage_)) {
  other.storage_.clear();
}

PackedItemMemory& PackedItemMemory::operator=(
    PackedItemMemory&& other) noexcept {
  if (this != &other) {
    dim_ = std::exchange(other.dim_, 0);
    count_ = std::exchange(other.count_, 0);
    stride_ = std::exchange(other.stride_, 0);
    seed_ = std::exchange(other.seed_, 0);
    remat_ = std::exchange(other.remat_, false);
    data_ = std::exchange(other.data_, nullptr);
    storage_ = std::move(other.storage_);
    other.storage_.clear();
  }
  return *this;
}

PackedItemMemory PackedItemMemory::view(std::size_t dim, std::size_t count,
                                        std::span<const std::uint64_t> words) {
  if (dim == 0) {
    throw std::invalid_argument("PackedItemMemory::view: dim must be non-zero");
  }
  if (count == 0) {
    throw std::invalid_argument(
        "PackedItemMemory::view: count must be non-zero");
  }
  const std::size_t stride = util::words_for_bits(dim);
  if (count > words.size() / stride || words.size() != count * stride) {
    throw std::invalid_argument(
        "PackedItemMemory::view: word count does not match dim * count");
  }
  const std::uint64_t tail = util::tail_mask(dim);
  for (std::size_t i = 0; i < count; ++i) {
    if ((words[i * stride + stride - 1] & ~tail) != 0) {
      throw std::invalid_argument(
          "PackedItemMemory::view: non-zero padding bits past dim");
    }
  }
  PackedItemMemory memory;
  memory.dim_ = dim;
  memory.count_ = count;
  memory.stride_ = stride;
  memory.data_ = words.data();
  return memory;
}

PackedItemMemory PackedItemMemory::remat(std::size_t dim, std::size_t count,
                                         std::uint64_t seed) {
  if (dim == 0) {
    throw std::invalid_argument(
        "PackedItemMemory::remat: dim must be non-zero");
  }
  if (count == 0) {
    throw std::invalid_argument(
        "PackedItemMemory::remat: count must be non-zero");
  }
  PackedItemMemory memory;
  memory.dim_ = dim;
  memory.count_ = count;
  memory.stride_ = util::words_for_bits(dim);
  memory.seed_ = seed;
  memory.remat_ = true;
  return memory;
}

std::span<const std::uint64_t> PackedItemMemory::at(std::size_t index) const {
  if (remat_) {
    throw std::logic_error(
        "PackedItemMemory::at: rematerializing memory stores no words; use "
        "row() with caller scratch");
  }
  if (index >= count_) {
    throw std::out_of_range("PackedItemMemory::at: index out of range");
  }
  return (*this)[index];
}

HDTEST_HOT_PATH void PackedItemMemory::materialize_row(
    std::size_t index, std::span<std::uint64_t> out) const noexcept {
  // The stored kRandom builder's row: the same generator on the same
  // per-row stream.
  util::Rng rng(util::derive_seed(seed_, index));
  PackedHv::fill_random(dim_, rng, out.first(stride_));
  instrument::note_codebook_row_rematerialization();
}

std::uint64_t PackedItemMemory::content_digest() const {
  // Little-endian per-word byte fold so the digest equals util::fnv1a over
  // the stored mirror's on-disk bytes (the v3 codebook section image).
  std::uint64_t digest = util::kFnv1aOffsetBasis;
  const auto fold_word = [&digest](std::uint64_t word) {
    for (int shift = 0; shift < 64; shift += 8) {
      digest = util::fnv1a_byte(digest,
                                static_cast<std::uint8_t>(word >> shift));
    }
  };
  if (!remat_) {
    for (const std::uint64_t word : words()) fold_word(word);
    return digest;
  }
  std::vector<std::uint64_t> scratch(stride_);
  for (std::size_t i = 0; i < count_; ++i) {
    materialize_row(i, scratch);
    for (const std::uint64_t word : scratch) fold_word(word);
  }
  return digest;
}

}  // namespace hdtest::hdc
