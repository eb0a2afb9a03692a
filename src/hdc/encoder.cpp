#include "hdc/encoder.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>

#include "device/device.hpp"
#include "util/bitops.hpp"
#include "util/thread_pool.hpp"

namespace hdtest::hdc {

namespace {

// Distinct sub-seed tags so the three random structures never collide.
constexpr std::uint64_t kPositionTag = 0x01;
constexpr std::uint64_t kValueTag = 0x02;
constexpr std::uint64_t kTieBreakTag = 0x03;

/// True when \p config keeps no value-codebook mirror: rematerialization
/// needs rows that are pure functions of their per-row seed, which only the
/// i.i.d. random strategy provides (correlated strategies build rows
/// sequentially, so their dense construction stays, even in remat mode).
bool value_rows_remat(const ModelConfig& config) noexcept {
  return config.codebook == CodebookMode::kRemat &&
         config.value_strategy == ValueStrategy::kRandom;
}

}  // namespace

std::uint64_t position_codebook_seed(const ModelConfig& config) noexcept {
  return util::derive_seed(config.seed, kPositionTag);
}

std::uint64_t value_codebook_seed(const ModelConfig& config) noexcept {
  return util::derive_seed(config.seed, kValueTag);
}

std::uint64_t tie_break_seed(const ModelConfig& config) noexcept {
  return util::derive_seed(config.seed, kTieBreakTag);
}

PixelEncoder::PixelEncoder(const ModelConfig& config, std::size_t width,
                           std::size_t height)
    : config_((config.validate(), config)),  // validate before building memories
      width_(width),
      height_(height),
      position_memory_([&]() -> std::optional<ItemMemory> {
        if (config.codebook == CodebookMode::kRemat) return std::nullopt;
        return ItemMemory(width * height, config.dim,
                          position_codebook_seed(config),
                          ValueStrategy::kRandom);
      }()),
      value_memory_([&]() -> std::optional<ItemMemory> {
        if (value_rows_remat(config)) return std::nullopt;
        return ItemMemory(config.value_levels, config.dim,
                          value_codebook_seed(config), config.value_strategy);
      }()),
      tie_break_([&] {
        util::Rng rng(tie_break_seed(config));
        return Hypervector::random(config.dim, rng);
      }()),
      packed_positions_(position_memory_
                            ? PackedItemMemory(*position_memory_)
                            : PackedItemMemory::remat(
                                  config.dim, width * height,
                                  position_codebook_seed(config))),
      packed_values_(value_rows_remat(config)
                         ? PackedItemMemory::remat(config.dim,
                                                   config.value_levels,
                                                   value_codebook_seed(config))
                         : PackedItemMemory(*value_memory_)),
      tie_break_packed_(PackedHv::from_dense(tie_break_)) {
  if (width == 0 || height == 0) {
    throw std::invalid_argument("PixelEncoder: image dimensions must be non-zero");
  }
}

const ItemMemory& PixelEncoder::position_memory() const {
  if (!position_memory_) {
    throw std::logic_error(
        "PixelEncoder::position_memory: no dense codebook in remat mode; "
        "rows regenerate on demand (pixel_hv) or pin codebook = kStored");
  }
  return *position_memory_;
}

const ItemMemory& PixelEncoder::value_memory() const {
  if (!value_memory_) {
    throw std::logic_error(
        "PixelEncoder::value_memory: no dense codebook in remat mode; "
        "rows regenerate on demand (pixel_hv) or pin codebook = kStored");
  }
  return *value_memory_;
}

void PixelEncoder::check_shape(const data::Image& image) const {
  if (image.width() != width_ || image.height() != height_) {
    throw std::invalid_argument("PixelEncoder: image shape mismatch");
  }
}

std::size_t PixelEncoder::value_index(std::uint8_t value) const noexcept {
  return value_level_index(config_.value_levels, value);
}

HDTEST_HOT_PATH PackedHv encode_pixels_packed(const PackedItemMemory& positions,
                                              const PackedItemMemory& values,
                                              std::size_t value_levels,
                                              const PackedHv& tie_break,
                                              const data::Image& image) {
  const std::size_t dim = positions.dim();
  if (values.dim() != dim || tie_break.dim() != dim) {
    throw std::invalid_argument(
        "encode_pixels_packed: codebook/tie-break dimension mismatch");
  }
  if (values.count() != value_levels) {
    throw std::invalid_argument(
        "encode_pixels_packed: value codebook count does not match levels");
  }
  const auto pixels = image.pixels();
  if (pixels.size() != positions.count()) {
    throw std::invalid_argument(
        "encode_pixels_packed: pixel count does not match position codebook");
  }
  util::BitSliceAccumulator bits(dim);
  // Row scratch is only non-empty for rematerializing codebooks; stored and
  // view codebooks serve rows in place and never touch it.
  std::vector<std::uint64_t> pos_scratch(positions.row_scratch_words());
  std::vector<std::uint64_t> val_scratch(values.row_scratch_words());
  for (std::size_t p = 0; p < pixels.size(); ++p) {
    bits.add_xor(positions.row(p, pos_scratch),
                 values.row(value_level_index(value_levels, pixels[p]),
                            val_scratch));
  }
  Accumulator acc(dim);
  acc.add_bitsliced(bits);
  return acc.bipolarize_packed(tie_break);
}

Hypervector PixelEncoder::pixel_hv(std::size_t position,
                                   std::uint8_t value) const {
  const std::size_t value_idx = value_index(value);
  if (position_memory_ && value_memory_) {
    return bind(position_memory_->at(position), value_memory_->at(value_idx));
  }
  // Remat mode: regrow the dense rows from the same derived per-row streams
  // the stored codebooks are built from — bit-identical by construction.
  const auto remat_row = [this](const PackedItemMemory& packed,
                                std::size_t index) {
    if (index >= packed.count()) {
      throw std::out_of_range("PixelEncoder::pixel_hv: index out of range");
    }
    util::Rng rng(util::derive_seed(packed.seed(), index));
    return Hypervector::random(config_.dim, rng);
  };
  const Hypervector pos_hv = position_memory_
                                 ? position_memory_->at(position)
                                 : remat_row(packed_positions_, position);
  const Hypervector val_hv = value_memory_
                                 ? value_memory_->at(value_idx)
                                 : remat_row(packed_values_, value_idx);
  return bind(pos_hv, val_hv);
}

void PixelEncoder::encode_into(const data::Image& image,
                               Accumulator& acc) const {
  check_shape(image);
  if (acc.dim() != config_.dim) {
    throw std::invalid_argument("PixelEncoder::encode_into: accumulator dim mismatch");
  }
  // Bit-sliced bundling: each pixel HV is one XOR of packed codebook rows,
  // counted carry-save and drained into the int32 lanes once. Exact integer
  // arithmetic — same sums as per-element add_bound in any order. Rows come
  // through row(): in place for stored mirrors, regenerated into the local
  // scratch for rematerializing codebooks, identical bits either way.
  util::BitSliceAccumulator bits(config_.dim);
  const auto pixels = image.pixels();
  std::vector<std::uint64_t> pos_scratch(packed_positions_.row_scratch_words());
  std::vector<std::uint64_t> val_scratch(packed_values_.row_scratch_words());
  for (std::size_t p = 0; p < pixels.size(); ++p) {
    bits.add_xor(packed_positions_.row(p, pos_scratch),
                 packed_values_.row(value_index(pixels[p]), val_scratch));
  }
  acc.add_bitsliced(bits);
}

Hypervector PixelEncoder::encode(const data::Image& image) const {
  Accumulator acc(config_.dim);
  encode_into(image, acc);
  return acc.bipolarize(tie_break_);
}

HDTEST_HOT_PATH PackedHv PixelEncoder::encode_packed(
    const data::Image& image) const {
  check_shape(image);
  return encode_pixels_packed(packed_positions_, packed_values_,
                              config_.value_levels, tie_break_packed_, image);
}

std::vector<Hypervector> PixelEncoder::encode_batch(
    std::span<const data::Image> images, std::size_t workers) const {
  std::vector<Hypervector> out(images.size());
  // Each worker writes only its own slot; encoding is a deterministic
  // function of the image, so results are worker-count independent.
  util::parallel_for(images.size(), workers,
                     [&](std::size_t i) { out[i] = encode(images[i]); });
  return out;
}

std::vector<PackedHv> PixelEncoder::encode_batch_packed(
    std::span<const data::Image> images, std::size_t workers) const {
  std::vector<PackedHv> out(images.size());
  util::parallel_for(images.size(), workers,
                     [&](std::size_t i) { out[i] = encode_packed(images[i]); });
  return out;
}

IncrementalPixelEncoder::IncrementalPixelEncoder(const PixelEncoder& encoder)
    : encoder_(&encoder),
      base_acc_(encoder.dim()),
      pos_row_scratch_(encoder.packed_position_memory().row_scratch_words()),
      old_row_scratch_(encoder.packed_value_memory().row_scratch_words()),
      new_row_scratch_(encoder.packed_value_memory().row_scratch_words()) {}

namespace {

/// A process-unique id per rebase(), so a SliceBank is only ever patched
/// under the base it descends from.
std::uint64_t next_lineage() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

void IncrementalPixelEncoder::rebase(const data::Image& image) {
  base_acc_.clear();
  encoder_->encode_into(image, base_acc_);
  base_ = image;
  lineage_ = next_lineage();
  root_.engaged_ = false;
}

void IncrementalPixelEncoder::rebase(const data::Image& image, Accumulator acc) {
  if (image.width() != encoder_->width() || image.height() != encoder_->height()) {
    throw std::invalid_argument("IncrementalPixelEncoder::rebase: image shape mismatch");
  }
  if (acc.dim() != encoder_->dim()) {
    throw std::invalid_argument("IncrementalPixelEncoder::rebase: accumulator dim mismatch");
  }
  base_acc_ = std::move(acc);
  base_ = image;
  lineage_ = next_lineage();
  root_.engaged_ = false;
}

void IncrementalPixelEncoder::rebuild_base_slices() const {
  // Biased bit-sliced mirror of the base lanes for the packed delta path.
  //
  // Lane values live in [-P, P] (P = pixel count). With bias B =
  // bit_ceil(2P) every stored value is non-negative, and S = log2(B) + 1
  // slices hold values up to 2B - 1.
  //
  // Lineage rule. Each patch pair adds 2*old_bit + 2*(~new_bit) to a lane's
  // stored value: the true lane change plus 2. A bank that is pairs patch
  // pairs away from this root (summed over its whole lineage, not the
  // pixels that differ from the base) therefore stores lane + B + 2*pairs,
  // its Eq. 1 threshold is B + 2*pairs, and it cannot overflow while
  //   P + B + 2*pairs <= 2B - 1, i.e. pairs <= (B - P - 1) / 2
  // (631 at P = 784). encode_child_packed falls back to this root bank past
  // that headroom; a root patch is sparse (pairs <= P/8) and always fits.
  const std::size_t n = encoder_->dim();
  const std::size_t words = util::words_for_bits(n);
  const std::size_t pixels = base_.pixels().size();
  const std::uint64_t bias = std::bit_ceil(2 * static_cast<std::uint64_t>(pixels));
  bias_ = static_cast<std::int32_t>(bias);
  slice_count_ = static_cast<std::size_t>(std::bit_width(bias));
  max_lineage_pairs_ = static_cast<std::size_t>((bias - pixels - 1) / 2);
  root_.slices_.assign(slice_count_ * words, 0);
  const auto lanes = base_acc_.lanes();
  for (std::size_t w = 0, base_idx = 0; base_idx < n; ++w, base_idx += 64) {
    const std::size_t chunk = std::min<std::size_t>(64, n - base_idx);
    for (std::size_t b = 0; b < chunk; ++b) {
      const auto s = static_cast<std::uint32_t>(lanes[base_idx + b] + bias_);
      for (std::size_t j = 0; j < slice_count_; ++j) {
        root_.slices_[j * words + w] |=
            static_cast<std::uint64_t>((s >> j) & 1u) << b;
      }
    }
  }
  root_.pairs_ = 0;
  root_.lineage_ = lineage_;
  root_.engaged_ = true;
}

void IncrementalPixelEncoder::collect_patches(const data::Image& from,
                                              const data::Image& mutant) const {
  patches_.clear();
  const auto from_px = from.pixels();
  const auto mut_px = mutant.pixels();
  std::size_t deltas = 0;
  data::for_each_unequal_word(
      from_px, mut_px, [&](std::size_t begin, std::size_t end) {
        for (std::size_t p = begin; p < end; ++p) {
          if (from_px[p] == mut_px[p]) continue;
          const auto old_idx = encoder_->value_index(from_px[p]);
          const auto new_idx = encoder_->value_index(mut_px[p]);
          if (old_idx != new_idx) {
            patches_.push_back(Patch{static_cast<std::uint32_t>(p),
                                     static_cast<std::uint32_t>(old_idx),
                                     static_cast<std::uint32_t>(new_idx)});
          }
          ++deltas;
        }
      });
  last_delta_count_ = deltas;
}

HDTEST_HOT_PATH PackedHv IncrementalPixelEncoder::encode_mutant_packed(
    const data::Image& mutant) const {
  return encode_child_packed(mutant, base_, root_, scratch_bank_);
}

HDTEST_HOT_PATH PackedHv IncrementalPixelEncoder::encode_child_packed(
    const data::Image& mutant, const data::Image& parent,
    const SliceBank& parent_bank, SliceBank& child_bank) const {
  if (!has_base()) {
    throw std::logic_error("IncrementalPixelEncoder: encode before rebase()");
  }
  if (mutant.width() != base_.width() || mutant.height() != base_.height()) {
    throw std::invalid_argument("IncrementalPixelEncoder: shape mismatch with base");
  }

  // Lineage route: a bank with pairs 0 is the root's, so only a deeper
  // ancestor saves work over the root route below.
  if (parent_bank.engaged_ && parent_bank.lineage_ == lineage_ &&
      parent_bank.pairs_ > 0) {
    if (parent.width() != base_.width() || parent.height() != base_.height()) {
      throw std::invalid_argument(
          "IncrementalPixelEncoder: parent shape mismatch with base");
    }
    collect_patches(parent, mutant);
    const std::size_t pairs = parent_bank.pairs_ + patches_.size();
    if (patches_sparse() && pairs <= max_lineage_pairs_) {
      return patch_slice_bank(parent_bank, pairs, child_bank);
    }
  }

  // Dense mutations (e.g. gauss noise rewrites nearly every pixel) are past
  // the point where patching pays: a fresh bit-sliced full encode costs
  // O(W*H * D/64) words against the patch path's O(pairs * D) bits. Both
  // compute the exact same integer sums, so the crossover is pure routing —
  // and it keeps the slice arithmetic within its bias headroom.
  collect_patches(base_, mutant);
  if (!patches_sparse()) {
    child_bank.engaged_ = false;
    return encoder_->encode_packed(mutant);
  }
  if (!root_.engaged_) rebuild_base_slices();
  return patch_slice_bank(root_, patches_.size(), child_bank);
}

PackedHv IncrementalPixelEncoder::patch_slice_bank(const SliceBank& from,
                                                   std::size_t pairs,
                                                   SliceBank& to) const {
  // Carry-save delta patch entirely in sign-bit space. Each patch pair
  // contributes 2*(old_bit - new_bit) per lane, rewritten bias-free as
  //   2*old_bit + 2*(~new_bit) - 2,
  // so patching is two word-level ripple-carry adds per patch into the
  // biased slice bank (the device's encode_patch block), and the trailing
  // constants fold into the sign threshold: lane < 0 <=> stored < T,
  // lane == 0 <=> stored == T, with T = bias + 2*pairs over the bank's
  // whole lineage. Eq. 1 then falls out of one bit-parallel MSB-down
  // comparison per word (the device's slice_bipolarize_block) — never a
  // dense intermediate, never an O(D) int32 pass. Bit-exact with the full
  // encode of the mutant under every device backend and codebook storage
  // mode.
  const Device& device = active_device();
  const std::size_t n = encoder_->dim();
  const std::size_t words = util::words_for_bits(n);
  const std::size_t levels = slice_count_;
  to.slices_.assign(from.slices_.begin(), from.slices_.end());
  to.pairs_ = pairs;
  to.lineage_ = lineage_;
  to.engaged_ = true;
  std::uint64_t* slices = to.slices_.data();
  const auto& positions = encoder_->packed_position_memory();
  const auto& values = encoder_->packed_value_memory();
  for (const auto& patch : patches_) {
    device.encode_patch(
        slices, words, levels,
        positions.row(patch.position, pos_row_scratch_).data(),
        values.row(patch.old_index, old_row_scratch_).data(),
        values.row(patch.new_index, new_row_scratch_).data());
  }

  const auto threshold = static_cast<std::uint32_t>(bias_) +
                         2 * static_cast<std::uint32_t>(pairs);
  std::vector<std::uint64_t> out(words, 0);
  device.slice_bipolarize_block(slices, words, levels, threshold,
                                encoder_->tie_break_packed().words().data(),
                                out.data());
  out.back() &= util::tail_mask(n);
  return PackedHv::from_words(n, std::move(out));
}

}  // namespace hdtest::hdc
