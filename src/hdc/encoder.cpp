#include "hdc/encoder.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <stdexcept>

#include "util/bitops.hpp"
#include "util/simd/kernels.hpp"
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

/// Geometry of the biased bank of a P-pixel image. A lane (the bundle sum,
/// in [-P, P]) is stored as lane + B with B = bit_ceil(2P), so every stored
/// value is non-negative and S = bit_width(B) slices hold values up to
/// 2B - 1. The B - P - 1 values of headroom above B + P are the delta
/// encoder's lineage budget (IncrementalPixelEncoder::rebuild_base_slices).
struct BankShape {
  std::uint64_t bias;  ///< B
  std::size_t levels;  ///< S
};

BankShape bank_shape(std::size_t pixels) noexcept {
  const std::uint64_t bias =
      std::bit_ceil(2 * static_cast<std::uint64_t>(pixels));
  return {bias, static_cast<std::size_t>(std::bit_width(bias))};
}

/// Pixels bundled per bundle_bound call (the kernel's addend limit).
constexpr std::size_t kBundleGroup = 16;

/// The full encode's one bundle routine: writes the biased bank of \p pixels
/// (bound through \p positions and \p values) into \p slices, level-major,
/// and returns its shape. Every lane starts at B - P; each pixel adds 2
/// where its bound bit is clear (element +1). With c0 clear and c1 set bits
/// a lane ends at B - P + 2*c0 = B + (c0 - c1), its bundle sum plus B. The
/// padding lanes past dim count every pixel (the bound tail bits are clear)
/// and end at B + P, inside the headroom like every other lane. Remat rows
/// are regenerated group by group into one scratch block.
/// \pre the shapes agree (checked by the callers).
HDTEST_HOT_PATH BankShape build_bank(const PackedItemMemory& positions,
                                     const PackedItemMemory& values,
                                     std::size_t value_levels,
                                     std::span<const std::uint8_t> pixels,
                                     std::vector<std::uint64_t>& slices) {
  const std::size_t words = positions.words_per_entry();
  const BankShape shape = bank_shape(pixels.size());
  const std::uint64_t fill = shape.bias - pixels.size();
  slices.resize(shape.levels * words);
  for (std::size_t j = 0; j < shape.levels; ++j) {
    std::fill_n(slices.begin() + static_cast<std::ptrdiff_t>(j * words), words,
                ((fill >> j) & 1u) != 0 ? ~0ULL : 0ULL);
  }
  // Scratch is only non-empty for rematerializing codebooks; stored and view
  // codebooks serve rows in place.
  const std::size_t pos_words = positions.row_scratch_words();
  const std::size_t val_words = values.row_scratch_words();
  std::vector<std::uint64_t> scratch(kBundleGroup * (pos_words + val_words));
  const std::span<std::uint64_t> pos_scratch =
      std::span(scratch).first(kBundleGroup * pos_words);
  const std::span<std::uint64_t> val_scratch =
      std::span(scratch).subspan(kBundleGroup * pos_words);
  std::array<const std::uint64_t*, kBundleGroup> pos_rows{};
  std::array<const std::uint64_t*, kBundleGroup> val_rows{};
  const util::simd::Kernels& kernels = util::simd::kernels();
  for (std::size_t p = 0; p < pixels.size(); p += kBundleGroup) {
    const std::size_t count = std::min(kBundleGroup, pixels.size() - p);
    for (std::size_t i = 0; i < count; ++i) {
      pos_rows[i] =
          positions.row(p + i, pos_scratch.subspan(i * pos_words, pos_words))
              .data();
      val_rows[i] =
          values
              .row(value_level_index(value_levels, pixels[p + i]),
                   val_scratch.subspan(i * val_words, val_words))
              .data();
    }
    kernels.bundle_bound(slices.data(), words, shape.levels, pos_rows.data(),
                         val_rows.data(), count);
  }
  return shape;
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
  // Eq. 1 on the biased bank: lane < 0 <=> stored < B, lane == 0 <=>
  // stored == B (the tie-break bit decides).
  std::vector<std::uint64_t> slices;
  const BankShape shape = build_bank(positions, values, value_levels, pixels,
                                     slices);
  const std::size_t words = positions.words_per_entry();
  std::vector<std::uint64_t> out(words, 0);
  util::simd::kernels().slice_bipolarize(
      slices.data(), words, shape.levels,
      static_cast<std::uint32_t>(shape.bias), tie_break.words().data(),
      out.data());
  out.back() &= util::tail_mask(dim);
  return PackedHv::from_words(dim, std::move(out));
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
  // The full encode's bank, drained into the int32 lanes once. Exact
  // integer arithmetic: the same sums as per-element add_bound in any order.
  std::vector<std::uint64_t> slices;
  const BankShape shape = build_bank(packed_positions_, packed_values_,
                                     config_.value_levels, image.pixels(),
                                     slices);
  acc.add_biased_slices(slices, shape.levels, shape.bias);
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
  if (image.width() != encoder_->width() || image.height() != encoder_->height()) {
    throw std::invalid_argument("IncrementalPixelEncoder::rebase: image shape mismatch");
  }
  base_ = image;
  lineage_ = next_lineage();
  root_.engaged_ = false;
}

void IncrementalPixelEncoder::rebase(const data::Image& image,
                                     const Accumulator& acc) {
  if (acc.dim() != encoder_->dim()) {
    throw std::invalid_argument("IncrementalPixelEncoder::rebase: accumulator dim mismatch");
  }
  rebase(image);
}

void IncrementalPixelEncoder::rebuild_base_slices() const {
  // The root bank is the base image's full-encode bank: lane + B in
  // S = bit_width(B) slices, B = bit_ceil(2P) (P = pixel count; see
  // build_bank).
  //
  // Lineage rule. Each patch pair adds 2*old_bit + 2*(~new_bit) to a lane's
  // stored value: the true lane change plus 2. A bank that is pairs patch
  // pairs away from this root (summed over its whole lineage, not the
  // pixels that differ from the base) therefore stores lane + B + 2*pairs,
  // its Eq. 1 threshold is B + 2*pairs, and it cannot overflow while
  //   P + B + 2*pairs <= 2B - 1, i.e. pairs <= (B - P - 1) / 2
  // (631 at P = 784). encode_child_packed falls back to this root bank past
  // that headroom; a root patch is sparse (pairs <= P/8) and always fits.
  const std::size_t pixels = base_.pixels().size();
  const BankShape shape = build_bank(
      encoder_->packed_position_memory(), encoder_->packed_value_memory(),
      encoder_->config().value_levels, base_.pixels(), root_.slices_);
  bias_ = static_cast<std::int32_t>(shape.bias);
  slice_count_ = shape.levels;
  max_lineage_pairs_ = static_cast<std::size_t>((shape.bias - pixels - 1) / 2);
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
  // biased slice bank (the csa_patch kernel), and the trailing
  // constants fold into the sign threshold: lane < 0 <=> stored < T,
  // lane == 0 <=> stored == T, with T = bias + 2*pairs over the bank's
  // whole lineage. Eq. 1 then falls out of one bit-parallel MSB-down
  // comparison per word (the slice_bipolarize kernel) — never a dense
  // intermediate, never an O(D) int32 pass. Bit-exact with the full encode
  // of the mutant under every kernel backend and codebook storage mode.
  const util::simd::Kernels& kernels = util::simd::kernels();
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
    kernels.csa_patch(
        slices, words, levels,
        positions.row(patch.position, pos_row_scratch_).data(),
        values.row(patch.old_index, old_row_scratch_).data(),
        values.row(patch.new_index, new_row_scratch_).data());
  }

  const auto threshold = static_cast<std::uint32_t>(bias_) +
                         2 * static_cast<std::uint32_t>(pairs);
  std::vector<std::uint64_t> out(words, 0);
  kernels.slice_bipolarize(slices, words, levels, threshold,
                           encoder_->tie_break_packed().words().data(),
                           out.data());
  out.back() &= util::tail_mask(n);
  return PackedHv::from_words(n, std::move(out));
}

}  // namespace hdtest::hdc
