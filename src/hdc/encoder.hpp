#pragma once
/// \file encoder.hpp
/// Encoders: mapping raw inputs to hypervectors (paper section III-A).
///
/// The paper's image encoding has three steps:
///   1. flatten the W x H image into a pixel array;
///   2. per pixel, bind the position HV with the gray-level value HV;
///   3. bundle (sum) all pixel HVs and re-bipolarize with Eq. 1.
///
/// PixelEncoder implements exactly that, running step 2+3 through a
/// bit-sliced kernel: the position/value codebooks are mirrored into packed
/// sign-bit words at construction (PackedItemMemory), each pixel HV is one
/// XOR of packed words, and bundling is carry-save counting instead of D
/// int8 multiply-adds — the dense-binary trick (Schmuck et al., JETC'19)
/// applied to the encoding side. A Harley–Seal tree (the bundle_bound
/// kernel) reduces 16 bound pixel vectors at a time in registers and adds
/// them into one representation of the bundle, the biased bit-sliced lane
/// bank (lane + B per lane). The packed encode signs that bank directly,
/// the delta encoder patches it, and encode_into drains it into int32
/// lanes. Results are bit-exact with per-element accumulation.
///
/// IncrementalPixelEncoder exploits bundling's linearity to re-encode a
/// mutated image in time proportional to the number of changed pixels — a
/// large win for the fuzzer's sparse mutations (exactness is unit-tested).
/// A mutant can be patched from its parent's SliceBank rather than from the
/// original, so a lineage of 3-pixel mutations costs 3 patches per child.
/// It only produces packed queries, which keeps every image fuzz loop
/// dense-free end to end.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "data/image.hpp"
#include "hdc/config.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/item_memory.hpp"
#include "hdc/packed_hv.hpp"
#include "util/contracts.hpp"

namespace hdtest::hdc {

/// Maps an 8-bit gray level onto a value-memory index: identity with 256
/// levels, uniform quantization of [0, 255] onto [0, value_levels) below.
/// Shared by PixelEncoder and the mmap-served MappedModel so both paths
/// agree bit-exactly on the codebook row each pixel selects.
[[nodiscard]] constexpr std::size_t value_level_index(
    std::size_t value_levels, std::uint8_t value) noexcept {
  if (value_levels >= 256) return value;
  return static_cast<std::size_t>(value) * value_levels / 256;
}

/// Derived sub-seeds of the three random structures PixelEncoder builds from
/// ModelConfig::seed (position codebook, value codebook, tie-break HV). The
/// tags behind them are fixed wire-level constants: a rematerializing
/// codebook — in RAM or loaded from a mirror-less v3 model file — regrows
/// row i of each structure from util::derive_seed(<structure seed>, i), so
/// these functions are the single source of truth for "which stream was
/// this model built from".
[[nodiscard]] std::uint64_t position_codebook_seed(
    const ModelConfig& config) noexcept;
[[nodiscard]] std::uint64_t value_codebook_seed(
    const ModelConfig& config) noexcept;
[[nodiscard]] std::uint64_t tie_break_seed(const ModelConfig& config) noexcept;

/// The full bit-sliced image encode over explicit packed codebooks: bundle
/// position^value for every pixel into the biased bank (Harley–Seal
/// carry-save counting) and sign it (Eq. 1 on the bank). This is the kernel
/// behind PixelEncoder::encode_packed, and
/// hdc::MappedModel calls it directly with codebook *views* over a mapped
/// model file (or rematerializing codebooks when the file carries no
/// mirrors) — the whole encode touches no dense Hypervector and no
/// PackedHv::from_dense, regardless of codebook storage mode.
/// \throws std::invalid_argument when the image's pixel count mismatches
/// \p positions or the codebook shapes disagree.
HDTEST_HOT_PATH [[nodiscard]] PackedHv encode_pixels_packed(
    const PackedItemMemory& positions,
                                            const PackedItemMemory& values,
                                            std::size_t value_levels,
                                            const PackedHv& tie_break,
                                            const data::Image& image);

/// Encodes fixed-size grayscale images into hypervectors.
///
/// Thread-safety: encode() is const and touches only immutable state, so a
/// single PixelEncoder may be shared across fuzzing threads.
class PixelEncoder {
 public:
  /// Builds position and value item memories for images of the given shape.
  /// \throws std::invalid_argument for zero dimensions or a bad config.
  PixelEncoder(const ModelConfig& config, std::size_t width, std::size_t height);

  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t height() const noexcept { return height_; }
  [[nodiscard]] std::size_t dim() const noexcept { return config_.dim; }
  [[nodiscard]] const ModelConfig& config() const noexcept { return config_; }

  /// Encodes an image: bipolarize(sum_p posHV(p) (*) valueHV(img[p])).
  /// \throws std::invalid_argument when the image shape mismatches.
  [[nodiscard]] Hypervector encode(const data::Image& image) const;

  /// Full encode returning a packed query HV directly — the biased bank
  /// signed in place, no int32 lanes and no dense intermediate.
  /// Bit-exact: encode_packed(img) == PackedHv::from_dense(encode(img)).
  HDTEST_HOT_PATH [[nodiscard]] PackedHv encode_packed(
      const data::Image& image) const;

  /// Encodes into a caller-provided accumulator (no bipolarization); used by
  /// training, which bundles many images before a single bipolarize.
  void encode_into(const data::Image& image, Accumulator& acc) const;

  /// Encodes a batch in parallel over \p workers threads (util::parallel_for;
  /// each index is an independent deterministic function of its image, so
  /// results are identical for any worker count).
  [[nodiscard]] std::vector<Hypervector> encode_batch(
      std::span<const data::Image> images, std::size_t workers = 1) const;

  /// Packed batch encode: encode_packed per image, parallelized like
  /// encode_batch. Produces the training/retraining query cache (~D/8 bytes
  /// per image) with no dense intermediates.
  [[nodiscard]] std::vector<PackedHv> encode_batch_packed(
      std::span<const data::Image> images, std::size_t workers = 1) const;

  /// The bound pixel HV for (flat position, value) — step 2 of the paper.
  [[nodiscard]] Hypervector pixel_hv(std::size_t position, std::uint8_t value) const;

  /// The fixed tie-break HV used to resolve Eq. 1 zeros deterministically.
  [[nodiscard]] const Hypervector& tie_break() const noexcept { return tie_break_; }

  /// Packed mirror of tie_break() (same sign pattern, packed once).
  [[nodiscard]] const PackedHv& tie_break_packed() const noexcept {
    return tie_break_packed_;
  }

  /// Dense position/value codebooks. Materialized in CodebookMode::kStored
  /// (and, for the value memory, whenever the value strategy is correlated);
  /// a rematerializing codebook keeps no dense mirror, so these throw
  /// std::logic_error there — use pixel_hv(), which regenerates rows on
  /// demand, or pin codebook = kStored when dense inspection is the point.
  [[nodiscard]] const ItemMemory& position_memory() const;
  [[nodiscard]] const ItemMemory& value_memory() const;

  /// Packed codebooks backing the bit-sliced kernels (built once here).
  [[nodiscard]] const PackedItemMemory& packed_position_memory() const noexcept {
    return packed_positions_;
  }
  [[nodiscard]] const PackedItemMemory& packed_value_memory() const noexcept {
    return packed_values_;
  }

  /// Maps an 8-bit gray level onto a value-memory index. With 256 levels this
  /// is the identity; fewer levels quantize uniformly.
  [[nodiscard]] std::size_t value_index(std::uint8_t value) const noexcept;

 private:
  void check_shape(const data::Image& image) const;

  ModelConfig config_;
  std::size_t width_;
  std::size_t height_;
  /// Dense codebooks: engaged in stored mode (both) and for correlated
  /// value strategies (value only); disengaged rows regenerate from the
  /// seed on demand. Optional rather than lazy so the encoder keeps plain
  /// copy/move value semantics.
  std::optional<ItemMemory> position_memory_;
  std::optional<ItemMemory> value_memory_;
  Hypervector tie_break_;
  PackedItemMemory packed_positions_;
  PackedItemMemory packed_values_;
  PackedHv tie_break_packed_;
};

/// The biased bit-sliced lane bank of one delta-encoded image, kept so the
/// image's children can be patched from it (IncrementalPixelEncoder::
/// encode_child_packed). Slice j holds bit j of lane + bias + 2 * pairs()
/// for every lane; pairs() counts the patch pairs applied since the root
/// bank (the original's), not the pixels that differ from the original.
/// A default bank is disengaged: it holds no image, and encoding from it
/// takes the root route. Storage is reused when a bank is rewritten.
class SliceBank {
 public:
  /// True when the bank holds an image's lanes.
  [[nodiscard]] bool engaged() const noexcept { return engaged_; }
  /// Patch pairs applied since the root bank (0 for the root itself).
  [[nodiscard]] std::size_t pairs() const noexcept { return pairs_; }

 private:
  friend class IncrementalPixelEncoder;
  std::vector<std::uint64_t> slices_;
  std::size_t pairs_ = 0;
  /// The IncrementalPixelEncoder::rebase() this bank descends from; a bank
  /// from another base is never patched.
  std::uint64_t lineage_ = 0;
  bool engaged_ = false;
};

/// Delta re-encoder for mutated images.
///
/// Bundling is linear: changing pixel p from value u to v shifts the
/// accumulator by pixelHV(p, v) - pixelHV(p, u). rebase() performs a full
/// encode (or adopts one); encode_mutant_packed() re-encodes any same-shape
/// image in O(changed_pixels * D) bit operations instead of O(W*H*D), and
/// encode_child_packed() does the same relative to a parent's SliceBank.
/// Produces *exactly* the packed query of PixelEncoder::encode (asserted
/// against the dense full encode by tests/encoder_test).
class IncrementalPixelEncoder {
 public:
  /// \param encoder must outlive this object.
  explicit IncrementalPixelEncoder(const PixelEncoder& encoder);

  /// Sets the base image. O(1): the base's bank is built on the first
  /// sparse encode that needs it (a full encode, O(W*H*D)).
  /// \throws std::invalid_argument on shape mismatch.
  void rebase(const data::Image& image);

  /// rebase(image) for callers that still carry the base's encode_into()
  /// lanes (fuzz::SeedContext::base_acc). The lanes are only validated, not
  /// read: the bank is built from the image. The overload goes together with
  /// the perfbench replay that calls it (ROADMAP.md item 1).
  /// \throws std::invalid_argument on shape or dimension mismatch.
  void rebase(const data::Image& image, const Accumulator& acc);

  [[nodiscard]] const PixelEncoder& encoder() const noexcept {
    return *encoder_;
  }

  /// True once rebase() has been called.
  [[nodiscard]] bool has_base() const noexcept { return !base_.empty(); }

  /// Encodes \p mutant relative to the current base: the delta patch
  /// through the packed codebooks followed by the fused Eq. 1 + pack. Never
  /// touches a dense Hypervector — the fuzzer's steady-state query path.
  /// Same as encode_child_packed with the base as parent and the root bank.
  /// Bit-exact: == PackedHv::from_dense(encoder.encode(mutant)).
  /// \throws std::logic_error without a base; std::invalid_argument on shape
  /// mismatch.
  HDTEST_HOT_PATH [[nodiscard]] PackedHv encode_mutant_packed(
      const data::Image& mutant) const;

  /// Encodes \p mutant, a child of \p parent whose bank is \p parent_bank,
  /// and writes the child's bank into \p child_bank. Three exact routes:
  ///   - patch the pixels where the child differs from its parent, when
  ///     \p parent_bank is engaged, descends from the current base, and the
  ///     lineage headroom (see rebuild_base_slices) has room;
  ///   - otherwise patch the pixels where it differs from the base, from
  ///     the root bank;
  ///   - a dense child (more than 1 in 8 pixels re-indexed from the base)
  ///     takes PixelEncoder::encode_packed and leaves \p child_bank
  ///     disengaged.
  /// Bit-exact with encode_mutant_packed(mutant) on every route.
  /// \pre child_bank is not parent_bank.
  /// \throws as encode_mutant_packed; std::invalid_argument when \p parent
  /// has another shape.
  HDTEST_HOT_PATH [[nodiscard]] PackedHv encode_child_packed(
      const data::Image& mutant, const data::Image& parent,
      const SliceBank& parent_bank, SliceBank& child_bank) const;

  /// Number of pixels that differed from the image the last encode patched
  /// from (the parent on the lineage route, the base otherwise).
  [[nodiscard]] std::size_t last_delta_count() const noexcept {
    return last_delta_count_;
  }

 private:
  /// One changed pixel whose value index moved: codebook coordinates of the
  /// -old/+new patch pair.
  struct Patch {
    std::uint32_t position;
    std::uint32_t old_index;
    std::uint32_t new_index;
  };

  /// Fills patches_ with the pairs that turn \p from into \p mutant (sets
  /// last_delta_count_). \pre same shape.
  void collect_patches(const data::Image& from,
                       const data::Image& mutant) const;

  /// True when patches_ is sparse enough for the patch route.
  [[nodiscard]] bool patches_sparse() const noexcept {
    return patches_.size() * 8 <= base_.size();
  }

  /// Builds root_, the base image's biased bank, and the bias, slice count
  /// and lineage headroom that go with it.
  void rebuild_base_slices() const;

  /// Copies \p from into \p to, applies patches_ to it, records \p pairs
  /// (from's pairs plus patches_) and returns the Eq. 1 packing.
  [[nodiscard]] PackedHv patch_slice_bank(const SliceBank& from,
                                          std::size_t pairs,
                                          SliceBank& to) const;

  const PixelEncoder* encoder_;
  data::Image base_;
  /// Identifies the current base (process-unique, fresh per rebase()).
  std::uint64_t lineage_ = 0;
  /// The base's bank (pairs 0). Built lazily on the first sparse encode
  /// after a rebase, so rerouted dense mutations never pay for it.
  mutable SliceBank root_;
  mutable std::size_t slice_count_ = 0;
  mutable std::int32_t bias_ = 0;
  mutable std::size_t max_lineage_pairs_ = 0;
  /// Child bank of encode_mutant_packed, whose result nobody keeps (one
  /// instance is only ever used from one thread; the fuzz loop creates one
  /// per fuzz_one call — mirrors the last_delta_count_ contract).
  mutable SliceBank scratch_bank_;
  /// Row scratch for rematerializing codebooks (sized once in the ctor via
  /// PackedItemMemory::row_scratch_words(); empty — and never written — for
  /// stored mirrors, whose rows are served in place).
  mutable std::vector<std::uint64_t> pos_row_scratch_;
  mutable std::vector<std::uint64_t> old_row_scratch_;
  mutable std::vector<std::uint64_t> new_row_scratch_;
  mutable std::vector<Patch> patches_;
  mutable std::size_t last_delta_count_ = 0;
};

}  // namespace hdtest::hdc
