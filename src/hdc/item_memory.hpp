#pragma once
/// \file item_memory.hpp
/// Item memories: the fixed random codebooks of HDC (paper section III-A).
///
/// An item memory maps a discrete symbol (a pixel position, a gray level) to
/// a fixed pseudo-random hypervector. The paper's image model uses two: the
/// *position memory* (one HV per pixel index, always i.i.d. random) and the
/// *value memory* (one HV per gray level; the paper draws these i.i.d.
/// random as well — ValueStrategy::kRandom — with correlated alternatives
/// provided for ablation). Rows are built straight into sign-bit words.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hdc/config.hpp"
#include "hdc/packed_hv.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace hdtest::hdc {

/// A codebook of \c count sign-bit-packed hypervectors of dimension \c dim
/// (bit = 1 encodes -1), generated deterministically from a seed.
///
/// Rows are stored contiguously (count x words_per_entry, row-major), so the
/// bit-sliced encode kernel streams cache-friendly XOR words. Built once per
/// PixelEncoder and immutable afterwards.
///
/// Storage is either *owning* (the generating constructor), a *view* over
/// externally owned words (view(): serialize format v3 maps a model file
/// read-only and serves the stored codebook mirrors in place — zero copies,
/// zero regeneration from the seed), or *rematerializing* (remat(): no words
/// are held at all; each row regenerates from the seed into caller scratch
/// on demand — bit-identical to the stored mirror, because a kRandom row is
/// a pure function of its derived per-row seed). A view, and every copy of
/// it, borrows the external words: it must not outlive them (for v3 that
/// means the hdc::MappedModel's mapping). Copying an owning memory
/// deep-copies; copying a remat memory copies only the seed.
///
/// Generic row access goes through row(): in-place span for stored/view
/// storage, regeneration into the caller's scratch for remat. words(),
/// operator[] and at() require materialized storage and must not be called
/// on a remat instance (at() throws; the unchecked accessors are
/// documented-UB there, same class as any out-of-range index).
class PackedItemMemory {
 public:
  /// Empty memory (count() == 0).
  PackedItemMemory() = default;

  /// Generates the codebook into owning storage.
  /// \param count    number of entries (e.g. 784 positions or 256 levels)
  /// \param dim      hypervector dimensionality
  /// \param seed     generation seed (a kRandom row i derives from child
  ///                 stream i; correlated rows from child stream 0)
  /// \param strategy how entries relate to one another (see ValueStrategy)
  /// \throws std::invalid_argument for zero count/dim.
  PackedItemMemory(std::size_t count, std::size_t dim, std::uint64_t seed,
                   ValueStrategy strategy = ValueStrategy::kRandom);

  PackedItemMemory(const PackedItemMemory& other);
  PackedItemMemory& operator=(const PackedItemMemory& other);
  PackedItemMemory(PackedItemMemory&& other) noexcept;
  PackedItemMemory& operator=(PackedItemMemory&& other) noexcept;
  ~PackedItemMemory() = default;

  /// Non-owning view over an already-packed codebook (count rows of
  /// words_for_bits(dim) words each, row-major — the v3 file layout).
  /// \throws std::invalid_argument on zero dim/count, a word count other
  /// than count * words_for_bits(dim), or non-zero padding bits past dim in
  /// any row's last word (the encode kernels rely on clean padding).
  [[nodiscard]] static PackedItemMemory view(
      std::size_t dim, std::size_t count, std::span<const std::uint64_t> words);

  /// Rematerializing memory: holds no words — row \p i regenerates on demand
  /// as PackedHv::random(dim, Rng(derive_seed(seed, i))), bit-identical to
  /// row i of the stored kRandom codebook of the same seed. Only meaningful
  /// for ValueStrategy::kRandom codebooks; correlated strategies are not
  /// per-row pure functions.
  /// \throws std::invalid_argument on zero dim/count.
  [[nodiscard]] static PackedItemMemory remat(std::size_t dim,
                                              std::size_t count,
                                              std::uint64_t seed);

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// True when this instance owns its words (false for view() results and
  /// their copies, and for remat instances, which hold no words at all).
  [[nodiscard]] bool owning() const noexcept { return !storage_.empty(); }

  /// True when rows regenerate on demand instead of being stored.
  [[nodiscard]] bool rematerializing() const noexcept { return remat_; }

  /// Generation seed of a remat instance (0 otherwise).
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Scratch words a caller must provide for row(): words_per_entry() when
  /// rematerializing, 0 when rows are served in place.
  [[nodiscard]] std::size_t row_scratch_words() const noexcept {
    return remat_ ? stride_ : 0;
  }

  /// Packed words per entry (= util::words_for_bits(dim())).
  [[nodiscard]] std::size_t words_per_entry() const noexcept { return stride_; }

  /// All packed words (count x words_per_entry, row-major) — the exact byte
  /// image the v3 codebook sections store.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return {data_, count_ * stride_};
  }

  /// Packed words of entry \p index (unchecked hot path).
  [[nodiscard]] std::span<const std::uint64_t> operator[](
      std::size_t index) const noexcept {
    return {data_ + index * stride_, stride_};
  }

  /// Checked entry accessor. \throws std::out_of_range; std::logic_error on
  /// a remat instance (no stored words to point at — use row()).
  [[nodiscard]] std::span<const std::uint64_t> at(std::size_t index) const;

  /// Uniform row access for every storage mode — the encode hot paths'
  /// accessor. Stored/view rows are returned in place (scratch is ignored
  /// and may be empty); remat rows are regenerated into \p scratch, which
  /// must hold at least words_per_entry() words and stays valid only until
  /// the caller next writes it. Unchecked index, like operator[].
  HDTEST_HOT_PATH [[nodiscard]] std::span<const std::uint64_t> row(
      std::size_t index, std::span<std::uint64_t> scratch) const noexcept {
    if (!remat_) return {data_ + index * stride_, stride_};
    materialize_row(index, scratch);
    return {scratch.data(), stride_};
  }

  /// Regenerates remat row \p index into \p out (words_per_entry() words,
  /// tail bits cleared) and bumps
  /// instrument::codebook_row_rematerializations. \pre rematerializing().
  HDTEST_HOT_PATH void materialize_row(std::size_t index,
                                       std::span<std::uint64_t> out) const noexcept;

  /// FNV-1a digest over the packed row words (all rows, row-major, one
  /// little-endian byte fold per word byte) — identical across storage
  /// modes, so a remat codebook can be fingerprinted against the stored
  /// mirror it replaces (serialize v3 uses this to reject a remat file
  /// whose seed cannot regenerate the original codebook).
  [[nodiscard]] std::uint64_t content_digest() const;

 private:
  std::size_t dim_ = 0;
  std::size_t count_ = 0;
  std::size_t stride_ = 0;
  std::uint64_t seed_ = 0;               ///< remat generation seed
  bool remat_ = false;
  const std::uint64_t* data_ = nullptr;  ///< storage_ or an external view
  std::vector<std::uint64_t> storage_;   ///< count_ x stride_ when owning
};

}  // namespace hdtest::hdc
