#pragma once
/// \file serialize.hpp
/// Binary model persistence and zero-copy model serving.
///
/// A trained HDC model stores its configuration, the associative-memory
/// accumulators (so a loaded model can continue retraining exactly where it
/// left off — the defense workflow of section V-D across process restarts),
/// and the packed inference artifacts.
///
/// There is one format, v3, written by save_model and read by both loaders:
/// a chunked, 64-byte-aligned, explicitly little-endian layout built for
/// mmap. A fixed 64-byte header (magic, version, endianness marker, file
/// size, flags, whole-file checksum) is followed by a section table and
/// self-describing sections — config, accumulator lanes, the packed AM rows,
/// the packed item-memory codebook mirrors, and the packed tie-break words.
/// Every section payload is 64-byte aligned, so a read-only mapping can
/// serve the AM rows and codebooks in place. A file whose header names any
/// other version (including the retired v1/v2 stream layouts) is rejected
/// on its first eight bytes.
///
/// A model trained with CodebookMode::kRemat writes the *remat variant*
/// (header flag bit 0): the position codebook mirror — by far the largest
/// section — is omitted, as is the value mirror when the random value
/// strategy can regenerate it row-by-row from the seed; a 16-byte
/// codebook-digest section (FNV-1a over each mirror's packed words) rides
/// along instead. Loaders rematerialize the dropped codebooks from the
/// stored seed and verify them against the digests, so a wrong-seed or
/// cross-version file fails loudly instead of mispredicting quietly.
/// Correlated value strategies (level/thermometer) keep their value mirror
/// stored even in remat mode. The file's storage mode wins on load: a remat
/// file loads as a remat model and a stored file as a stored model,
/// regardless of the loading process's HDTEST_CODEBOOK default. Pre-remat
/// readers required the flags word to be zero, so they reject remat files
/// with a clean "reserved header bytes" error.
///
/// Byte order: the file is little-endian by contract, with a header marker.
/// Big-endian hosts are cleanly rejected by both save and load rather than
/// silently corrupting.
///
/// Loading validates magic, version, endianness, checksums, and every
/// section's declared size against the actual payload *before* allocating
/// (overflow-checked products), so corrupted or hostile files throw
/// std::runtime_error with a precise reason instead of OOMing or crashing.
///
/// Zero-copy serving: MappedModel mmaps a v3 file read-only and hands
/// PackedAssocMemory / PackedItemMemory non-owning views over the mapping.
/// For stored-mirror files, construction performs zero class-HV rebuilds
/// and zero codebook regenerations from the seed (instrument counters prove
/// it; asserted by tests/hdc/mapped_model_test), and N processes mapping one
/// model file share its pages through the kernel page cache. For remat
/// files the omitted codebooks become rematerializing memories over the
/// stored seed — rows regenerate per encode.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "hdc/classifier.hpp"
#include "util/mmap_file.hpp"

namespace hdtest::hdc {

/// The serialization format version: the only one written and read.
inline constexpr std::uint32_t kModelFormatVersion = 3;

/// Writes a trained model to a stream in the current format.
/// \throws std::logic_error if the model is untrained;
///         std::runtime_error on I/O failure or a big-endian host.
void save_model(const HdcClassifier& model, std::ostream& out);

/// Writes a trained model to a file, crash-safely (temp file, fsync,
/// rename): a crash leaves either the old file or the complete new one.
void save_model(const HdcClassifier& model, const std::string& path);

/// Reads a model from a stream. The returned model is finalized and ready
/// for prediction and further retraining; the packed snapshot is restored
/// verbatim (zero rebuilds), while the encoder's codebooks regenerate from
/// the stored seed (use MappedModel to avoid that too).
/// \throws std::runtime_error on malformed input, including any format
///         version other than kModelFormatVersion ("unsupported format
///         version N").
[[nodiscard]] HdcClassifier load_model(std::istream& in);

/// Reads a model from a file.
[[nodiscard]] HdcClassifier load_model(const std::string& path);

/// Options for MappedModel.
struct MapOptions {
  /// Verify the header's whole-file checksum at map time, and — for remat
  /// files — regenerate the omitted codebooks once and check them against
  /// the stored digests. Catches any corruption (and any seed that cannot
  /// reproduce the saved codebooks) but touches every page once; serving
  /// stacks that trust their artifact store can turn it off for a pure
  /// O(1) cold start (structural validation — header, section table,
  /// config, shapes, padding bits — always runs either way).
  bool verify_checksum = true;
};

/// A v3 model file served directly from a read-only memory mapping.
///
/// The packed associative memory, the packed codebook mirrors the file
/// carries, and the packed tie-break are non-owning views over the
/// mapping: no copies, no class-HV rebuilds, no codebook regeneration from
/// the seed. Codebooks a remat file omits are served as rematerializing
/// memories instead (rows regenerate from the seed per encode). All views
/// (and anything copied from them) must not outlive this object.
///
/// Thread-safety: all member functions are const over immutable state, so
/// one MappedModel may serve queries from many threads.
class MappedModel {
 public:
  /// Maps \p path and validates the layout.
  /// \throws std::runtime_error on I/O failure, an unsupported version, a
  /// byte-order mismatch, or any structural/checksum validation failure.
  explicit MappedModel(const std::string& path, MapOptions options = {});

  MappedModel(MappedModel&&) noexcept = default;
  MappedModel& operator=(MappedModel&&) noexcept = default;
  MappedModel(const MappedModel&) = delete;
  MappedModel& operator=(const MappedModel&) = delete;

  [[nodiscard]] const ModelConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t height() const noexcept { return height_; }
  [[nodiscard]] std::size_t num_classes() const noexcept {
    return am_.num_classes();
  }

  /// The packed associative memory, serving the mapped rows in place.
  [[nodiscard]] const PackedAssocMemory& am() const noexcept { return am_; }

  /// The packed codebooks: mapped rows served in place for sections the
  /// file carries, rematerializing memories for codebooks a remat file
  /// omits (check rematerializing() before asking for stored words).
  [[nodiscard]] const PackedItemMemory& position_codebook() const noexcept {
    return positions_;
  }
  [[nodiscard]] const PackedItemMemory& value_codebook() const noexcept {
    return values_;
  }

  /// Encodes an image through the mapped codebooks (bit-sliced).
  /// Bit-exact with PixelEncoder::encode_packed of the saved model.
  /// \throws std::invalid_argument on shape mismatch.
  [[nodiscard]] PackedHv encode_packed(const data::Image& image) const;

  /// Predicted class of an image — bit-identical to the stream-loaded
  /// model's predict() on the same input.
  [[nodiscard]] std::size_t predict(const data::Image& image) const;

  /// Batched inference over \p workers threads; bit-identical to
  /// HdcClassifier::predict_batch of the saved model for any worker count.
  [[nodiscard]] std::vector<std::size_t> predict_batch(
      std::span<const data::Image> images, std::size_t workers = 1) const;

 private:
  util::MappedFile file_;
  ModelConfig config_;
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  PackedItemMemory positions_;  ///< view into file_
  PackedItemMemory values_;     ///< view into file_
  PackedHv tie_break_;          ///< tiny owned copy of the stored words
  PackedAssocMemory am_;        ///< view into file_
};

}  // namespace hdtest::hdc
