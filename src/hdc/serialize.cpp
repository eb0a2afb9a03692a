#include "hdc/serialize.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "hdc/encoder.hpp"
#include "util/bitops.hpp"
#include "util/checked.hpp"
#include "util/checksum.hpp"
#include "util/io.hpp"
#include "util/thread_pool.hpp"

namespace hdtest::hdc {

namespace {

constexpr char kMagic[4] = {'H', 'D', 'T', 'M'};

// ---------------------------------------------------------------------------
// Format v3 layout constants. The file is little-endian by contract:
//
//   [0,64)    FileHeader (fixed 64 bytes, fields below)
//   [64, ..)  section table: section_count entries of 32 bytes each
//   ...       zero padding up to the first 64-byte-aligned offset
//   sections  each section's payload, 64-byte aligned, zero-padded between
//
// Header fields (offsets):
//   0  char[4] magic "HDTM"
//   4  u32 version (3)
//   8  u32 endianness marker (kEndianMarker as written by a LE host)
//  12  u32 header bytes (64)
//  16  u64 file bytes (total; truncation detector)
//  24  u32 section count
//  28  u32 flags (bit 0 = kHeaderFlagRematCodebooks; all other bits 0)
//  32  u64 section table offset (64)
//  40  u64 table checksum (FNV-1a over the table bytes)
//  48  u64 file checksum (FNV-1a over bytes [64, file bytes))
//  56  u64 reserved (0)
//
// Section entry: u32 kind | u32 reserved (0) | u64 offset | u64 bytes |
// u64 checksum (FNV-1a over the section payload). Every byte of the file is
// either a validated header field or covered by the file checksum, so any
// single-byte corruption is detectable.

constexpr std::uint32_t kEndianMarker = 0x01020304u;
constexpr std::uint32_t kHeaderBytes = 64;
constexpr std::uint32_t kEntryBytes = 32;
constexpr std::size_t kSectionAlign = 64;
constexpr std::uint32_t kMaxSections = 16;

enum SectionKind : std::uint32_t {
  kConfigSection = 1,        ///< 64-byte fixed config/shape block
  kAccumulatorSection = 2,   ///< classes x dim i32 lanes, row-major
  kAmWordsSection = 3,       ///< classes x stride u64 packed AM rows
  kPositionCodebookSection = 4,  ///< (width*height) x stride u64
  kValueCodebookSection = 5,     ///< value_levels x stride u64
  kTieBreakSection = 6,      ///< stride u64 packed tie-break words
  kCodebookDigestSection = 7,  ///< u64 position + u64 value FNV-1a digests
};

/// Header flag: the position codebook mirror (and, for the random value
/// strategy, the value mirror) is omitted from the file; loaders
/// rematerialize those rows from the config seed and verify them against
/// the kCodebookDigestSection digests. Pre-remat readers require the flags
/// word to be zero, so they reject flagged files with a clean error instead
/// of misparsing them.
constexpr std::uint32_t kHeaderFlagRematCodebooks = 1u << 0;
constexpr std::uint32_t kKnownHeaderFlags = kHeaderFlagRematCodebooks;

/// The format is little-endian on disk; a big-endian host would need a
/// swapping layer nobody has asked for yet, so reject it cleanly instead of
/// silently writing/reading corrupt words.
void require_little_endian(const char* who) {
  if constexpr (std::endian::native != std::endian::little) {
    throw std::runtime_error(
        std::string(who) +
        ": big-endian hosts are not supported (HDTM model files are "
        "little-endian)");
  }
}

/// FNV-1a — the shared util::fnv1a, re-exposed under the serializer's
/// historical local names (one hash for disk sections AND wire frames; see
/// util/checksum.hpp).
using util::fnv1a;

/// a * b with overflow detection (hostile header fields must throw, not
/// wrap into a small allocation that under-reads). Thin wrapper over the
/// shared util::checked_mul that keeps the serializer's error prefix.
std::size_t checked_mul(std::size_t a, std::size_t b, const char* what) {
  return util::checked_mul(a, b,
                           (std::string("load_model: ") + what).c_str());
}

[[noreturn]] void throw_unsupported_version(std::uint32_t version) {
  throw std::runtime_error("load_model: unsupported format version " +
                           std::to_string(version));
}

std::size_t align_up(std::size_t value, std::size_t align) {
  return (value + align - 1) / align * align;
}

void append_bytes(std::string& out, const void* data, std::size_t size) {
  out.append(static_cast<const char*>(data), size);
}

template <typename T>
void append_pod(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  append_bytes(out, &value, sizeof value);
}

/// Bounds-checked cursor over an in-memory payload: every read names what
/// it was after, so truncation errors are precise, and remaining() lets the
/// parser validate section sizes *before* allocating.
// NOLINTBEGIN(hdtest-checked-arith): BufReader IS the sanctioned primitive —
// its cursor arithmetic is guarded by the remaining() check on every read,
// so offset_ + size never exceeds bytes_.size().
class BufReader {
 public:
  explicit BufReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  template <typename T>
  T get(const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    read_into(&value, sizeof value, what);
    return value;
  }

  void read_into(void* dst, std::size_t size, const char* what) {
    if (remaining() < size) {
      throw std::runtime_error(std::string("load_model: truncated ") + what);
    }
    std::memcpy(dst, bytes_.data() + offset_, size);
    offset_ += size;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - offset_;
  }

 private:
  std::span<const std::byte> bytes_;
  std::size_t offset_ = 0;
};
// NOLINTEND(hdtest-checked-arith)

/// Plausibility caps shared by both loaders: a corrupt or hostile file must
/// throw before any size it declares turns into an allocation.
void check_shape_fields(std::size_t classes, std::size_t width,
                        std::size_t height, std::size_t dim,
                        std::size_t value_levels) {
  if (classes == 0 || classes > 1'000'000) {
    throw std::runtime_error("load_model: implausible class count");
  }
  if (width == 0 || height == 0 || width > 65535 || height > 65535 ||
      checked_mul(width, height, "image shape") > (std::size_t{1} << 26)) {
    throw std::runtime_error("load_model: implausible image shape");
  }
  // A stream load constructs an HdcClassifier, which regenerates the
  // codebooks from the seed — width*height position entries and
  // value_levels value entries of dim bits each. A remat file omits the
  // mirrors, so their sizes are not bounded by the section-size checks. Cap
  // the element counts so a kilobyte-sized hostile file cannot demand a
  // multi-GiB allocation (2^30 elements = a 128 MiB packed codebook, far
  // beyond any model this codebase trains, e.g. 28*28*10000 ~= 2^23).
  if (checked_mul(checked_mul(width, height, "image shape"), dim,
                  "codebook") > (std::size_t{1} << 30) ||
      checked_mul(value_levels, dim, "value codebook") >
          (std::size_t{1} << 30)) {
    throw std::runtime_error("load_model: implausible codebook size");
  }
}

ModelConfig read_config_fields(BufReader& reader) {
  ModelConfig config;
  config.dim = static_cast<std::size_t>(reader.get<std::uint64_t>("dim"));
  config.seed = reader.get<std::uint64_t>("seed");
  config.value_levels =
      static_cast<std::size_t>(reader.get<std::uint64_t>("value_levels"));
  const auto strategy_raw = reader.get<std::uint32_t>("value_strategy");
  if (strategy_raw > static_cast<std::uint32_t>(ValueStrategy::kThermometer)) {
    throw std::runtime_error("load_model: invalid value strategy");
  }
  config.value_strategy = static_cast<ValueStrategy>(strategy_raw);
  const auto similarity_raw = reader.get<std::uint32_t>("similarity");
  if (similarity_raw > static_cast<std::uint32_t>(Similarity::kHamming)) {
    throw std::runtime_error("load_model: invalid similarity metric");
  }
  config.similarity = static_cast<Similarity>(similarity_raw);
  try {
    config.validate();
  } catch (const std::invalid_argument& error) {
    // A config a trained model could never carry is malformed input here.
    throw std::runtime_error(std::string("load_model: ") + error.what());
  }
  return config;
}

// ---------------------------------------------------------------------------
// Format v3: chunked, aligned, mmap-able.

struct SectionBlob {
  std::uint32_t kind = 0;
  std::string bytes;
  std::size_t offset = 0;
};

std::string build_v3_file(const HdcClassifier& model) {
  const auto& config = model.config();
  const auto& packed = model.am().packed();
  const std::size_t stride = util::words_for_bits(config.dim);

  std::vector<SectionBlob> sections;

  SectionBlob config_blob;
  config_blob.kind = kConfigSection;
  append_pod(config_blob.bytes, static_cast<std::uint64_t>(config.dim));
  append_pod(config_blob.bytes, config.seed);
  append_pod(config_blob.bytes, static_cast<std::uint64_t>(config.value_levels));
  append_pod(config_blob.bytes, static_cast<std::uint32_t>(config.value_strategy));
  append_pod(config_blob.bytes, static_cast<std::uint32_t>(config.similarity));
  append_pod(config_blob.bytes, static_cast<std::uint64_t>(model.encoder().width()));
  append_pod(config_blob.bytes, static_cast<std::uint64_t>(model.encoder().height()));
  append_pod(config_blob.bytes, static_cast<std::uint64_t>(model.num_classes()));
  append_pod(config_blob.bytes, static_cast<std::uint64_t>(stride));
  sections.push_back(std::move(config_blob));

  SectionBlob lanes_blob;
  lanes_blob.kind = kAccumulatorSection;
  for (std::size_t c = 0; c < model.num_classes(); ++c) {
    const auto lanes = model.am().accumulator(c).lanes();
    append_bytes(lanes_blob.bytes, lanes.data(),
                 lanes.size_bytes());
  }
  sections.push_back(std::move(lanes_blob));

  SectionBlob am_blob;
  am_blob.kind = kAmWordsSection;
  const auto am_words = packed.words();
  append_bytes(am_blob.bytes, am_words.data(),
               am_words.size_bytes());
  sections.push_back(std::move(am_blob));

  // A rematerializing model regenerates its position rows (and, under the
  // random value strategy, its value rows) from the seed on every encode,
  // so the file drops those mirror sections and records a 16-byte digest
  // section instead; loaders re-derive the rows and prove they match what
  // this process encoded with. Correlated value codebooks (level /
  // thermometer) are not per-row regenerable, so their mirror stays stored
  // even in remat mode.
  const auto& positions = model.encoder().packed_position_memory();
  const auto& values = model.encoder().packed_value_memory();
  const bool remat = positions.rematerializing();
  if (!remat) {
    SectionBlob pos_blob;
    pos_blob.kind = kPositionCodebookSection;
    const auto pos_words = positions.words();
    append_bytes(pos_blob.bytes, pos_words.data(),
                 pos_words.size_bytes());
    sections.push_back(std::move(pos_blob));
  }

  if (!values.rematerializing()) {
    SectionBlob val_blob;
    val_blob.kind = kValueCodebookSection;
    const auto val_words = values.words();
    append_bytes(val_blob.bytes, val_words.data(),
                 val_words.size_bytes());
    sections.push_back(std::move(val_blob));
  }

  SectionBlob tb_blob;
  tb_blob.kind = kTieBreakSection;
  const auto tb_words = model.encoder().tie_break_packed().words();
  append_bytes(tb_blob.bytes, tb_words.data(),
               tb_words.size_bytes());
  sections.push_back(std::move(tb_blob));

  if (remat) {
    SectionBlob digest_blob;
    digest_blob.kind = kCodebookDigestSection;
    append_pod(digest_blob.bytes, positions.content_digest());
    append_pod(digest_blob.bytes, values.content_digest());
    sections.push_back(std::move(digest_blob));
  }

  // Lay the sections out 64-byte aligned after the header + table.
  const std::size_t table_bytes = sections.size() * kEntryBytes;
  std::size_t cursor = align_up(kHeaderBytes + table_bytes, kSectionAlign);
  for (auto& section : sections) {
    section.offset = cursor;
    cursor += section.bytes.size();
    if (&section != &sections.back()) cursor = align_up(cursor, kSectionAlign);
  }
  const std::size_t file_bytes = cursor;

  // Body = table + padding + sections (everything after the header); the
  // file checksum covers it byte for byte, padding included.
  std::string body;
  body.reserve(file_bytes - kHeaderBytes);
  for (const auto& section : sections) {
    append_pod(body, section.kind);
    append_pod(body, std::uint32_t{0});
    append_pod(body, static_cast<std::uint64_t>(section.offset));
    append_pod(body, static_cast<std::uint64_t>(section.bytes.size()));
    append_pod(body, fnv1a(section.bytes));
  }
  const std::uint64_t table_checksum = fnv1a(body);
  for (const auto& section : sections) {
    body.resize(section.offset - kHeaderBytes, '\0');
    body += section.bytes;
  }

  std::string file;
  file.reserve(file_bytes);
  append_bytes(file, kMagic, sizeof kMagic);
  append_pod(file, kModelFormatVersion);
  append_pod(file, kEndianMarker);
  append_pod(file, kHeaderBytes);
  append_pod(file, static_cast<std::uint64_t>(file_bytes));
  append_pod(file, static_cast<std::uint32_t>(sections.size()));
  append_pod(file, remat ? kHeaderFlagRematCodebooks : std::uint32_t{0});
  append_pod(file, static_cast<std::uint64_t>(kHeaderBytes));
  append_pod(file, table_checksum);
  append_pod(file, fnv1a(body));
  append_pod(file, std::uint64_t{0});
  file += body;
  return file;
}

/// Everything a v3 consumer needs, as byte spans into the caller's buffer
/// (stream loads copy out of them; MappedModel serves them in place).
struct ParsedV3 {
  ModelConfig config;
  std::size_t width = 0;
  std::size_t height = 0;
  std::size_t classes = 0;
  std::size_t stride = 0;
  std::span<const std::byte> accumulators;
  std::span<const std::byte> am_words;
  std::span<const std::byte> positions;  ///< empty for a remat file
  std::span<const std::byte> values;     ///< empty when the value rows remat
  std::span<const std::byte> tie_break;
  bool remat = false;  ///< header flag: codebook mirrors omitted
  std::uint64_t position_digest = 0;  ///< meaningful only when remat
  std::uint64_t value_digest = 0;     ///< meaningful only when remat
};

/// Validates a complete v3 file image and resolves its sections. Structural
/// validation (header fields, table bounds and checksum, config section
/// checksum, shapes and exact section sizes) always runs;
/// \p verify_checksum additionally verifies the whole-file checksum (every
/// non-header byte, padding included) and each section's own checksum.
ParsedV3 parse_v3(std::span<const std::byte> file, bool verify_checksum) {
  BufReader header(file);
  char magic[4] = {};
  header.read_into(magic, sizeof magic, "header");
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw std::runtime_error("load_model: bad magic (not an HDTest model)");
  }
  const auto version = header.get<std::uint32_t>("header");
  if (version != kModelFormatVersion) throw_unsupported_version(version);
  const auto endian = header.get<std::uint32_t>("header");
  if (endian != kEndianMarker) {
    throw std::runtime_error(
        "load_model: byte-order marker mismatch (file written on a host with "
        "different endianness, or corrupt)");
  }
  const auto header_bytes = header.get<std::uint32_t>("header");
  if (header_bytes != kHeaderBytes) {
    throw std::runtime_error("load_model: unexpected v3 header size");
  }
  const auto file_bytes = header.get<std::uint64_t>("header");
  if (file_bytes != file.size()) {
    throw std::runtime_error(
        "load_model: file size does not match header (truncated or padded)");
  }
  const auto section_count = header.get<std::uint32_t>("header");
  const auto flags = header.get<std::uint32_t>("header");
  const auto table_offset = header.get<std::uint64_t>("header");
  const auto table_checksum = header.get<std::uint64_t>("header");
  const auto file_checksum = header.get<std::uint64_t>("header");
  const auto reserved1 = header.get<std::uint64_t>("header");
  if (reserved1 != 0) {
    throw std::runtime_error("load_model: reserved header bytes are non-zero");
  }
  if ((flags & ~kKnownHeaderFlags) != 0) {
    throw std::runtime_error("load_model: unknown v3 header flags");
  }
  const bool remat = (flags & kHeaderFlagRematCodebooks) != 0;
  if (section_count == 0 || section_count > kMaxSections) {
    throw std::runtime_error("load_model: implausible section count");
  }
  if (table_offset != kHeaderBytes) {
    throw std::runtime_error("load_model: unexpected section table offset");
  }
  const std::size_t table_bytes =
      static_cast<std::size_t>(section_count) * kEntryBytes;
  if (file.size() < kHeaderBytes + table_bytes) {
    throw std::runtime_error("load_model: truncated section table");
  }
  if (fnv1a(file.subspan(kHeaderBytes, table_bytes)) != table_checksum) {
    throw std::runtime_error(
        "load_model: section table checksum mismatch (corrupt file)");
  }
  if (verify_checksum && fnv1a(file.subspan(kHeaderBytes)) != file_checksum) {
    throw std::runtime_error("load_model: checksum mismatch (corrupt file)");
  }

  const std::size_t data_start =
      align_up(kHeaderBytes + table_bytes, kSectionAlign);
  struct Entry {
    std::span<const std::byte> bytes;
    bool present = false;
  };
  Entry entries[kCodebookDigestSection + 1];
  BufReader table(file.subspan(kHeaderBytes, table_bytes));
  // The digest section only exists in the remat layout; a stored-mirror
  // file carrying one is malformed, so the known-kind ceiling follows the
  // header flag.
  const std::uint32_t max_kind = remat ? kCodebookDigestSection
                                       : kTieBreakSection;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const auto kind = table.get<std::uint32_t>("section entry");
    const auto reserved = table.get<std::uint32_t>("section entry");
    const auto offset = table.get<std::uint64_t>("section entry");
    const auto bytes = table.get<std::uint64_t>("section entry");
    const auto checksum = table.get<std::uint64_t>("section entry");
    if (reserved != 0) {
      throw std::runtime_error("load_model: reserved section bytes non-zero");
    }
    if (kind == 0 || kind > max_kind) {
      throw std::runtime_error("load_model: unknown v3 section kind " +
                               std::to_string(kind));
    }
    if (entries[kind].present) {
      throw std::runtime_error("load_model: duplicate v3 section kind " +
                               std::to_string(kind));
    }
    if (offset % kSectionAlign != 0 || offset < data_start) {
      throw std::runtime_error("load_model: misaligned v3 section offset");
    }
    if (offset > file_bytes || bytes > file_bytes - offset) {
      throw std::runtime_error(
          "load_model: v3 section extends past end of file");
    }
    entries[kind].bytes = file.subspan(static_cast<std::size_t>(offset),
                                       static_cast<std::size_t>(bytes));
    entries[kind].present = true;
    // The config section drives every shape below, so its checksum is
    // verified even when the full sweep is off (64 bytes — free).
    if ((verify_checksum || kind == kConfigSection) &&
        fnv1a(entries[kind].bytes) != checksum) {
      throw std::runtime_error("load_model: v3 section checksum mismatch");
    }
  }
  // Presence rules follow the flags word: a stored-mirror file carries
  // exactly kinds 1..6; a remat file drops the position mirror (its rows
  // regenerate from the seed), must carry the digest section, and the value
  // mirror's fate is settled below once the config's value strategy is
  // known.
  for (std::uint32_t kind = kConfigSection; kind <= kTieBreakSection; ++kind) {
    if (remat && (kind == kPositionCodebookSection ||
                  kind == kValueCodebookSection)) {
      continue;
    }
    if (!entries[kind].present) {
      throw std::runtime_error("load_model: missing v3 section kind " +
                               std::to_string(kind));
    }
  }
  if (remat) {
    if (entries[kPositionCodebookSection].present) {
      throw std::runtime_error(
          "load_model: remat v3 file carries a position codebook section");
    }
    if (!entries[kCodebookDigestSection].present) {
      throw std::runtime_error(
          "load_model: missing v3 section kind " +
          std::to_string(kCodebookDigestSection));
    }
  }
  if (entries[kConfigSection].bytes.size() != 64) {
    throw std::runtime_error("load_model: malformed v3 config section");
  }

  ParsedV3 parsed;
  BufReader config_reader(entries[kConfigSection].bytes);
  parsed.config = read_config_fields(config_reader);
  parsed.width =
      static_cast<std::size_t>(config_reader.get<std::uint64_t>("width"));
  parsed.height =
      static_cast<std::size_t>(config_reader.get<std::uint64_t>("height"));
  parsed.classes =
      static_cast<std::size_t>(config_reader.get<std::uint64_t>("num_classes"));
  parsed.stride =
      static_cast<std::size_t>(config_reader.get<std::uint64_t>("stride"));
  check_shape_fields(parsed.classes, parsed.width, parsed.height,
                     parsed.config.dim, parsed.config.value_levels);
  if (parsed.stride != util::words_for_bits(parsed.config.dim)) {
    throw std::runtime_error("load_model: packed stride does not match dim");
  }
  // The file's storage mode overrides the process default: loading must
  // reconstruct exactly what was saved, regardless of HDTEST_CODEBOOK in
  // the loading process.
  parsed.remat = remat;
  parsed.config.codebook =
      remat ? CodebookMode::kRemat : CodebookMode::kStored;
  if (remat) {
    // Only the random value strategy derives each row independently from
    // the seed; a remat file with a correlated (level/thermometer) strategy
    // must still ship its value mirror — without it the codebook cannot be
    // regenerated and the file is unusable.
    const bool value_rows_regenerable =
        parsed.config.value_strategy == ValueStrategy::kRandom;
    if (value_rows_regenerable && entries[kValueCodebookSection].present) {
      throw std::runtime_error(
          "load_model: remat v3 file carries a regenerable value codebook "
          "section");
    }
    if (!value_rows_regenerable && !entries[kValueCodebookSection].present) {
      throw std::runtime_error(
          "load_model: remat v3 file cannot regenerate its correlated value "
          "codebook (value codebook section missing)");
    }
  }

  // Exact-size checks, overflow-safe: a section that disagrees with the
  // config shapes is hostile or corrupt — reject before any allocation.
  const auto expect = [](std::span<const std::byte> got, std::size_t want,
                         const char* what) {
    if (got.size() != want) {
      throw std::runtime_error(std::string("load_model: v3 ") + what +
                               " section size mismatch");
    }
    return got;
  };
  parsed.accumulators = expect(
      entries[kAccumulatorSection].bytes,
      checked_mul(checked_mul(parsed.classes, parsed.config.dim, "accumulator"),
                  sizeof(std::int32_t), "accumulator"),
      "accumulator");
  parsed.am_words = expect(
      entries[kAmWordsSection].bytes,
      checked_mul(checked_mul(parsed.classes, parsed.stride, "AM words"),
                  sizeof(std::uint64_t), "AM words"),
      "AM words");
  if (!remat) {
    parsed.positions = expect(
        entries[kPositionCodebookSection].bytes,
        checked_mul(checked_mul(checked_mul(parsed.width, parsed.height,
                                            "position codebook"),
                                parsed.stride, "position codebook"),
                    sizeof(std::uint64_t), "position codebook"),
        "position codebook");
  }
  if (entries[kValueCodebookSection].present) {
    parsed.values = expect(
        entries[kValueCodebookSection].bytes,
        checked_mul(checked_mul(parsed.config.value_levels, parsed.stride,
                                "value codebook"),
                    sizeof(std::uint64_t), "value codebook"),
        "value codebook");
  }
  parsed.tie_break =
      expect(entries[kTieBreakSection].bytes,
             checked_mul(parsed.stride, sizeof(std::uint64_t), "tie-break"),
             "tie-break");
  if (remat) {
    const auto digest =
        expect(entries[kCodebookDigestSection].bytes,
               2 * sizeof(std::uint64_t), "codebook digest");
    BufReader digest_reader(digest);
    parsed.position_digest =
        digest_reader.get<std::uint64_t>("codebook digest");
    parsed.value_digest = digest_reader.get<std::uint64_t>("codebook digest");
  }
  return parsed;
}

/// Words copied out of an unaligned byte span (the stream-load path).
std::vector<std::uint64_t> copy_words(std::span<const std::byte> bytes) {
  std::vector<std::uint64_t> words(bytes.size() / sizeof(std::uint64_t));
  std::memcpy(words.data(), bytes.data(), bytes.size());
  return words;
}

/// Words served in place (the mmap path; section offsets are 64-byte
/// aligned within a page-aligned mapping, so the cast is safe).
std::span<const std::uint64_t> view_words(std::span<const std::byte> bytes) {
  // parse_v3 has already validated the section's exact byte size and 64-byte
  // alignment before this view is cut.
  // NOLINTNEXTLINE(hdtest-checked-arith)
  return {reinterpret_cast<const std::uint64_t*>(bytes.data()),
          bytes.size() / sizeof(std::uint64_t)};
}

HdcClassifier load_v3_buffer(std::span<const std::byte> file) {
  const ParsedV3 parsed = parse_v3(file, /*verify_checksum=*/true);
  HdcClassifier model(parsed.config, parsed.width, parsed.height,
                      parsed.classes);
  std::vector<Accumulator> accumulators;
  accumulators.reserve(parsed.classes);
  const std::size_t lane_row =
      checked_mul(parsed.config.dim, sizeof(std::int32_t), "lane row");
  const std::byte* src = parsed.accumulators.data();
  for (std::size_t c = 0; c < parsed.classes; ++c, src += lane_row) {
    std::vector<std::int32_t> lanes(parsed.config.dim);
    std::memcpy(lanes.data(), src, lane_row);
    accumulators.push_back(Accumulator::from_lanes(std::move(lanes)));
  }
  try {
    model.restore_trained(
        std::move(accumulators),
        PackedAssocMemory(parsed.config.dim, parsed.classes,
                          parsed.config.similarity,
                          copy_words(parsed.am_words)));
  } catch (const std::invalid_argument& error) {
    throw std::runtime_error(std::string("load_model: ") + error.what());
  }
  if (parsed.remat) {
    // The rebuilt encoder rematerializes its codebooks from the stored
    // seed; prove that regeneration reproduces what the saving process
    // encoded with before handing the model out — a wrong-seed or
    // cross-version file must fail loudly here, not mispredict quietly.
    const auto& encoder = model.encoder();
    if (encoder.packed_position_memory().content_digest() !=
            parsed.position_digest ||
        encoder.packed_value_memory().content_digest() !=
            parsed.value_digest) {
      throw std::runtime_error(
          "load_model: codebook digest mismatch (seed cannot regenerate the "
          "saved codebooks)");
    }
  }
  return model;
}

}  // namespace

void save_model(const HdcClassifier& model, std::ostream& out) {
  require_little_endian("save_model");
  if (!model.trained()) {
    throw std::logic_error("save_model: model is not trained");
  }
  const std::string file = build_v3_file(model);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
  if (!out) throw std::runtime_error("save_model: write failed");
}

void save_model(const HdcClassifier& model, const std::string& path) {
  // Crash-safe save: write a temp file, fsync it, rename over the
  // destination, fsync the directory. A power cut at any point leaves
  // either the old model or the complete new one on disk — never a torn
  // or empty file under the final name.
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("save_model: cannot open " + tmp_path);
    }
    save_model(model, out);
    // Close explicitly: buffered bytes are flushed by the destructor too,
    // but the destructor swallows failures — an ENOSPC surfacing at close
    // would otherwise leave a silently truncated model on disk.
    out.close();
    if (out.fail()) {
      throw std::runtime_error("save_model: close failed for " + tmp_path);
    }
  }
  const int fd = util::io::open_readonly(tmp_path.c_str());
  if (fd < 0) {
    throw std::runtime_error("save_model: reopen failed for " + tmp_path);
  }
  const int synced = util::io::fsync_fd(fd);
  const int closed = util::io::close_fd(fd);
  if (synced != 0 || closed != 0) {
    (void)std::remove(tmp_path.c_str());
    throw std::runtime_error("save_model: fsync failed for " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp_path.c_str());
    throw std::runtime_error("save_model: rename failed for " + path);
  }
  if (util::io::fsync_parent_dir(path.c_str()) != 0) {
    throw std::runtime_error("save_model: directory fsync failed for " +
                             path);
  }
}

HdcClassifier load_model(std::istream& in) {
  require_little_endian("load_model");
  // Magic and version gate BEFORE the payload is pulled into memory: a file
  // that is not ours, or any version but the current one, is rejected on its
  // first eight bytes.
  char magic[4] = {};
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw std::runtime_error("load_model: bad magic (not an HDTest model)");
  }
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof version);
  if (!in) {
    throw std::runtime_error("load_model: truncated version");
  }
  if (version != kModelFormatVersion) throw_unsupported_version(version);

  // One buffer, one pass: the parser needs the full file image back, header
  // included, so seed the buffer with the eight bytes already consumed.
  std::string buffer(magic, sizeof magic);
  buffer.append(reinterpret_cast<const char*>(&version), sizeof version);
  buffer.append(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  return load_v3_buffer(std::as_bytes(std::span(buffer.data(), buffer.size())));
}

HdcClassifier load_model(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_model: cannot open " + path);
  return load_model(in);
}

MappedModel::MappedModel(const std::string& path, MapOptions options)
    : file_(util::MappedFile::open(path)) {
  require_little_endian("MappedModel");
  const ParsedV3 parsed = parse_v3(file_.bytes(), options.verify_checksum);
  config_ = parsed.config;
  width_ = parsed.width;
  height_ = parsed.height;
  try {
    // Everything below is a non-owning view into the mapping (validated
    // shapes + clean padding) except the tie-break, whose stride words are
    // copied once so the encode kernel can take a PackedHv. A remat file
    // carries no position mirror (and no value mirror under the random
    // strategy): those codebooks are rebuilt as rematerializing memories
    // over the stored seed instead of views into the file.
    if (parsed.remat) {
      positions_ = PackedItemMemory::remat(
          config_.dim, checked_mul(width_, height_, "position codebook"),
          position_codebook_seed(config_));
      values_ = parsed.values.empty()
                    ? PackedItemMemory::remat(config_.dim,
                                              config_.value_levels,
                                              value_codebook_seed(config_))
                    : PackedItemMemory::view(config_.dim,
                                             config_.value_levels,
                                             view_words(parsed.values));
    } else {
      positions_ = PackedItemMemory::view(
          config_.dim, checked_mul(width_, height_, "position codebook"),
          view_words(parsed.positions));
      values_ = PackedItemMemory::view(config_.dim, config_.value_levels,
                                       view_words(parsed.values));
    }
    tie_break_ =
        PackedHv::from_words(config_.dim, view_words(parsed.tie_break));
    am_ = PackedAssocMemory::view(config_.dim, parsed.classes,
                                  config_.similarity,
                                  view_words(parsed.am_words));
  } catch (const std::invalid_argument& error) {
    // Shape/padding defects in a structurally valid file are malformed
    // input, not programmer error.
    throw std::runtime_error(std::string("MappedModel: ") + error.what());
  }
  if (parsed.remat && options.verify_checksum) {
    // One regeneration sweep over the codebooks at map time is the only way
    // to prove the seed reproduces the digests the saver recorded. Maps
    // with verify_checksum off keep their O(1) cold start and defer that
    // trust to the serving stack, exactly as for the file checksum.
    if (positions_.content_digest() != parsed.position_digest ||
        values_.content_digest() != parsed.value_digest) {
      throw std::runtime_error(
          "MappedModel: codebook digest mismatch (seed cannot regenerate "
          "the saved codebooks)");
    }
  }
}

PackedHv MappedModel::encode_packed(const data::Image& image) const {
  if (image.width() != width_ || image.height() != height_) {
    throw std::invalid_argument("MappedModel: image shape mismatch");
  }
  return encode_pixels_packed(positions_, values_, config_.value_levels,
                              tie_break_, image);
}

std::size_t MappedModel::predict(const data::Image& image) const {
  return am_.predict(encode_packed(image));
}

std::vector<std::size_t> MappedModel::predict_batch(
    std::span<const data::Image> images, std::size_t workers) const {
  // Same two packed phases as HdcClassifier::predict_batch — bit-sliced
  // encode per image, then the query-blocked AM sweep — so predictions are
  // bit-identical to the owning model for any worker count.
  std::vector<PackedHv> queries(images.size());
  util::parallel_for(images.size(), workers,
                     [&](std::size_t i) { queries[i] = encode_packed(images[i]); });
  return am_.predict_batch(std::span<const PackedHv>(queries), workers);
}

}  // namespace hdtest::hdc
