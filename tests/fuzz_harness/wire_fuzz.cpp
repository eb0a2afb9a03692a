// Fuzz harness for the fleet wire decoders: frame decoding (decode_frame
// and the stream FrameReader) and every message-body decoder behind it.
// A coordinator reads these bytes straight off a socket, so the contract
// under test is "any byte sequence either decodes or throws
// WireFormatError" — no crash, no sanitizer finding, no other exception,
// no unbounded allocation.
//
// Two build modes share this file:
//
//   * libFuzzer (clang, -DHDTEST_LIBFUZZER=ON): LLVMFuzzerTestOneInput is
//     the entry point; seed the corpus with the frames this binary writes
//     when run with --emit-corpus DIR. Each input is probed as sent and
//     once more with its checksums resealed, so mutations reach the body
//     decoders instead of dying at the checksum compare.
//   * standalone (default; works under GCC, which ships no libFuzzer): main()
//     builds one real frame per message kind, then runs a deterministic
//     bounded loop (util::Rng, fixed seed) that mutates a frame body and
//     re-encodes it with encode_frame. This is what ctest runs, so the
//     ASan/UBSan CI legs police the body parsers on every push.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/fleet/protocol.hpp"
#include "fuzz/fleet/wire.hpp"
#include "util/rng.hpp"

namespace {

namespace fleet = hdtest::fuzz::fleet;
using fleet::MessageKind;

/// Probe tallies; the standalone driver checks that mutants reach both
/// outcomes of the body decoders.
struct Tally {
  std::uint64_t decoded = 0;
  std::uint64_t rejected = 0;
};
Tally g_tally;

/// Routes one frame body to the decoder its kind selects. Unknown kinds are
/// the transport's to reject (known_kind), not a body decoder's.
void decode_body(std::uint16_t kind, std::span<const std::uint8_t> body) {
  switch (static_cast<MessageKind>(kind)) {
    case MessageKind::kHello:
      (void)fleet::decode_hello(body);
      break;
    case MessageKind::kHelloAck:
      (void)fleet::decode_hello_ack(body);
      break;
    case MessageKind::kLeaseRequest:
      fleet::decode_empty(body, "LeaseRequest");
      break;
    case MessageKind::kLeaseGrant:
      (void)fleet::decode_lease_grant(body);
      break;
    case MessageKind::kIdle:
      fleet::decode_empty(body, "Idle");
      break;
    case MessageKind::kCommit:
      (void)fleet::decode_commit(body);
      break;
    case MessageKind::kCommitAck:
      (void)fleet::decode_commit_ack(body);
      break;
    case MessageKind::kShutdown:
      fleet::decode_empty(body, "Shutdown");
      break;
    case MessageKind::kReject:
      (void)fleet::decode_reject(body);
      break;
    case MessageKind::kHeartbeat:
      (void)fleet::decode_heartbeat(body);
      break;
  }
}

/// Decodes one frame's body and enforces the contract: a clean decode or a
/// WireFormatError. Anything else aborts, so libFuzzer saves a reproducer.
void check_body(const fleet::Frame& frame) {
  if (!fleet::known_kind(frame.kind)) return;
  try {
    decode_body(frame.kind, frame.body);
    ++g_tally.decoded;
  } catch (const fleet::WireFormatError&) {
    ++g_tally.rejected;
  } catch (const std::exception& e) {
    std::cerr << "contract violation: kind " << frame.kind
              << " threw a non-WireFormatError: " << e.what() << "\n";
    std::abort();
  }
}

/// One fuzz probe: the bytes through decode_frame, then through a
/// FrameReader fed in two pieces (so the kNeedMore path runs too), with
/// every decoded frame's body handed to its decoder.
void probe(std::span<const std::uint8_t> bytes) {
  const fleet::FrameDecode decoded = fleet::decode_frame(bytes);
  if (decoded.status == fleet::FrameStatus::kOk) check_body(decoded.frame);

  fleet::FrameReader reader;
  fleet::Frame frame;
  const std::size_t split = bytes.size() / 2;
  reader.feed(bytes.first(split));
  while (reader.next(frame) == fleet::FrameStatus::kOk) check_body(frame);
  reader.feed(bytes.subspan(split));
  while (reader.next(frame) == fleet::FrameStatus::kOk) check_body(frame);
}

/// Re-encodes the kind and body a (possibly corrupted) frame claims, so the
/// checksums are valid and the body decoder sees the mutation. Empty when
/// the bytes cannot hold a header and trailer.
std::vector<std::uint8_t> reseal(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < fleet::kFrameHeaderBytes + fleet::kFrameTrailerBytes) {
    return {};
  }
  const auto kind = static_cast<std::uint16_t>(bytes[6] | (bytes[7] << 8));
  const std::size_t body_size =
      bytes.size() - fleet::kFrameHeaderBytes - fleet::kFrameTrailerBytes;
  if (body_size > fleet::kMaxBodyBytes) return {};
  const auto body = bytes.subspan(fleet::kFrameHeaderBytes, body_size);
  return fleet::encode_frame(kind, body);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> bytes(data, size);
  probe(bytes);
  probe(reseal(bytes));
  return 0;
}

#if !defined(HDTEST_HARNESS_LIBFUZZER)

namespace {

/// A Commit in the shape workers send: one successful record carrying an
/// adversarial image, and one failed record without one.
fleet::Commit seed_commit() {
  fleet::Commit commit;
  commit.lease_id = 42;
  commit.first_stream = 8;
  hdtest::fuzz::CampaignRecord hit;
  hit.image_index = 8;
  hit.true_label = 3;
  hit.outcome.success = true;
  hit.outcome.reference_label = 3;
  hit.outcome.adversarial_label = 7;
  hit.outcome.iterations = 12;
  hit.outcome.encodes = 120;
  hit.outcome.discarded = 4;
  hit.outcome.perturbation.l1 = 1.25;
  hit.outcome.perturbation.l2 = 0.5;
  hit.outcome.perturbation.linf = 0.1;
  hit.outcome.perturbation.pixels_changed = 9;
  std::vector<std::uint8_t> pixels(4 * 3);
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    pixels[i] = static_cast<std::uint8_t>(i * 21);
  }
  hit.outcome.adversarial = hdtest::data::Image(4, 3, std::move(pixels));
  hdtest::fuzz::CampaignRecord miss;
  miss.image_index = 9;
  miss.true_label = 5;
  miss.outcome.reference_label = 5;
  miss.outcome.iterations = 30;
  miss.outcome.encodes = 300;
  commit.records = {hit, miss};
  return commit;
}

/// One real frame per message kind, built by the production make_*
/// encoders.
std::vector<fleet::Frame> make_seed_frames() {
  std::vector<fleet::Frame> frames;
  frames.push_back(fleet::make_hello({0x1234abcd5678ef90ULL}));
  frames.push_back(fleet::make_hello_ack({3}));
  frames.push_back(fleet::make_lease_request());
  frames.push_back(fleet::make_lease_grant({7, 16, 8}));
  frames.push_back(fleet::make_idle());
  frames.push_back(fleet::make_commit(seed_commit()));
  frames.push_back(fleet::make_commit_ack({7}));
  frames.push_back(fleet::make_shutdown());
  frames.push_back(fleet::make_reject({fleet::RejectReason::kBadCommit}));
  frames.push_back(fleet::make_heartbeat({3, 7, 2, 16, 900, 5}));
  return frames;
}

/// Count and length values on the decoders' edge cases.
constexpr std::uint64_t kHostile[] = {0, 1, 0xFFFFFFFF, 1ULL << 31, ~0ULL};

/// Writes \p value little-endian over bytes [at, at + width).
void overwrite_le(std::vector<std::uint8_t>& bytes, std::size_t at,
                  std::uint64_t value, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>((value >> (8 * i)) & 0xff);
  }
}

/// Mutates a message body; \p other is a second seed body to splice from.
std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& seed,
                                 const std::vector<std::uint8_t>& other,
                                 hdtest::util::Rng& rng) {
  std::vector<std::uint8_t> bytes = seed;
  switch (rng.uniform_u64(6)) {
    case 0: {  // flip one bit
      if (bytes.empty()) break;
      const std::size_t at = rng.uniform_u64(bytes.size());
      bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_u64(8));
      break;
    }
    case 1: {  // overwrite a u32 or u64 field with a hostile value
      const std::size_t width = rng.uniform_u64(2) == 0 ? 4 : 8;
      if (bytes.size() < width) break;
      const std::size_t at = rng.uniform_u64(bytes.size() - width + 1);
      const auto value = kHostile[rng.uniform_u64(std::size(kHostile))];
      overwrite_le(bytes, at, value, width);
      break;
    }
    case 2:  // truncate
      bytes.resize(rng.uniform_u64(bytes.size() + 1));
      break;
    case 3: {  // extend with noise
      const std::size_t extra = rng.uniform_u64(64) + 1;
      for (std::size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(rng.uniform_u64(256)));
      }
      break;
    }
    case 4: {  // corrupt a run of up to 16 bytes
      if (bytes.empty()) break;
      const std::size_t at = rng.uniform_u64(bytes.size());
      const std::size_t run = rng.uniform_u64(16) + 1;
      for (std::size_t i = at; i < bytes.size() && i < at + run; ++i) {
        bytes[i] = static_cast<std::uint8_t>(rng.uniform_u64(256));
      }
      break;
    }
    default: {  // splice this body's head onto another body's tail
      const std::size_t cut = rng.uniform_u64(bytes.size() + 1);
      bytes.resize(cut);
      const std::size_t from = rng.uniform_u64(other.size() + 1);
      bytes.insert(bytes.end(), other.begin() + from, other.end());
      break;
    }
  }
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t rounds = 100000;
  std::uint64_t seed = 0x48445746555a5aULL;  // "HDWFUZZ"
  std::string emit_dir;
  std::vector<std::string> inputs;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--rounds" && a + 1 < argc) {
      rounds = std::stoull(argv[++a]);
    } else if (arg == "--seed" && a + 1 < argc) {
      seed = std::stoull(argv[++a]);
    } else if (arg == "--emit-corpus" && a + 1 < argc) {
      emit_dir = argv[++a];
    } else {
      inputs.push_back(arg);
    }
  }

  // File arguments: replay mode (libFuzzer crash reproducers).
  for (const auto& path : inputs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "cannot read " << path << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
    LLVMFuzzerTestOneInput(data, bytes.size());
  }
  if (!inputs.empty()) {
    std::cout << "replayed " << inputs.size() << " inputs, no crash\n";
    return 0;
  }

  const auto frames = make_seed_frames();
  if (!emit_dir.empty()) {
    for (const auto& frame : frames) {
      const auto bytes = fleet::encode_frame(frame.kind, frame.body);
      std::ofstream out(emit_dir + "/seed_kind" + std::to_string(frame.kind),
                        std::ios::binary);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    std::cout << "wrote " << frames.size() << " seeds to " << emit_dir << "\n";
    return 0;
  }

  // The pristine frames must decode; check them first so a codec
  // regression fails loudly rather than hiding among the rejected mutants.
  for (const auto& frame : frames) {
    const auto bytes = fleet::encode_frame(frame.kind, frame.body);
    const fleet::FrameDecode decoded = fleet::decode_frame(bytes);
    if (decoded.status != fleet::FrameStatus::kOk) {
      std::cerr << "pristine seed frame of kind " << frame.kind << ": "
                << fleet::frame_status_name(decoded.status) << "\n";
      return 1;
    }
    try {
      decode_body(decoded.frame.kind, decoded.frame.body);
    } catch (const std::exception& e) {
      std::cerr << "pristine seed frame of kind " << frame.kind
                << " failed to decode: " << e.what() << "\n";
      return 1;
    }
  }

  hdtest::util::Rng rng(seed);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const fleet::Frame& frame = frames[r % frames.size()];
    const fleet::Frame& other = frames[rng.uniform_u64(frames.size())];
    const auto body = mutate(frame.body, other.body, rng);
    // Mostly keep the kind; sometimes route the body to another decoder.
    const std::uint16_t kind =
        rng.uniform_u64(8) == 0 ? other.kind : frame.kind;
    auto bytes = fleet::encode_frame(kind, body);
    if (rng.uniform_u64(16) == 0) {
      // Occasionally damage the sealed frame itself, so the framing
      // rejects (magic, version, checksums, length) run under the same
      // sanitizers.
      bytes[rng.uniform_u64(bytes.size())] ^= 0x5a;
    }
    probe(bytes);
  }
  if (g_tally.decoded == 0 || g_tally.rejected == 0) {
    std::cerr << "mutants never reached both decoder outcomes (decoded "
              << g_tally.decoded << ", rejected " << g_tally.rejected << ")\n";
    return 1;
  }
  std::cout << "fuzzed " << rounds << " mutants over " << frames.size()
            << " seed frames (" << g_tally.decoded << " bodies decoded, "
            << g_tally.rejected << " rejected), no crash\n";
  return 0;
}

#endif  // !HDTEST_HARNESS_LIBFUZZER
