// Fuzz harness for the model deserializers: load_model (stream path) and
// MappedModel (mmap path). Both parse attacker-controllable bytes, so the
// contract under test is "any byte sequence either loads or throws" — no
// crash, no sanitizer finding, no unbounded allocation.
//
// Two build modes share this file:
//
//   * libFuzzer (clang, -DHDTEST_LIBFUZZER=ON): LLVMFuzzerTestOneInput is
//     the entry point; seed the corpus with the stored and remat model files
//     this binary writes when run with --emit-corpus DIR.
//   * standalone (default; works under GCC, which ships no libFuzzer): main()
//     generates the two seed artifacts from a tiny trained model, then
//     runs a deterministic bounded mutation loop (util::Rng, fixed seed)
//     over them. This is what ctest runs, so the ASan/UBSan CI legs police
//     the deserializers on every push.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "data/synthetic_digits.hpp"
#include "hdc/classifier.hpp"
#include "hdc/serialize.hpp"
#include "util/rng.hpp"

namespace {

/// One fuzz probe: both deserializers over one byte buffer. Any outcome
/// other than a clean load or a typed exception is a bug the sanitizers
/// will surface.
void probe(const std::uint8_t* data, std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  {
    std::istringstream in(bytes);
    try {
      const hdtest::hdc::HdcClassifier model = hdtest::hdc::load_model(in);
      (void)model.num_classes();
    } catch (const std::exception&) {
      // Malformed input throwing is the contract.
    }
  }
#if defined(__linux__)
  // MappedModel wants a path; memfd keeps the round-trip in memory.
  const int fd = memfd_create("hdtest-fuzz-model", 0);
  if (fd >= 0) {
    std::size_t written = 0;
    while (written < size) {
      const ssize_t n = write(fd, data + written, size - written);
      if (n <= 0) break;
      written += static_cast<std::size_t>(n);
    }
    if (written == size) {
      try {
        const hdtest::hdc::MappedModel mapped("/proc/self/fd/" +
                                              std::to_string(fd));
        (void)mapped.num_classes();
      } catch (const std::exception&) {
      }
    }
    close(fd);
  }
#endif
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  probe(data, size);
  return 0;
}

#if !defined(HDTEST_HARNESS_LIBFUZZER)

namespace {

/// The two layouts of one tiny trained model — stored codebook mirrors, and
/// remat (mirrors dropped, flag bit and digest section present) — so every
/// build fuzzes both sets of section-presence rules, whatever the process's
/// HDTEST_CODEBOOK default. Realistic headers, section tables, and checksums
/// for the mutator to break.
std::vector<std::string> make_seed_corpus() {
  const auto dataset = hdtest::data::make_digit_dataset(4, /*seed=*/17);
  std::vector<std::string> corpus;
  for (const auto mode : {hdtest::hdc::CodebookMode::kStored,
                          hdtest::hdc::CodebookMode::kRemat}) {
    hdtest::hdc::ModelConfig config;
    config.dim = 512;  // small but structurally complete
    config.codebook = mode;
    hdtest::hdc::HdcClassifier model(config, 28, 28, 10);
    model.fit(dataset);
    std::ostringstream out;
    hdtest::hdc::save_model(model, out);
    corpus.push_back(out.str());
  }
  return corpus;
}

std::string mutate(const std::string& seed, hdtest::util::Rng& rng) {
  std::string bytes = seed;
  switch (rng.uniform_u64(6)) {
    case 0: {  // flip one bit
      if (bytes.empty()) break;
      const std::size_t at = rng.uniform_u64(bytes.size());
      bytes[at] = static_cast<char>(
          static_cast<unsigned char>(bytes[at]) ^ (1u << rng.uniform_u64(8)));
      break;
    }
    case 1: {  // overwrite a u32-sized field with a hostile value
      if (bytes.size() < 4) break;
      const std::size_t at = rng.uniform_u64(bytes.size() - 3);
      const std::uint32_t hostile[] = {0u, 0xFFFFFFFFu, 0x7FFFFFFFu,
                                       0x80000000u, 1u << 30};
      const std::uint32_t value = hostile[rng.uniform_u64(5)];
      std::memcpy(bytes.data() + at, &value, sizeof value);
      break;
    }
    case 2:  // truncate
      bytes.resize(rng.uniform_u64(bytes.size() + 1));
      break;
    case 3: {  // extend with noise
      const std::size_t extra = rng.uniform_u64(256) + 1;
      for (std::size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<char>(rng.uniform_u64(256)));
      }
      break;
    }
    case 4: {  // corrupt a whole aligned run (section table / header field)
      if (bytes.size() < 32) break;
      const std::size_t at = rng.uniform_u64(bytes.size() - 31);
      for (std::size_t i = 0; i < 32; ++i) {
        bytes[at + i] = static_cast<char>(rng.uniform_u64(256));
      }
      break;
    }
    default: {  // splice the head of one version onto the tail of another
      const std::size_t cut = rng.uniform_u64(bytes.size() + 1);
      bytes = bytes.substr(0, cut) + seed.substr(seed.size() - cut);
      break;
    }
  }
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t rounds = 2000;
  std::uint64_t seed = 0x48445446555a5aULL;  // "HDTFUZZ"
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

  // File arguments: replay mode (libFuzzer crash reproducers, corpus dirs
  // are passed as individual files).
  for (const auto& path : inputs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "cannot read " << path << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    probe(reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  }
  if (!inputs.empty()) {
    std::cout << "replayed " << inputs.size() << " inputs, no crash\n";
    return 0;
  }

  const auto corpus = make_seed_corpus();
  if (!emit_dir.empty()) {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const std::string path =
          emit_dir + (i == 0 ? "/seed_stored" : "/seed_remat");
      std::ofstream out(path, std::ios::binary);
      out.write(corpus[i].data(),
                static_cast<std::streamsize>(corpus[i].size()));
    }
    std::cout << "wrote " << corpus.size() << " seeds to " << emit_dir << "\n";
    return 0;
  }

  // The pristine artifacts must load; check them first so a serializer
  // regression fails loudly rather than hiding among mutants (probe()
  // swallows exceptions by design).
  for (const auto& artifact : corpus) {
    std::istringstream in(artifact);
    try {
      (void)hdtest::hdc::load_model(in);
    } catch (const std::exception& e) {
      std::cerr << "pristine seed artifact failed to load: " << e.what()
                << "\n";
      return 1;
    }
    probe(reinterpret_cast<const std::uint8_t*>(artifact.data()),
          artifact.size());
  }
  hdtest::util::Rng rng(seed);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::string mutant = mutate(corpus[r % corpus.size()], rng);
    probe(reinterpret_cast<const std::uint8_t*>(mutant.data()),
          mutant.size());
  }
  std::cout << "fuzzed " << rounds << " mutants over " << corpus.size()
            << " seed artifacts, no crash\n";
  return 0;
}

#endif  // !HDTEST_HARNESS_LIBFUZZER
