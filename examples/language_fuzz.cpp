/// \file language_fuzz.cpp
/// Section V-E of the paper argues HDTest "can be naturally extended to
/// other HDC model structures because it considers a general greybox
/// assumption with only HV distance information". This example demonstrates
/// exactly that: the same differential, distance-guided loop fuzzing an
/// n-gram *text* classifier (language identification, the canonical non-
/// image HDC task from Rahimi et al., ISLPED'16).
///
/// Everything the image pipeline used carries over one-to-one:
///   mutation    pixel noise        -> random character substitutions
///   budget      normalized L2      -> edit-fraction cap
///   fitness     1 - cos(AM[y], q)  -> identical (only HV distances!)
///   oracle      label(mutant) != label(original) — unchanged.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "data/text_corpus.hpp"
#include "hdc/assoc_memory.hpp"
#include "hdc/encoder.hpp"
#include "util/argparse.hpp"
#include "util/stats.hpp"

namespace {

using namespace hdtest;

/// Minimal HDC language classifier: n-gram encoder + associative memory.
class LanguageClassifier {
 public:
  LanguageClassifier(const hdc::ModelConfig& config, std::size_t num_classes,
                     std::size_t ngram)
      : encoder_(config, data::SyntheticLanguage::alphabet(), ngram),
        am_(num_classes, config.dim, config.seed) {}

  void fit(const data::TextDataset& train) {
    for (const auto& sample : train.samples) {
      am_.add(static_cast<std::size_t>(sample.label),
              encoder_.encode(sample.text));
    }
    am_.finalize();
  }

  [[nodiscard]] std::size_t predict(const std::string& text) const {
    return am_.predict(encoder_.encode(text));
  }

  [[nodiscard]] double fitness(std::size_t reference,
                               const std::string& text) const {
    return 1.0 - am_.similarity_to(reference, encoder_.encode(text));
  }

  [[nodiscard]] double accuracy(const data::TextDataset& test) const {
    std::size_t correct = 0;
    for (const auto& sample : test.samples) {
      correct += predict(sample.text) ==
                 static_cast<std::size_t>(sample.label);
    }
    return test.size() == 0
               ? 0.0
               : static_cast<double>(correct) / static_cast<double>(test.size());
  }

 private:
  hdc::NGramTextEncoder encoder_;
  hdc::AssociativeMemory am_;
};

/// Text mutation: substitute k random characters with random alphabet chars.
std::string mutate_text(const std::string& seed, std::size_t k,
                        util::Rng& rng) {
  std::string out = seed;
  const auto& alphabet = data::SyntheticLanguage::alphabet();
  for (std::size_t i = 0; i < k && !out.empty(); ++i) {
    const auto pos = static_cast<std::size_t>(rng.uniform_u64(out.size()));
    out[pos] = alphabet[static_cast<std::size_t>(
        rng.uniform_u64(alphabet.size()))];
  }
  return out;
}

/// Fraction of characters differing from the original (the text analogue of
/// the normalized pixel distance).
double edit_fraction(const std::string& a, const std::string& b) {
  std::size_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff += a[i] != b[i];
  return a.empty() ? 0.0 : static_cast<double>(diff) / static_cast<double>(a.size());
}

struct TextFuzzOutcome {
  bool success = false;
  std::string adversarial;
  std::size_t iterations = 0;
  double edit_frac = 0.0;
};

/// Algorithm 1, verbatim, over strings.
TextFuzzOutcome fuzz_text(const LanguageClassifier& model,
                          const std::string& input, double max_edit_fraction,
                          util::Rng& rng) {
  constexpr std::size_t kIterTimes = 30;
  constexpr std::size_t kSeedsPerIter = 10;
  constexpr std::size_t kTopN = 3;

  TextFuzzOutcome outcome;
  const auto reference = model.predict(input);

  struct Scored {
    std::string text;
    double fitness;
  };
  std::vector<Scored> parents{{input, model.fitness(reference, input)}};

  for (std::size_t iter = 0; iter < kIterTimes; ++iter) {
    ++outcome.iterations;
    std::vector<Scored> candidates;
    for (std::size_t s = 0; s < kSeedsPerIter; ++s) {
      const auto& parent = parents[s % parents.size()].text;
      auto mutant = mutate_text(parent, 2, rng);
      if (edit_fraction(input, mutant) > max_edit_fraction) continue;  // budget
      if (model.predict(mutant) != reference) {                        // oracle
        outcome.success = true;
        outcome.edit_frac = edit_fraction(input, mutant);
        outcome.adversarial = std::move(mutant);
        return outcome;
      }
      const double fitness = model.fitness(reference, mutant);  // guidance
      candidates.push_back(Scored{std::move(mutant), fitness});
    }
    for (auto& parent : parents) candidates.push_back(std::move(parent));
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Scored& a, const Scored& b) {
                       return a.fitness > b.fitness;
                     });
    if (candidates.size() > kTopN) candidates.resize(kTopN);
    parents = std::move(candidates);
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("language_fuzz",
                       "HDTest on an n-gram language-ID model (paper V-E)");
  args.add_flag("dim", "4096", "Hypervector dimensionality");
  args.add_flag("languages", "4", "Number of synthetic languages");
  args.add_flag("ngram", "3", "n-gram order");
  args.add_flag("texts", "40", "Texts to fuzz");
  args.add_flag("max-edit", "0.15",
                "Perturbation budget: max fraction of characters edited");
  args.add_flag("seed", "42", "Experiment seed");
  // Every flag is read and converted before any work, so a malformed value
  // exits 1 with one error line.
  std::uint64_t seed = 0;
  int languages = 0;
  std::size_t ngram = 0;
  std::uint64_t texts = 0;
  double max_edit = 0.0;
  hdc::ModelConfig config;
  try {
    args.parse(argc, argv);
    if (args.help_requested()) {
      std::cout << args.usage();
      return 0;
    }
    seed = args.get_u64("seed");
    languages = static_cast<int>(args.get_u64("languages"));
    ngram = args.get_u64("ngram");
    texts = args.get_u64("texts");
    max_edit = args.get_double("max-edit");
    config.dim = args.get_u64("dim");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  // Same languages (seed), disjoint sample streams (salt 0 vs 1).
  const auto train =
      data::make_text_dataset(languages, 50, 200, seed, 3.0, /*salt=*/0);
  const auto test =
      data::make_text_dataset(languages, 20, 200, seed, 3.0, /*salt=*/1);

  config.seed = seed;
  LanguageClassifier model(config, static_cast<std::size_t>(languages), ngram);
  model.fit(train);
  std::printf("language model: %d languages, %zu-gram, accuracy %.1f%%\n",
              languages, ngram, 100.0 * model.accuracy(test));

  util::Rng rng(seed);
  util::RunningStats iterations;
  util::RunningStats edits;
  std::size_t successes = 0;
  const auto count = std::min<std::size_t>(texts, test.size());
  std::string first_original;
  std::string first_adversarial;
  for (std::size_t i = 0; i < count; ++i) {
    const auto outcome = fuzz_text(model, test.samples[i].text, max_edit, rng);
    iterations.add(static_cast<double>(outcome.iterations));
    if (outcome.success) {
      ++successes;
      edits.add(outcome.edit_frac);
      if (first_adversarial.empty()) {
        first_original = test.samples[i].text;
        first_adversarial = outcome.adversarial;
      }
    }
  }

  std::printf(
      "fuzzed %zu texts: %zu adversarial (%.0f%%), avg %.2f iterations, "
      "avg %.1f%% of characters edited\n",
      count, successes,
      100.0 * static_cast<double>(successes) / static_cast<double>(count),
      iterations.mean(), 100.0 * edits.mean());

  if (!first_adversarial.empty()) {
    std::printf("\nexample finding (prediction flipped):\n  original:    %.60s...\n  adversarial: %.60s...\n",
                first_original.c_str(), first_adversarial.c_str());
  }
  std::printf(
      "\nsame loop, same fitness, same oracle as the image pipeline — only\n"
      "the encoder and mutation operator changed (paper section V-E).\n");
  return 0;
}
