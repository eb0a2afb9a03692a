#include "fuzz/minimize.hpp"

#include <stdexcept>
#include <vector>

#include "fuzz/fuzzer.hpp"

namespace hdtest::fuzz {

void MinimizeConfig::validate() const {
  if (max_passes == 0) {
    throw std::invalid_argument("MinimizeConfig: max_passes must be >= 1");
  }
}

MinimizeResult minimize_adversarial(const hdc::HdcClassifier& model,
                                    const data::Image& original,
                                    const data::Image& adversarial,
                                    const MinimizeConfig& config) {
  config.validate();
  if (original.width() != adversarial.width() ||
      original.height() != adversarial.height()) {
    throw std::invalid_argument("minimize_adversarial: shape mismatch");
  }

  MinimizeResult result;
  const auto seed = make_seed_context(model, original);
  ++result.encodes;

  // Reverts touch few pixels: probe each with the packed delta encode.
  hdc::IncrementalPixelEncoder encoder(model.encoder());
  encoder.rebase(original, seed.base_acc);

  auto is_adversarial = [&](const data::Image& candidate) {
    ++result.encodes;
    return model.am().packed().predict(encoder.encode_mutant_packed(
               candidate)) != seed.reference_label;
  };

  if (!is_adversarial(adversarial)) {
    throw std::invalid_argument(
        "minimize_adversarial: input is not adversarial under this model");
  }

  data::Image current = adversarial;
  result.pixels_before = original.count_diff(adversarial);

  // Flat indices of still-mutated pixels.
  auto changed_pixels = [&]() {
    std::vector<std::size_t> out;
    const auto po = original.pixels();
    const auto pc = current.pixels();
    for (std::size_t p = 0; p < po.size(); ++p) {
      if (po[p] != pc[p]) out.push_back(p);
    }
    return out;
  };

  // Tries to revert the pixel group [begin, end) of `pixels`; keeps the
  // revert if the image stays adversarial. Returns true on success.
  auto try_revert = [&](const std::vector<std::size_t>& pixels,
                        std::size_t begin, std::size_t end) {
    data::Image candidate = current;
    auto pc = candidate.pixels();
    const auto po = original.pixels();
    std::size_t touched = 0;
    for (std::size_t i = begin; i < end; ++i) {
      touched += pc[pixels[i]] != po[pixels[i]];
      pc[pixels[i]] = po[pixels[i]];
    }
    if (touched == 0) return false;  // group already reverted by earlier step
    if (!is_adversarial(candidate)) return false;
    result.reverted += touched;
    current = std::move(candidate);
    return true;
  };

  for (std::size_t pass = 0; pass < config.max_passes; ++pass) {
    const auto pixels = changed_pixels();
    if (pixels.empty()) break;
    bool any_reverted = false;

    // Coarse-to-fine: big blocks first, then halve. A lone pass with block
    // size 1 is plain ddmin at granularity 1.
    std::size_t block = 1;
    if (config.coarse_to_fine) {
      while (block * 2 <= pixels.size() && block < 8) block *= 2;
    }
    for (; block >= 1; block /= 2) {
      const auto snapshot = changed_pixels();
      for (std::size_t start = 0; start < snapshot.size(); start += block) {
        // Re-verify the group is still mutated (earlier reverts in this
        // sweep may have restored some of it).
        const auto end = std::min(start + block, snapshot.size());
        any_reverted |= try_revert(snapshot, start, end);
      }
      if (block == 1) break;
    }
    if (!any_reverted) break;
  }

  result.minimized = std::move(current);
  result.pixels_after = original.count_diff(result.minimized);
  result.perturbation = measure_perturbation(original, result.minimized);
  return result;
}

}  // namespace hdtest::fuzz
