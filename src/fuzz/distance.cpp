#include "fuzz/distance.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace hdtest::fuzz {

Perturbation measure_perturbation(const data::Image& original,
                                  const data::Image& mutant) {
  if (original.width() != mutant.width() ||
      original.height() != mutant.height()) {
    throw std::invalid_argument("measure_perturbation: dimension mismatch");
  }
  // One pass for all four metrics, bit-identical to l1/l2/linf_distance and
  // count_diff: L1, Linf and the count are exact integers normalized once,
  // and L2 keeps their per-pixel (d / 255.0)^2 summed in index order. Words
  // with no changed pixel are skipped; inside a visited word an equal pixel
  // adds +0.0, which leaves the sum unchanged.
  const auto pa = original.pixels();
  const auto pb = mutant.pixels();
  std::uint64_t abs_sum = 0;
  int worst = 0;
  std::size_t changed = 0;
  double square_sum = 0.0;
  data::for_each_unequal_word(pa, pb, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const int d = static_cast<int>(pa[i]) - static_cast<int>(pb[i]);
      const int magnitude = std::abs(d);
      abs_sum += static_cast<std::uint64_t>(magnitude);
      worst = std::max(worst, magnitude);
      changed += d != 0;
      const double scaled = d / static_cast<double>(data::kMaxPixel);
      square_sum += scaled * scaled;
    }
  });
  Perturbation p;
  p.l1 = static_cast<double>(abs_sum) / data::kMaxPixel;
  p.l2 = std::sqrt(square_sum);
  p.linf = static_cast<double>(worst) / data::kMaxPixel;
  p.pixels_changed = changed;
  return p;
}

bool PerturbationBudget::accepts(const Perturbation& p) const noexcept {
  if (max_l1 && p.l1 > *max_l1) return false;
  if (max_l2 && p.l2 > *max_l2) return false;
  if (max_linf && p.linf > *max_linf) return false;
  if (max_pixels_changed && p.pixels_changed > *max_pixels_changed) return false;
  return true;
}

PerturbationBudget PerturbationBudget::unlimited() noexcept {
  PerturbationBudget budget;
  budget.max_l2.reset();
  return budget;
}

PerturbationBudget default_budget_for_strategy(
    const std::string& strategy_name) {
  // Composites containing shift inherit the unlimited budget too.
  if (strategy_name.find("shift") != std::string::npos) {
    return PerturbationBudget::unlimited();
  }
  return PerturbationBudget{};
}

std::string PerturbationBudget::to_string() const {
  std::ostringstream os;
  os.precision(3);
  bool any = false;
  const auto emit = [&](const char* name, const auto& limit) {
    if (!limit) return;
    if (any) os << ", ";
    os << name << "<=" << *limit;
    any = true;
  };
  emit("L1", max_l1);
  emit("L2", max_l2);
  emit("Linf", max_linf);
  emit("pixels", max_pixels_changed);
  return any ? os.str() : "unlimited";
}

}  // namespace hdtest::fuzz
