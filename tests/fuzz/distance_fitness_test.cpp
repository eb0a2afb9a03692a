// Tests for fuzz/distance (perturbation budget) and fuzz/fitness (seed
// selection).

#include "fuzz/distance.hpp"
#include "fuzz/fitness.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <utility>

namespace hdtest::fuzz {
namespace {

TEST(MeasurePerturbation, ComputesAllMetrics) {
  data::Image a(2, 2, 0);
  data::Image b = a;
  b(0, 0) = 255;
  b(1, 1) = 51;
  const auto p = measure_perturbation(a, b);
  EXPECT_NEAR(p.l1, 1.2, 1e-12);
  EXPECT_NEAR(p.l2, std::sqrt(1.0 + 0.04), 1e-12);
  EXPECT_NEAR(p.linf, 1.0, 1e-12);
  EXPECT_EQ(p.pixels_changed, 2u);
}

// One pass must reproduce the four reference metrics bit for bit: == on the
// doubles, over sparse and dense diffs, on an image whose pixel count is not
// a multiple of the 8-pixel compare word.
TEST(MeasurePerturbation, MatchesReferenceMetricsExactly) {
  util::Rng rng(2024);
  for (const auto& [width, height] :
       {std::pair<std::size_t, std::size_t>{28, 28}, {13, 7}}) {
    for (int trial = 0; trial < 200; ++trial) {
      data::Image original(width, height, 0);
      for (auto& px : original.pixels()) {
        px = static_cast<std::uint8_t>(rng.uniform_u64(256));
      }
      data::Image mutant = original;
      const std::size_t pixels = original.size();
      // Even trials are sparse (a few pixels), odd ones dense (most pixels).
      const std::size_t changes =
          trial % 2 == 0 ? 1 + rng.uniform_u64(24) : pixels;
      for (std::size_t c = 0; c < changes; ++c) {
        mutant.pixels()[rng.uniform_u64(pixels)] =
            static_cast<std::uint8_t>(rng.uniform_u64(256));
      }
      const auto p = measure_perturbation(original, mutant);
      EXPECT_EQ(p.l1, data::l1_distance(original, mutant));
      EXPECT_EQ(p.l2, data::l2_distance(original, mutant));
      EXPECT_EQ(p.linf, data::linf_distance(original, mutant));
      EXPECT_EQ(p.pixels_changed, original.count_diff(mutant));
    }
  }
  EXPECT_THROW((void)measure_perturbation(data::Image(3, 3, 0),
                                          data::Image(3, 4, 0)),
               std::invalid_argument);
}

TEST(MeasurePerturbation, IdenticalImagesAreZero) {
  const data::Image a(3, 3, 42);
  const auto p = measure_perturbation(a, a);
  EXPECT_EQ(p.l1, 0.0);
  EXPECT_EQ(p.l2, 0.0);
  EXPECT_EQ(p.linf, 0.0);
  EXPECT_EQ(p.pixels_changed, 0u);
}

TEST(PerturbationBudget, DefaultEnforcesPaperL2Limit) {
  const PerturbationBudget budget;
  Perturbation p;
  p.l2 = 0.99;
  EXPECT_TRUE(budget.accepts(p));
  p.l2 = 1.01;
  EXPECT_FALSE(budget.accepts(p));
}

TEST(PerturbationBudget, EachLimitIsEnforcedIndependently) {
  PerturbationBudget budget;
  budget.max_l1 = 2.0;
  budget.max_l2 = 1.0;
  budget.max_linf = 0.5;
  budget.max_pixels_changed = 10;

  Perturbation ok{1.0, 0.5, 0.2, 5};
  EXPECT_TRUE(budget.accepts(ok));

  auto p = ok;
  p.l1 = 3.0;
  EXPECT_FALSE(budget.accepts(p));
  p = ok;
  p.l2 = 1.5;
  EXPECT_FALSE(budget.accepts(p));
  p = ok;
  p.linf = 0.6;
  EXPECT_FALSE(budget.accepts(p));
  p = ok;
  p.pixels_changed = 11;
  EXPECT_FALSE(budget.accepts(p));
}

TEST(PerturbationBudget, BoundaryValuesAreAccepted) {
  PerturbationBudget budget;
  budget.max_l2 = 1.0;
  Perturbation p;
  p.l2 = 1.0;
  EXPECT_TRUE(budget.accepts(p));  // limits are inclusive
}

TEST(PerturbationBudget, UnlimitedAcceptsEverything) {
  const auto budget = PerturbationBudget::unlimited();
  Perturbation huge{1e9, 1e9, 1.0, 1000000};
  EXPECT_TRUE(budget.accepts(huge));
  EXPECT_EQ(budget.to_string(), "unlimited");
}

TEST(PerturbationBudget, ToStringListsEnabledLimits) {
  PerturbationBudget budget;
  budget.max_l1 = 2.5;
  const auto text = budget.to_string();
  EXPECT_NE(text.find("L1<=2.5"), std::string::npos);
  EXPECT_NE(text.find("L2<=1"), std::string::npos);
}

TEST(DefaultBudgetForStrategy, ShiftIsUnlimitedOthersDefault) {
  EXPECT_FALSE(default_budget_for_strategy("shift").max_l2.has_value());
  EXPECT_FALSE(default_budget_for_strategy("gauss+shift").max_l2.has_value());
  EXPECT_TRUE(default_budget_for_strategy("gauss").max_l2.has_value());
  EXPECT_TRUE(default_budget_for_strategy("rand").max_l2.has_value());
  EXPECT_TRUE(default_budget_for_strategy("row_col_rand").max_l2.has_value());
}

ScoredSeed seed_with_fitness(double fitness, std::uint8_t tag = 0) {
  return ScoredSeed{data::Image(2, 2, tag), fitness};
}

TEST(KeepFittest, KeepsTopNInDescendingOrder) {
  std::vector<ScoredSeed> pool{
      seed_with_fitness(0.1, 1), seed_with_fitness(0.9, 2),
      seed_with_fitness(0.5, 3), seed_with_fitness(0.7, 4)};
  keep_fittest(pool, 2);
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_DOUBLE_EQ(pool[0].fitness, 0.9);
  EXPECT_DOUBLE_EQ(pool[1].fitness, 0.7);
}

TEST(KeepFittest, NoOpWhenPoolFits) {
  std::vector<ScoredSeed> pool{seed_with_fitness(0.1), seed_with_fitness(0.2)};
  keep_fittest(pool, 5);
  EXPECT_EQ(pool.size(), 2u);
  // Order untouched.
  EXPECT_DOUBLE_EQ(pool[0].fitness, 0.1);
}

TEST(KeepFittest, StableForEqualFitness) {
  std::vector<ScoredSeed> pool{
      seed_with_fitness(0.5, 1), seed_with_fitness(0.5, 2),
      seed_with_fitness(0.5, 3)};
  keep_fittest(pool, 2);
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool[0].image(0, 0), 1);  // insertion order preserved
  EXPECT_EQ(pool[1].image(0, 0), 2);
}

TEST(KeepRandom, KeepsExactlyNFromPool) {
  std::vector<ScoredSeed> pool;
  for (std::uint8_t i = 0; i < 10; ++i) pool.push_back(seed_with_fitness(0.0, i));
  util::Rng rng(1);
  keep_random(pool, 4, rng);
  ASSERT_EQ(pool.size(), 4u);
  std::set<int> tags;
  for (const auto& s : pool) tags.insert(s.image(0, 0));
  EXPECT_EQ(tags.size(), 4u);  // distinct members of the original pool
  for (const auto tag : tags) EXPECT_LT(tag, 10);
}

TEST(KeepRandom, NoOpWhenPoolFits) {
  std::vector<ScoredSeed> pool{seed_with_fitness(0.3)};
  util::Rng rng(2);
  keep_random(pool, 3, rng);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(KeepRandom, IndexFormDrawsOnlyWhenThePoolOverflows) {
  util::Rng used(5);
  util::Rng fresh(5);
  std::vector<std::size_t> kept;
  random_indices(3, 3, used, kept);
  EXPECT_EQ(kept, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(used.next_u64(), fresh.next_u64());
}

TEST(KeepRandom, SelectionVariesWithRng) {
  std::vector<ScoredSeed> base;
  for (std::uint8_t i = 0; i < 20; ++i) base.push_back(seed_with_fitness(0.0, i));
  auto pool_a = base;
  auto pool_b = base;
  util::Rng ra(3);
  util::Rng rb(4);
  keep_random(pool_a, 5, ra);
  keep_random(pool_b, 5, rb);
  std::multiset<int> tags_a;
  std::multiset<int> tags_b;
  for (const auto& s : pool_a) tags_a.insert(s.image(0, 0));
  for (const auto& s : pool_b) tags_b.insert(s.image(0, 0));
  EXPECT_NE(tags_a, tags_b);
}

}  // namespace
}  // namespace hdtest::fuzz
