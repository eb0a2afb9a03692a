#include "fuzz/fitness.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace hdtest::fuzz {

namespace {

/// Reorders \p pool to the seeds at \p kept, in that order.
void gather_seeds(std::vector<ScoredSeed>& pool,
                  const std::vector<std::size_t>& kept) {
  std::vector<ScoredSeed> out;
  out.reserve(kept.size());
  for (const auto i : kept) out.push_back(std::move(pool[i]));
  pool = std::move(out);
}

}  // namespace

void fittest_indices(std::span<const double> fitness, std::size_t n,
                     std::vector<std::size_t>& kept) {
  kept.resize(fitness.size());
  std::iota(kept.begin(), kept.end(), std::size_t{0});
  if (fitness.size() <= n) return;
  // stable_sort keeps insertion order among equal-fitness seeds, making the
  // fuzzer fully deterministic.
  std::stable_sort(kept.begin(), kept.end(),
                   [fitness](std::size_t a, std::size_t b) {
                     return fitness[a] > fitness[b];
                   });
  kept.resize(n);
}

void random_indices(std::size_t pool_size, std::size_t n, util::Rng& rng,
                    std::vector<std::size_t>& kept) {
  if (pool_size <= n) {
    kept.resize(pool_size);
    std::iota(kept.begin(), kept.end(), std::size_t{0});
    return;
  }
  kept = rng.sample_indices(pool_size, n);
}

void keep_fittest(std::vector<ScoredSeed>& pool, std::size_t n) {
  if (pool.size() <= n) return;
  std::vector<double> fitness;
  fitness.reserve(pool.size());
  for (const auto& seed : pool) fitness.push_back(seed.fitness);
  std::vector<std::size_t> kept;
  fittest_indices(fitness, n, kept);
  gather_seeds(pool, kept);
}

void keep_random(std::vector<ScoredSeed>& pool, std::size_t n, util::Rng& rng) {
  if (pool.size() <= n) return;
  std::vector<std::size_t> kept;
  random_indices(pool.size(), n, rng, kept);
  gather_seeds(pool, kept);
}

}  // namespace hdtest::fuzz
