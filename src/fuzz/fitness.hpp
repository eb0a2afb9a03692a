#pragma once
/// \file fitness.hpp
/// Distance-guided seed selection (paper section IV).
///
/// fitness(seed) = 1 - Cosim(AM[y], HDC(seed))
///
/// where y is the reference label of the *original* input and HDC(seed) is
/// the query hypervector of the mutated seed. Higher fitness = the seed has
/// drifted further from the reference class in hyperdimensional space =
/// higher chance the next mutation flips the prediction. Only the top-N
/// fittest seeds survive each fuzzing iteration (paper N = 3).

#include <cstddef>
#include <span>
#include <vector>

#include "data/image.hpp"
#include "hdc/packed_assoc_memory.hpp"
#include "util/rng.hpp"

namespace hdtest::fuzz {

/// A candidate seed with its cached fitness score.
struct ScoredSeed {
  data::Image image;
  double fitness = 0.0;
};

/// The paper's fitness of an already-encoded packed query: 1 - its cosine
/// to the reference class (exact for bipolar HVs, see
/// PackedAssocMemory::similarity_to), computed from XOR+popcount.
[[nodiscard]] inline double fitness_of(const hdc::PackedAssocMemory& am,
                                       std::size_t reference_label,
                                       const hdc::PackedHv& query) {
  return 1.0 - am.similarity_to(reference_label, query);
}

/// Keeps the \p n highest-fitness seeds (stable for ties), discarding the
/// rest. No-op when the pool is already within bounds.
void keep_fittest(std::vector<ScoredSeed>& pool, std::size_t n);

/// Unguided alternative (the baseline of the paper's "12% faster" claim):
/// keeps \p n uniformly random seeds from the pool.
void keep_random(std::vector<ScoredSeed>& pool, std::size_t n, util::Rng& rng);

/// The pool indices keep_fittest keeps, in the order it keeps them, for
/// callers that carry per-seed state beside the pool: a stable sort by
/// descending fitness cut to \p n, or every index in order when the pool
/// already fits.
void fittest_indices(std::span<const double> fitness, std::size_t n,
                     std::vector<std::size_t>& kept);

/// The pool indices keep_random keeps, in its order; draws from \p rng
/// exactly when keep_random would.
void random_indices(std::size_t pool_size, std::size_t n, util::Rng& rng,
                    std::vector<std::size_t>& kept);

}  // namespace hdtest::fuzz
