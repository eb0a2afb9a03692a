#pragma once
/// \file coverage.hpp
/// Coverage-guided fuzzing in hypervector space.
///
/// The paper's related work highlights TensorFuzz (Odena et al., ICML'19),
/// which guides DNN fuzzing by *coverage*: a mutant is interesting when its
/// activation vector is far from everything seen before (approximate nearest
/// neighbors). HDC gives this idea an unusually clean home — the query
/// hypervector *is* the model's internal representation, and cosine distance
/// is the native metric. This module implements that extension:
///
///  - NoveltyArchive: a corpus of query HVs seen so far; novelty(q) is the
///    distance of q to its nearest archive member; mutants above a threshold
///    are added (they "covered" new representation space).
///  - CoverageFuzzer: Algorithm 1 with a blended objective
///        score = (1 - w) * fitness + w * novelty
///    so seeds that explore new HV-space survive even when their class
///    similarity has not (yet) dropped — escaping the local plateaus that
///    pure distance guidance can stall on. It is Fuzzer's GenerationStep
///    and judge with novelty blended into the fitness, so w = 0 reproduces
///    Fuzzer's outcomes exactly.
///
/// bench/coverage_ablation quantifies the effect against the paper's pure
/// distance guidance.

#include <cstddef>
#include <vector>

#include "data/image.hpp"
#include "fuzz/fuzzer.hpp"
#include "hdc/classifier.hpp"
#include "hdc/packed_hv.hpp"

namespace hdtest::fuzz {

/// A corpus of observed query hypervectors with nearest-neighbor novelty.
///
/// HVs are stored bit-packed, so lookups are popcount-bound: a 10k-D archive
/// of thousands of entries scans in microseconds.
class NoveltyArchive {
 public:
  /// \param add_threshold minimum novelty (cosine distance in [0, 2]) for a
  ///        query to be archived. \pre in [0, 2].
  /// \param max_size archive capacity; 0 = unbounded. When full, new
  ///        entries stop being added (novelty is still measured).
  explicit NoveltyArchive(double add_threshold = 0.05, std::size_t max_size = 0);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] double add_threshold() const noexcept { return add_threshold_; }

  /// Cosine distance (1 - cosine similarity) of \p query to its nearest
  /// archived neighbor; returns 2.0 (max) for an empty archive.
  [[nodiscard]] double novelty(const hdc::PackedHv& query) const;

  /// Measures novelty and archives the query if it clears the threshold
  /// (and capacity allows). Returns the novelty measured *before* insertion.
  double observe(const hdc::PackedHv& query);

  /// Archives a query regardless of novelty (seeding the corpus).
  void add(const hdc::PackedHv& query);

 private:
  double add_threshold_;
  std::size_t max_size_;
  std::vector<hdc::PackedHv> entries_;
};

/// Result of a coverage-guided fuzzing run (superset of FuzzOutcome).
struct CoverageOutcome {
  FuzzOutcome base;
  std::size_t archive_growth = 0;  ///< archive entries added during the run
};

/// Algorithm 1 with the blended fitness/novelty objective.
///
/// Thread-safety: unlike Fuzzer, each CoverageFuzzer carries a mutable
/// archive; use one instance per thread (or share inputs sequentially).
class CoverageFuzzer {
 public:
  /// \param novelty_weight w in [0, 1]: 0 = pure paper guidance, 1 = pure
  ///        novelty search. \throws std::invalid_argument outside [0, 1].
  CoverageFuzzer(const hdc::HdcClassifier& model,
                 const MutationStrategy& strategy, FuzzConfig config,
                 double novelty_weight = 0.3, double archive_threshold = 0.05);

  /// Runs the blended-objective loop on one input. The archive persists
  /// across calls, so later inputs benefit from earlier exploration.
  [[nodiscard]] CoverageOutcome fuzz_one(const data::Image& input,
                                         util::Rng& rng);

  [[nodiscard]] const NoveltyArchive& archive() const noexcept {
    return archive_;
  }

 private:
  const hdc::HdcClassifier* model_;
  const MutationStrategy* strategy_;
  FuzzConfig config_;
  double novelty_weight_;
  NoveltyArchive archive_;
};

}  // namespace hdtest::fuzz
