#pragma once
/// \file schedule.hpp
/// Energy-scheduled population fuzzing (AFL-style, adapted to HDTest).
///
/// The paper's campaign fuzzes each input independently with a fixed
/// iteration budget. AFL — the paper's canonical fuzzing citation — instead
/// keeps a *queue* of inputs and assigns each a time-varying *energy*
/// (mutation budget) based on how promising it looks. This module adapts
/// that idea: the population scheduler maintains per-input state and spends
/// each round's energy on the inputs most likely to yield new adversarial
/// findings, using signals HDTest already computes:
///
///   - clean similarity margin (thin margin = near a boundary = promising);
///   - observed best fitness so far (drifting away from the reference);
///   - diminishing returns (rounds already spent without a finding).
///
/// Compared to the fixed sweep, the scheduler finds more adversarials under
/// the same total query budget when the population has a vulnerability
/// skew — which section V-B shows it does (bench: schedule_ablation).
///
/// A round is Fuzzer's GenerationStep and judge, resumed from the entry's
/// best seed and stopped by the round's encode budget instead of iter_times.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "fuzz/fuzzer.hpp"
#include "hdc/classifier.hpp"

namespace hdtest::fuzz {

/// Scheduler options.
struct ScheduleConfig {
  /// Total model-query budget for the whole population (the unit of cost
  /// shared with FuzzOutcome::encodes).
  std::size_t total_encodes = 20000;

  /// Queries spent on one input per scheduling round.
  std::size_t round_encodes = 200;

  /// Seeds generated per iteration within a round (as FuzzConfig).
  FuzzConfig fuzz;

  /// Exploration constant: probability of picking a uniformly random
  /// pending input instead of the highest-priority one (avoids starvation).
  double explore = 0.1;

  /// Worker threads for the queue warm-up (per-input margins, reference
  /// labels, and baseline fitness — one full encode each). The scheduling
  /// loop itself stays sequential (it is adaptive by design); results are
  /// identical for any worker count.
  std::size_t workers = 1;

  std::uint64_t seed = 0x5c4edULL;

  void validate() const;
};

/// Per-input scheduling state (exposed for reporting and tests).
struct QueueEntry {
  std::size_t image_index = 0;
  bool solved = false;           ///< adversarial already found
  double margin = 0.0;           ///< clean top1-top2 similarity margin
  double best_fitness = 0.0;     ///< best seed fitness observed so far
  std::size_t rounds = 0;        ///< scheduling rounds spent
  std::size_t encodes_spent = 0; ///< queries consumed by this input
  data::Image best_seed;         ///< fittest surviving seed (resume point)
  data::Image adversarial;       ///< valid when solved
  std::size_t adversarial_label = 0;
  std::size_t reference_label = 0;

  /// Scheduling priority: thin margins and high observed fitness raise it,
  /// spent rounds decay it (1/(1+rounds)).
  [[nodiscard]] double priority() const noexcept;
};

/// Result of a scheduled campaign.
struct ScheduleResult {
  std::vector<QueueEntry> queue;   ///< final per-input state
  std::size_t total_encodes = 0;   ///< queries actually consumed
  std::size_t rounds = 0;          ///< scheduling rounds executed

  [[nodiscard]] std::size_t solved() const noexcept;
};

/// Runs the energy-scheduled campaign over \p inputs.
[[nodiscard]] ScheduleResult run_scheduled_campaign(
    const hdc::HdcClassifier& model, const MutationStrategy& strategy,
    const data::Dataset& inputs, const ScheduleConfig& config);

}  // namespace hdtest::fuzz
