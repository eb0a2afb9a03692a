#include "fuzz/schedule.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "fuzz/fitness.hpp"
#include "fuzz/vulnerability.hpp"
#include "util/thread_pool.hpp"

namespace hdtest::fuzz {

void ScheduleConfig::validate() const {
  fuzz.validate();
  if (total_encodes == 0) {
    throw std::invalid_argument("ScheduleConfig: total_encodes must be >= 1");
  }
  if (round_encodes == 0 || round_encodes > total_encodes) {
    throw std::invalid_argument(
        "ScheduleConfig: round_encodes must be in [1, total_encodes]");
  }
  if (explore < 0.0 || explore > 1.0) {
    throw std::invalid_argument("ScheduleConfig: explore must be in [0, 1]");
  }
  if (workers == 0) {
    throw std::invalid_argument("ScheduleConfig: workers must be >= 1");
  }
}

double QueueEntry::priority() const noexcept {
  // Thin margin -> high urgency; high best fitness -> mutation pressure is
  // working; rounds spent -> diminishing returns.
  const double margin_term = 1.0 / (1.0 + 50.0 * margin);
  const double fitness_term = best_fitness;
  return (0.6 * margin_term + 0.4 * fitness_term) /
         (1.0 + static_cast<double>(rounds));
}

std::size_t ScheduleResult::solved() const noexcept {
  std::size_t count = 0;
  for (const auto& entry : queue) count += entry.solved;
  return count;
}

namespace {

/// Spends ~budget encodes fuzzing one queue entry, resuming from its best
/// surviving seed: Fuzzer's loop and judge, stopped by the encode budget
/// instead of iter_times. Returns encodes actually consumed.
std::size_t fuzz_round(const hdc::HdcClassifier& model,
                       const MutationStrategy& strategy,
                       const FuzzConfig& config, const data::Image& original,
                       QueueEntry& entry, std::size_t budget, util::Rng& rng) {
  GenerationStep generation(strategy, config, original,
                            ScoredSeed{entry.best_seed, entry.best_fitness});
  generation.add_model(model.encoder(),
                       make_seed_context(model, original).base_acc);
  const auto& packed_am = model.am().packed();
  const auto judge = [&](const GenerationStep& step,
                         std::span<double> fitness) {
    return judge_against_reference(packed_am, entry.reference_label,
                                   step.queries(0), fitness,
                                   entry.adversarial_label);
  };
  FuzzOutcome round;
  while (round.encodes < budget && !generation.advance(rng, judge, round)) {
  }
  if (round.success) {
    entry.solved = true;
    entry.adversarial = std::move(round.adversarial);
  } else {
    // Persist the best seed so the next round resumes instead of
    // restarting — the scheduler's key difference from independent
    // fixed-budget runs.
    entry.best_seed = generation.parents().front().image;
    entry.best_fitness = generation.parents().front().fitness;
  }
  return round.encodes;
}

}  // namespace

ScheduleResult run_scheduled_campaign(const hdc::HdcClassifier& model,
                                      const MutationStrategy& strategy,
                                      const data::Dataset& inputs,
                                      const ScheduleConfig& config) {
  config.validate();
  if (!model.trained()) {
    throw std::logic_error("run_scheduled_campaign: model must be trained");
  }
  if (inputs.empty()) {
    throw std::invalid_argument("run_scheduled_campaign: empty input set");
  }

  ScheduleResult result;
  util::Rng rng(config.seed);

  // Initialize queue entries with clean margins and reference labels. Each
  // entry is a pure function of its input (one full encode), so the warm-up
  // parallelizes with per-slot writes — order-exact for any worker count.
  result.queue.resize(inputs.size());
  util::parallel_for(inputs.size(), config.workers, [&](std::size_t i) {
    QueueEntry entry;
    entry.image_index = i;
    entry.margin = similarity_margin(model, inputs.images[i]);
    const auto seed = make_seed_context(model, inputs.images[i]);
    entry.reference_label = seed.reference_label;
    entry.best_fitness =
        fitness_of(model.am().packed(), entry.reference_label, seed.reference);
    entry.best_seed = inputs.images[i];
    result.queue[i] = std::move(entry);
  });
  result.total_encodes += inputs.size();

  while (result.total_encodes < config.total_encodes) {
    // Pick the pending entry with the highest priority (or explore).
    std::size_t pick = result.queue.size();
    if (rng.bernoulli(config.explore)) {
      // Uniform choice among pending entries.
      std::vector<std::size_t> pending;
      for (std::size_t i = 0; i < result.queue.size(); ++i) {
        if (!result.queue[i].solved) pending.push_back(i);
      }
      if (!pending.empty()) {
        pick = pending[static_cast<std::size_t>(
            rng.uniform_u64(pending.size()))];
      }
    } else {
      double best = -1.0;
      for (std::size_t i = 0; i < result.queue.size(); ++i) {
        if (result.queue[i].solved) continue;
        const double p = result.queue[i].priority();
        if (p > best) {
          best = p;
          pick = i;
        }
      }
    }
    if (pick == result.queue.size()) break;  // everything solved

    auto& entry = result.queue[pick];
    const std::size_t budget = std::min<std::size_t>(
        config.round_encodes, config.total_encodes - result.total_encodes);
    const auto spent =
        fuzz_round(model, strategy, config.fuzz, inputs.images[entry.image_index],
                   entry, budget, rng);
    entry.encodes_spent += spent;
    ++entry.rounds;
    result.total_encodes += spent;
    ++result.rounds;
    if (spent == 0) break;  // budget exhausted mid-round
  }
  return result;
}

}  // namespace hdtest::fuzz
