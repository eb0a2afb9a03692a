#include "replay.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "hdc/encoder.hpp"
#include "util/timer.hpp"

namespace hdbench {

namespace fz = hdtest::fuzz;
namespace hdc = hdtest::hdc;

fz::FuzzOutcome replay_fuzz_one(const fz::Fuzzer& fuzzer,
                                const hdc::HdcClassifier& model,
                                const hdtest::data::Image& input,
                                hdtest::util::Rng& rng,
                                const fz::SeedContext& seed, SpanLog& log,
                                ReplayCounts& counts) {
  const fz::FuzzConfig& config = fuzzer.config();
  if (!config.guided || !config.use_incremental_encoder) {
    throw std::invalid_argument(
        "replay_fuzz_one: only the guided incremental configuration");
  }
  const Span stream_span(log, kSpanFuzzOne);
  const hdtest::util::Stopwatch watch;
  const std::size_t pixels = input.size();
  fz::FuzzOutcome outcome;
  outcome.reference_label = seed.reference_label;
  ++outcome.encodes;

  const auto& packed_am = model.am().packed();
  hdc::IncrementalPixelEncoder delta_encoder(model.encoder());
  std::vector<fz::ScoredSeed> parents;
  {
    const Span span(log, kSpanRebase);
    delta_encoder.rebase(input, seed.base_acc);
    parents.push_back(fz::ScoredSeed{
        input,
        fz::fitness_of(packed_am, outcome.reference_label, seed.reference)});
  }

  std::vector<hdtest::data::Image> batch;
  std::vector<fz::Perturbation> batch_perturbations;
  std::vector<hdc::PackedHv> batch_queries;

  for (std::size_t iter = 0; iter < config.iter_times; ++iter) {
    ++outcome.iterations;
    batch.clear();
    batch_perturbations.clear();
    for (std::size_t s = 0; s < config.seeds_per_iteration; ++s) {
      const auto& parent = parents[s % parents.size()].image;
      hdtest::data::Image mutant;
      {
        const Span span(log, kSpanMutate);
        mutant = fuzzer.strategy().mutate(parent, rng);
      }
      ++counts.mutants;
      fz::Perturbation perturbation;
      bool accepted = false;
      {
        const Span span(log, kSpanBudget);
        perturbation = fz::measure_perturbation(input, mutant);
        accepted = config.budget.accepts(perturbation);
      }
      if (!accepted) {
        ++outcome.discarded;
        ++counts.rejected;
        continue;
      }
      batch.push_back(std::move(mutant));
      batch_perturbations.push_back(perturbation);
    }

    batch_queries.clear();
    batch_queries.reserve(batch.size());
    for (const auto& mutant : batch) {
      ++outcome.encodes;
      log.open(kSpanEncodeDelta);
      batch_queries.push_back(delta_encoder.encode_mutant_packed(mutant));
      const std::size_t changed = delta_encoder.last_delta_count();
      const bool fallback = changed * 8 > pixels;
      log.close_as(fallback ? kSpanEncodeFull : kSpanEncodeDelta);
      counts.delta_pixels += changed;
      ++(fallback ? counts.full_encodes : counts.delta_encodes);
    }

    hdc::BlockSweepResult sweep;
    {
      const Span span(log, kSpanSweep);
      sweep = packed_am.predict_block(batch_queries, outcome.reference_label);
    }
    ++counts.sweeps;
    counts.sweep_queries += batch_queries.size();

    for (std::size_t b = 0; b < batch.size(); ++b) {
      if (sweep.labels[b] != outcome.reference_label) {
        outcome.success = true;
        outcome.adversarial = std::move(batch[b]);
        outcome.adversarial_label = sweep.labels[b];
        outcome.perturbation = batch_perturbations[b];
        outcome.seconds = watch.seconds();
        return outcome;
      }
    }

    const Span span(log, kSpanSelect);
    std::vector<fz::ScoredSeed> candidates;
    candidates.reserve(batch.size() + parents.size());
    for (std::size_t b = 0; b < batch.size(); ++b) {
      candidates.push_back(
          fz::ScoredSeed{std::move(batch[b]), 1.0 - sweep.ref_scores[b]});
    }
    for (auto& parent : parents) candidates.push_back(std::move(parent));
    fz::keep_fittest(candidates, config.keep_top_n);
    parents = std::move(candidates);
  }

  outcome.seconds = watch.seconds();
  return outcome;
}

}  // namespace hdbench
