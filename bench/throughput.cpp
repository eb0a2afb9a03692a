/// \file throughput.cpp
/// Reproduces the **headline claim** (abstract / section I / section V):
/// "HDTest can generate around 400 adversarial inputs within one minute
/// running on a commodity computer" and "thousands of adversarial inputs".
///
/// Runs a timed target-count campaign per strategy and reports adversarial
/// images per minute. Absolute numbers are hardware- and dimension-
/// dependent; the reproduction target is the order of magnitude (hundreds
/// per minute on commodity hardware).
///
/// Four micro sections isolate the per-mutant cost stack and gate the
/// packed kernels against the dense reference path, each repeated under
/// EVERY compiled-and-supported SIMD backend (SWAR / AVX2 / AVX-512; forced
/// via util::simd::set_kernels_for_testing, overridable process-wide with
/// HDTEST_KERNEL_BACKEND):
///   1. packed predict_batch vs per-sample dense predict (classification);
///   2. bit-sliced full-image encode vs per-pixel dense accumulation
///      (trainer / rebase / seed warm-up path);
///   3. the end-to-end mutant loop (delta encode + classify + fitness):
///      the dense-free packed pipeline vs the PR 1 steady state (dense
///      delta encode, PackedHv::from_dense re-pack, dense fitness dot);
///   4. the query-blocked AM sweep (predict_block) vs the PR 1 per-query
///      packed predict.
/// The dense / PR 1 reference sides are measured ONCE, under the forced
/// portable SWAR backend (the PR 1 pipeline was portable scalar code), and
/// shared across every backend section — so per-backend numbers differ only
/// by the kernel under test, not by thermal drift across a long run. Every
/// section doubles as a bit-exactness gate; any packed/dense or
/// cross-backend disagreement fails the binary.
///
/// A model_load section measures serving cold-start: stream load vs mmap (hdc::MappedModel, with and without the full
/// checksum sweep). It doubles as the save -> map -> predict_batch
/// round-trip gate: mapped predictions must be bit-exact with the in-memory
/// model, and the instrument counters must show zero dense->packed rebuilds
/// and zero codebook regenerations on the mapped path. Runs in --self-check
/// too (CI's Release bench smoke).
///
/// A rematerialize_crossover section compares stored codebook mirrors with
/// on-the-fly rematerialization (hdc::CodebookMode::kRemat): full-encode
/// cost, end-to-end campaign throughput, and v3 artifact bytes at
/// production dims, gated on bit-identical campaign records across the two
/// storage modes and on the remat file actually shrinking. Runs in
/// --self-check too (smaller dim, same gates).
///
/// A fifth section, campaign_scaling, measures the sharded campaign
/// runtime end to end: adversarials/minute of the target-count campaign at
/// workers 1/2/4/hw for two strategies, with a bit-exactness gate asserting
/// every worker count reproduces the workers=1 records (the shard
/// determinism contract, re-checked in an optimized build). Wall-clock
/// scaling tracks the physical core count of the box — the committed
/// baseline names it.
///
/// Flags:
///   --self-check   run only the agreement gates, on every backend, plus a
///                  small multi-worker campaign determinism gate (fast;
///                  CI's bench smoke; prints the detected backend)
///   --json=PATH    additionally write machine-readable results (the
///                  committed BENCH_throughput.json baseline, stamped with
///                  git SHA, CPU feature flags, and the active backend)

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "data/synthetic_digits.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/fleet/coordinator.hpp"
#include "fuzz/fleet/durable/durable_coordinator.hpp"
#include "fuzz/fleet/durable/storage.hpp"
#include "fuzz/fleet/protocol.hpp"
#include "fuzz/fleet/sim.hpp"
#include "fuzz/fleet/worker.hpp"
#include "fuzz/mutation.hpp"
#include "fuzz/shard/ledger.hpp"
#include "fuzz/shard/plan.hpp"
#include "fuzz/shard/seed_bank.hpp"
#include "fuzz/shard/stop_token.hpp"
#include "hdc/assoc_memory.hpp"
#include "hdc/encoder.hpp"
#include "hdc/instrument.hpp"
#include "hdc/packed_assoc_memory.hpp"
#include "hdc/packed_hv.hpp"
#include "hdc/serialize.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/argparse.hpp"
#include "util/csv.hpp"
#include "util/simd/kernels.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using hdtest::benchutil::JsonObject;

hdtest::data::Image random_image(std::size_t w, std::size_t h,
                                 std::uint64_t seed) {
  hdtest::util::Rng rng(seed);
  hdtest::data::Image img(w, h, 0);
  for (auto& px : img.pixels()) {
    px = static_cast<std::uint8_t>(rng.uniform_u64(256));
  }
  return img;
}

std::unique_ptr<hdtest::hdc::AssociativeMemory> random_am(
    std::size_t dim, std::uint64_t seed, std::size_t classes = 10) {
  using namespace hdtest;
  auto am = std::make_unique<hdc::AssociativeMemory>(classes, dim, seed);
  util::Rng rng(dim + seed);
  for (std::size_t c = 0; c < am->num_classes(); ++c) {
    am->add(c, hdc::Hypervector::random(dim, rng));
  }
  am->finalize();
  return am;
}

// ---------------------------------------------------------------------------
// Baseline fixtures: the dense / PR 1 reference side of each comparison,
// measured once (under forced SWAR — see file comment) and reused by every
// backend section.

/// Classification: per-sample dense predict (one dot per class per query).
struct InferenceBaseline {
  std::size_t dim = 0;
  std::unique_ptr<hdtest::hdc::AssociativeMemory> am;
  std::vector<hdtest::hdc::Hypervector> queries;
  std::vector<std::size_t> dense_labels;
  double dense_us = 0.0;
};

InferenceBaseline make_inference_baseline(std::size_t dim,
                                          std::size_t num_queries,
                                          std::size_t reps) {
  using namespace hdtest;
  InferenceBaseline base;
  base.dim = dim;
  // Class prototypes and queries are random bipolar HVs: the classification
  // stage only sees finalized +-1 vectors, so this is exactly the shape of
  // data the fuzz loop queries with.
  base.am = random_am(dim, /*seed=*/99);
  util::Rng rng(dim);
  base.queries.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    base.queries.push_back(hdc::Hypervector::random(dim, rng));
  }
  base.dense_labels.resize(num_queries);
  const util::Stopwatch watch;
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t q = 0; q < num_queries; ++q) {
      base.dense_labels[q] = base.am->predict(base.queries[q]);
    }
  }
  base.dense_us =
      watch.seconds() * 1e6 / static_cast<double>(num_queries * reps);
  return base;
}

/// Per-backend side: batched packed inference. Returns the speedup; clears
/// *ok on any packed/dense prediction disagreement.
double bench_packed_inference(const char* backend,
                              const InferenceBaseline& base, std::size_t reps,
                              hdtest::util::CsvWriter& csv,
                              std::vector<std::string>& json_rows, bool* ok) {
  using namespace hdtest;
  std::vector<std::size_t> packed_labels;
  const util::Stopwatch watch;
  for (std::size_t r = 0; r < reps; ++r) {
    packed_labels = base.am->packed().predict_batch(base.queries);
  }
  const double packed_us =
      watch.seconds() * 1e6 /
      static_cast<double>(base.queries.size() * reps);
  if (packed_labels != base.dense_labels) {
    std::printf("ERROR: packed/dense disagreement at dim=%zu\n", base.dim);
    *ok = false;
  }
  const double speedup = packed_us > 0.0 ? base.dense_us / packed_us : 0.0;
  std::printf("  [%s] dim=%5zu: dense %8.3f us/query, packed %8.3f us/query"
              " -> %.1fx\n",
              backend, base.dim, base.dense_us, packed_us, speedup);
  csv.row(backend, base.dim, base.dense_us, packed_us, speedup);
  json_rows.push_back(JsonObject()
                          .add("dim", static_cast<double>(base.dim))
                          .add("dense_us_per_query", base.dense_us)
                          .add("packed_us_per_query", packed_us)
                          .add("speedup", speedup)
                          .str());
  return speedup;
}

/// Full-image encode: dense per-pixel int8 accumulation + dense Eq. 1 (the
/// pre-bit-slicing trainer/rebase kernel).
struct EncodeBaseline {
  std::size_t dim = 0;
  std::unique_ptr<hdtest::hdc::PixelEncoder> enc;
  std::vector<hdtest::data::Image> images;
  std::vector<hdtest::hdc::PackedHv> expected;  ///< packed dense results
  double dense_us = 0.0;
};

EncodeBaseline make_encode_baseline(std::size_t dim, std::size_t num_images,
                                    std::size_t reps) {
  using namespace hdtest;
  EncodeBaseline base;
  base.dim = dim;
  hdc::ModelConfig config;
  config.dim = dim;
  config.seed = 7;
  // The dense reference loop below dereferences the dense codebook mirrors,
  // so this baseline must stay on stored mirrors even when the process
  // default (HDTEST_CODEBOOK) is remat; the rematerialize_crossover section
  // owns the remat measurements.
  config.codebook = hdc::CodebookMode::kStored;
  base.enc = std::make_unique<hdc::PixelEncoder>(config, 28, 28);
  base.images.reserve(num_images);
  for (std::size_t i = 0; i < num_images; ++i) {
    base.images.push_back(random_image(28, 28, dim * 1000 + i));
  }
  std::vector<hdc::Hypervector> dense_out(num_images);
  const util::Stopwatch watch;
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < num_images; ++i) {
      hdc::Accumulator acc(dim);
      const auto pixels = base.images[i].pixels();
      const auto& positions = base.enc->position_memory();
      const auto& values = base.enc->value_memory();
      for (std::size_t p = 0; p < pixels.size(); ++p) {
        acc.add_bound(positions[p],
                      values[base.enc->value_index(pixels[p])]);
      }
      dense_out[i] = acc.bipolarize(base.enc->tie_break());
    }
  }
  base.dense_us =
      watch.seconds() * 1e6 / static_cast<double>(num_images * reps);
  base.expected.reserve(num_images);
  for (const auto& hv : dense_out) {
    base.expected.push_back(hdc::PackedHv::from_dense(hv));
  }
  return base;
}

/// Per-backend side: bit-sliced packed encode. Returns the speedup; clears
/// *ok on any bit mismatch.
double bench_full_encode(const char* backend, const EncodeBaseline& base,
                         std::size_t reps, hdtest::util::CsvWriter& csv,
                         std::vector<std::string>& json_rows, bool* ok) {
  using namespace hdtest;
  std::vector<hdc::PackedHv> packed_out(base.images.size());
  const util::Stopwatch watch;
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < base.images.size(); ++i) {
      packed_out[i] = base.enc->encode_packed(base.images[i]);
    }
  }
  const double packed_us =
      watch.seconds() * 1e6 /
      static_cast<double>(base.images.size() * reps);
  if (packed_out != base.expected) {
    std::printf("ERROR: encode_packed/dense disagreement at dim=%zu\n",
                base.dim);
    *ok = false;
  }
  const double speedup = packed_us > 0.0 ? base.dense_us / packed_us : 0.0;
  std::printf("  [%s] dim=%5zu: dense %9.1f us/image, bit-sliced %9.1f "
              "us/image -> %.1fx\n",
              backend, base.dim, base.dense_us, packed_us, speedup);
  csv.row(backend, base.dim, base.dense_us, packed_us, speedup);
  json_rows.push_back(JsonObject()
                          .add("dim", static_cast<double>(base.dim))
                          .add("dense_us_per_image", base.dense_us)
                          .add("bitsliced_us_per_image", packed_us)
                          .add("speedup", speedup)
                          .str());
  return speedup;
}

/// End-to-end mutant loop reference: PR 1's pipeline — dense delta patch,
/// dense Eq. 1, PackedHv::from_dense re-pack, packed argmax, dense fitness
/// dot — with its packed argmax on the portable SWAR kernels PR 1 shipped.
struct MutantBaseline {
  std::size_t dim = 0;
  std::unique_ptr<hdtest::hdc::PixelEncoder> enc;
  std::unique_ptr<hdtest::hdc::AssociativeMemory> am;
  hdtest::data::Image base_image;
  hdtest::hdc::Accumulator base_acc;
  std::vector<hdtest::data::Image> mutants;
  std::vector<std::size_t> legacy_labels;
  std::vector<double> legacy_fitness;
  double legacy_us = 0.0;
};

MutantBaseline make_mutant_baseline(std::size_t dim, std::size_t num_mutants,
                                    std::size_t reps) {
  using namespace hdtest;
  MutantBaseline base;
  base.dim = dim;
  hdc::ModelConfig config;
  config.dim = dim;
  config.seed = 11;
  // Stored mirrors pinned: the PR 1 reference loop reads the dense
  // codebooks directly (see make_encode_baseline).
  config.codebook = hdc::CodebookMode::kStored;
  base.enc = std::make_unique<hdc::PixelEncoder>(config, 28, 28);
  base.am = random_am(dim, /*seed=*/55);
  util::Rng rng(dim + 1);

  base.base_image = random_image(28, 28, dim);
  base.base_acc = hdc::Accumulator(dim);
  base.enc->encode_into(base.base_image, base.base_acc);

  // Sparse mutants (4 changed pixels — the 'rand' strategy's shape, where
  // the delta re-encoder is the designed-for case).
  base.mutants.reserve(num_mutants);
  for (std::size_t m = 0; m < num_mutants; ++m) {
    auto mutant = base.base_image;
    for (int f = 0; f < 4; ++f) {
      mutant(static_cast<std::size_t>(rng.uniform_u64(28)),
             static_cast<std::size_t>(rng.uniform_u64(28))) =
          static_cast<std::uint8_t>(rng.uniform_u64(256));
    }
    base.mutants.push_back(std::move(mutant));
  }

  const std::size_t reference_label = 0;
  base.legacy_labels.resize(num_mutants);
  base.legacy_fitness.resize(num_mutants);
  const auto base_px = base.base_image.pixels();
  const auto& packed_am = base.am->packed();
  const util::Stopwatch watch;
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t m = 0; m < num_mutants; ++m) {
      hdc::Accumulator acc = base.base_acc;
      const auto mut_px = base.mutants[m].pixels();
      const auto& positions = base.enc->position_memory();
      const auto& values = base.enc->value_memory();
      for (std::size_t p = 0; p < base_px.size(); ++p) {
        if (base_px[p] == mut_px[p]) continue;
        acc.add_bound(positions[p],
                      values[base.enc->value_index(base_px[p])], -1);
        acc.add_bound(positions[p],
                      values[base.enc->value_index(mut_px[p])], +1);
      }
      const auto dense_query = acc.bipolarize(base.enc->tie_break());
      const auto packed_query = hdc::PackedHv::from_dense(dense_query);
      base.legacy_labels[m] = packed_am.predict(packed_query);
      base.legacy_fitness[m] =
          1.0 - base.am->similarity_to(reference_label, dense_query);
    }
  }
  base.legacy_us =
      watch.seconds() * 1e6 / static_cast<double>(num_mutants * reps);
  return base;
}

/// Per-backend side: PR 2's dense-free steady state — packed delta patch +
/// fused bipolarize + per-mutant packed predict + a standalone
/// similarity_to fitness row walk. Kept in this exact shape so the
/// committed dense_free_us_per_mutant series stays comparable PR-over-PR;
/// the fuzzer itself now amortizes the last two steps further through one
/// predict_block sweep per generation (measured by the predict_block
/// section), so this number is an upper bound on its per-mutant cost.
/// Returns the speedup; clears *ok on any label or fitness disagreement.
double bench_mutant_loop(const char* backend, const MutantBaseline& base,
                         std::size_t reps, hdtest::util::CsvWriter& csv,
                         std::vector<std::string>& json_rows, bool* ok) {
  using namespace hdtest;
  const std::size_t reference_label = 0;
  const auto& packed_am = base.am->packed();
  hdc::IncrementalPixelEncoder inc(*base.enc);
  inc.rebase(base.base_image, base.base_acc);
  const std::size_t num_mutants = base.mutants.size();
  std::vector<std::size_t> packed_labels(num_mutants);
  std::vector<double> packed_fitness(num_mutants);
  const util::Stopwatch watch;
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t m = 0; m < num_mutants; ++m) {
      const auto query = inc.encode_mutant_packed(base.mutants[m]);
      packed_labels[m] = packed_am.predict(query);
      packed_fitness[m] =
          1.0 - packed_am.similarity_to(reference_label, query);
    }
  }
  const double packed_us =
      watch.seconds() * 1e6 / static_cast<double>(num_mutants * reps);
  if (packed_labels != base.legacy_labels ||
      packed_fitness != base.legacy_fitness) {
    std::printf("ERROR: mutant-loop packed/dense disagreement at dim=%zu\n",
                base.dim);
    *ok = false;
  }
  const double speedup = packed_us > 0.0 ? base.legacy_us / packed_us : 0.0;
  std::printf("  [%s] dim=%5zu: legacy %8.2f us/mutant, dense-free %8.2f "
              "us/mutant -> %.1fx\n",
              backend, base.dim, base.legacy_us, packed_us, speedup);
  csv.row(backend, base.dim, base.legacy_us, packed_us, speedup);
  json_rows.push_back(JsonObject()
                          .add("dim", static_cast<double>(base.dim))
                          .add("legacy_us_per_mutant", base.legacy_us)
                          .add("dense_free_us_per_mutant", packed_us)
                          .add("speedup", speedup)
                          .str());
  return speedup;
}

/// Blocked-sweep reference: PR 1's per-query packed predict (every class
/// row re-read per query) on the portable SWAR kernels. The 10-class cases
/// are the paper's models (row set L1-resident — the sweep's win there is
/// pure kernel vectorization); the many-class case is where query blocking
/// itself pays, because each prototype row is streamed from L2+ once per
/// block instead of once per query.
struct BlockBaseline {
  std::size_t dim = 0;
  std::size_t classes = 0;
  std::unique_ptr<hdtest::hdc::AssociativeMemory> am;
  std::vector<hdtest::hdc::PackedHv> queries;
  std::vector<std::size_t> pr1_labels;
  double pr1_us = 0.0;
};

BlockBaseline make_block_baseline(std::size_t dim, std::size_t classes,
                                  std::size_t num_queries, std::size_t reps) {
  using namespace hdtest;
  BlockBaseline base;
  base.dim = dim;
  base.classes = classes;
  base.am = random_am(dim, /*seed=*/31, classes);
  util::Rng rng(dim + 7);
  base.queries.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    base.queries.push_back(hdc::PackedHv::random(dim, rng));
  }
  base.pr1_labels.resize(num_queries);
  const auto& packed = base.am->packed();
  const util::Stopwatch watch;
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t q = 0; q < num_queries; ++q) {
      base.pr1_labels[q] = packed.predict(base.queries[q]);
    }
  }
  base.pr1_us =
      watch.seconds() * 1e6 / static_cast<double>(num_queries * reps);
  return base;
}

/// Per-backend side: the query-blocked sweep. Returns blocked us/query;
/// clears *ok on any label disagreement with the per-query path.
double bench_predict_block(const char* backend, const BlockBaseline& base,
                           std::size_t reps, hdtest::util::CsvWriter& csv,
                           std::vector<std::string>& json_rows, bool* ok) {
  using namespace hdtest;
  const auto& packed = base.am->packed();
  std::vector<std::size_t> block_labels;
  const util::Stopwatch watch;
  for (std::size_t r = 0; r < reps; ++r) {
    block_labels =
        packed.predict_batch(std::span<const hdc::PackedHv>(base.queries));
  }
  const double block_us =
      watch.seconds() * 1e6 /
      static_cast<double>(base.queries.size() * reps);
  if (block_labels != base.pr1_labels) {
    std::printf("ERROR: predict_block/per-query disagreement at dim=%zu\n",
                base.dim);
    *ok = false;
  }
  const double speedup = block_us > 0.0 ? base.pr1_us / block_us : 0.0;
  std::printf("  [%s] dim=%5zu classes=%3zu: PR 1 per-query %8.3f us, "
              "blocked %8.3f us -> %.1fx\n",
              backend, base.dim, base.classes, base.pr1_us, block_us, speedup);
  csv.row(backend, base.dim, base.classes, base.pr1_us, block_us, speedup);
  json_rows.push_back(JsonObject()
                          .add("dim", static_cast<double>(base.dim))
                          .add("classes", static_cast<double>(base.classes))
                          .add("pr1_per_query_us", base.pr1_us)
                          .add("blocked_us", block_us)
                          .add("speedup_vs_pr1", speedup)
                          .str());
  return block_us;
}

// ---------------------------------------------------------------------------
// Campaign scaling: the sharded runtime end to end. The bit-exactness gates
// use fuzz::identical_records — the SAME predicate the determinism test
// suite asserts — so the optimized-build gate can never be weaker than the
// contract.

/// Worker counts to sweep: 1/2/4 plus the box's hardware concurrency.
std::vector<std::size_t> scaling_worker_counts() {
  std::vector<std::size_t> counts{1, 2, 4};
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (std::find(counts.begin(), counts.end(), hw) == counts.end()) {
    counts.push_back(hw);
  }
  return counts;
}

/// Target-count campaigns at several worker counts; returns false on any
/// determinism violation. Emits one row per (strategy, workers).
bool bench_campaign_scaling(const hdtest::benchutil::Setup& setup,
                            std::size_t target,
                            std::vector<std::string>& json_rows) {
  using namespace hdtest;
  bool ok = true;
  util::TextTable table;
  table.set_header({"Strategy", "Workers", "Adversarials", "Time (s)",
                    "Adv./minute", "Speedup vs 1w"});
  table.set_alignments({util::Align::kLeft, util::Align::kRight,
                        util::Align::kRight, util::Align::kRight,
                        util::Align::kRight, util::Align::kRight});
  util::CsvWriter csv(benchutil::out_dir() + "/campaign_scaling.csv");
  csv.header({"strategy", "workers", "adversarials", "seconds",
              "adv_per_minute", "speedup_vs_1w"});

  for (const char* name : {"gauss", "rand"}) {
    const auto strategy = fuzz::make_strategy(name);
    fuzz::FuzzConfig fuzz_config;
    fuzz_config.budget = fuzz::default_budget_for_strategy(name);
    const fuzz::Fuzzer fuzzer(*setup.model, *strategy, fuzz_config);
    fuzz::CampaignConfig config;
    config.fuzz = fuzz_config;
    config.target_adversarials = target;
    config.seed = setup.params.seed;

    fuzz::CampaignResult reference;
    for (const auto workers : scaling_worker_counts()) {
      config.workers = workers;
      auto campaign = fuzz::run_campaign(fuzzer, setup.data.test, config);
      if (workers == 1) {
        reference = campaign;
      } else if (!fuzz::identical_records(reference, campaign)) {
        std::printf("ERROR: campaign records diverged at workers=%zu "
                    "(strategy %s)\n",
                    workers, name);
        ok = false;
      }
      const double speedup =
          campaign.total_seconds > 0.0
              ? reference.total_seconds / campaign.total_seconds
              : 0.0;
      table.add_row({name, std::to_string(workers),
                     std::to_string(campaign.successes()),
                     util::TextTable::num(campaign.total_seconds, 2),
                     util::TextTable::num(campaign.adversarials_per_minute(), 0),
                     util::TextTable::num(speedup, 2)});
      csv.row(name, workers, campaign.successes(), campaign.total_seconds,
              campaign.adversarials_per_minute(), speedup);
      json_rows.push_back(
          JsonObject()
              .add("strategy", name)
              .add("workers", static_cast<double>(workers))
              .add("adversarials", static_cast<double>(campaign.successes()))
              .add("seconds", campaign.total_seconds)
              .add("adv_per_minute", campaign.adversarials_per_minute())
              .add("speedup_vs_1w", speedup)
              .str());
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("(records gated bit-identical across every worker count; "
              "wall-clock scaling is bounded by the box's %u hardware "
              "threads)\n",
              std::thread::hardware_concurrency());
  return ok;
}

// ---------------------------------------------------------------------------
// Campaign federation: the coordinator/worker protocol on the deterministic
// SimFleet (virtual network, virtual clock) vs solo run_campaign(workers=1).
// SimFleet is single-threaded, so the fleet rows serialize every leased
// slice onto one thread — the records/sec ratio measures protocol cost plus
// the fleet's speculative overshoot, NOT parallel speedup (the loopback
// TcpCoordinator provides real concurrency; tier-1 tests cover it). The gate
// is the tentpole contract itself: fuzz::identical_records against the solo
// records, re-proven in the optimized build both on a clean network and
// under 5% frame corruption.

/// Returns false on any determinism violation. Emits one row per variant.
bool bench_campaign_federation(bool self_check_only,
                               std::vector<std::string>& json_rows) {
  using namespace hdtest;
  bool ok = true;
  const auto pair = data::make_digit_train_test(20, 4, 99);
  hdc::ModelConfig model_config;
  model_config.dim = 1024;
  model_config.seed = 99;
  hdc::HdcClassifier model(model_config, 28, 28, 10);
  model.fit(pair.train);
  const auto strategy = fuzz::make_strategy("gauss");
  fuzz::FuzzConfig fuzz_config;
  fuzz_config.budget = fuzz::default_budget_for_strategy("gauss");
  const fuzz::Fuzzer fuzzer(model, *strategy, fuzz_config);

  fuzz::CampaignConfig config;
  config.fuzz = fuzz_config;
  config.target_adversarials = benchutil::env_u64(
      "HDTEST_FLEET_TARGET", self_check_only ? 6 : 25);
  config.seed = 5;
  fuzz::CampaignConfig solo = config;
  solo.workers = 1;
  const util::Stopwatch solo_watch;
  const auto reference = fuzz::run_campaign(fuzzer, pair.test, solo);
  const double solo_seconds = solo_watch.seconds();
  const double solo_rps =
      solo_seconds > 0.0
          ? static_cast<double>(reference.records.size()) / solo_seconds
          : 0.0;

  const auto planner = fuzz::shard::plan_campaign(config, pair.test.size());
  fuzz::shard::SeedBank bank(fuzzer, pair.test);
  fuzz::fleet::FuzzSliceExecutor executor(planner, fuzzer, pair.test, &bank);

  util::TextTable table;
  table.set_header({"Variant", "Workers", "Records", "Time (s)",
                    "Records/s", "Overhead vs solo", "Faults"});
  table.set_alignments({util::Align::kLeft, util::Align::kRight,
                        util::Align::kRight, util::Align::kRight,
                        util::Align::kRight, util::Align::kRight,
                        util::Align::kRight});
  util::CsvWriter csv(benchutil::out_dir() + "/campaign_federation.csv");
  csv.header({"variant", "workers", "corrupt_pct", "records", "seconds",
              "records_per_sec", "overhead_vs_solo", "faults_injected",
              "identical"});

  table.add_row({"solo", "1", std::to_string(reference.records.size()),
                 util::TextTable::num(solo_seconds, 2),
                 util::TextTable::num(solo_rps, 0), "1.00", "0"});
  csv.row("solo", 1, 0, reference.records.size(), solo_seconds, solo_rps,
          1.0, 0, 1);
  json_rows.push_back(
      JsonObject()
          .add("variant", "solo")
          .add("workers", 1.0)
          .add("corrupt_pct", 0.0)
          .add("records", static_cast<double>(reference.records.size()))
          .add("seconds", solo_seconds)
          .add("records_per_sec", solo_rps)
          .add("overhead_vs_solo", 1.0)
          .add("faults_injected", 0.0)
          .str());

  struct Variant {
    const char* name;
    unsigned corrupt_pct;
  };
  std::size_t last_commits = 0;
  for (const Variant variant : {Variant{"fleet_clean", 0},
                                Variant{"fleet_corrupt5", 5}}) {
    fuzz::fleet::FaultPlan plan;
    plan.seed = 0xf1ee7 + variant.corrupt_pct;
    plan.corrupt_pct = variant.corrupt_pct;
    plan.delay_pct = 20;
    plan.max_faults = 48;
    fuzz::fleet::SimFleet fleet(planner, config.target_adversarials,
                                /*workers=*/4, executor, plan);
    const util::Stopwatch watch;
    const auto merged = fleet.run();
    const double seconds = watch.seconds();
    const bool identical = fuzz::identical_records(merged, reference);
    if (!identical) {
      std::printf("ERROR: federated records diverged from solo (%s)\n",
                  variant.name);
      ok = false;
    }
    const double rps =
        seconds > 0.0 ? static_cast<double>(merged.records.size()) / seconds
                      : 0.0;
    const double overhead = solo_seconds > 0.0 ? seconds / solo_seconds : 0.0;
    last_commits = fleet.stats().commits_accepted;
    table.add_row({variant.name, "4", std::to_string(merged.records.size()),
                   util::TextTable::num(seconds, 2),
                   util::TextTable::num(rps, 0),
                   util::TextTable::num(overhead, 2),
                   std::to_string(fleet.faults_injected())});
    csv.row(variant.name, 4, variant.corrupt_pct, merged.records.size(),
            seconds, rps, overhead, fleet.faults_injected(),
            identical ? 1 : 0);
    json_rows.push_back(
        JsonObject()
            .add("variant", variant.name)
            .add("workers", 4.0)
            .add("corrupt_pct", static_cast<double>(variant.corrupt_pct))
            .add("records", static_cast<double>(merged.records.size()))
            .add("seconds", seconds)
            .add("records_per_sec", rps)
            .add("overhead_vs_solo", overhead)
            .add("faults_injected", static_cast<double>(fleet.faults_injected()))
            .add("commits_accepted",
                 static_cast<double>(fleet.stats().commits_accepted))
            .add("corrupt_frames",
                 static_cast<double>(fleet.stats().corrupt_frames))
            .add("leases_reissued",
                 static_cast<double>(fleet.stats().leases_reissued))
            .str());
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("(fleet rows run every leased slice on one thread, so "
              "'overhead vs solo' bundles wire/lease/merge cost with the "
              "fleet's speculative overshoot past the stopping point — "
              "%zu accepted commits fed the last row's %zu kept records; "
              "the records gate re-proves the federation determinism "
              "contract under -O2%s)\n",
              last_commits, reference.records.size(),
              ok ? "" : " — VIOLATED");
  return ok;
}

// ---------------------------------------------------------------------------
// Coordinator durability: the cost of the crash-safe WAL. One worker drives
// the full lease/commit protocol against a CoordinatorCore on a real
// PosixStorage directory; the variants isolate journaling (batched fsync)
// and per-commit fsync against the no-journal baseline. A recovery gate —
// half the campaign committed, the coordinator dropped mid-flight with no
// final checkpoint, a fresh coordinator recovered from the directory —
// re-proves the resume path's bit-identity in the optimized build and runs
// in --self-check (CI's bench smoke).

/// Synthetic durable-bench records: pure function of the stream seed, with
/// a 28x28 adversarial payload on success so commit frames have realistic
/// weight.
std::vector<hdtest::fuzz::CampaignRecord> durable_bench_block(
    const hdtest::fuzz::shard::ShardPlanner& planner, std::size_t block) {
  using namespace hdtest;
  const auto slice = planner.slice(block);
  std::vector<fuzz::CampaignRecord> records;
  records.reserve(slice.count);
  for (std::size_t s = slice.first; s < slice.end(); ++s) {
    util::Rng rng(planner.stream_seed(s));
    fuzz::CampaignRecord record;
    record.image_index = planner.input_of(s);
    record.true_label = static_cast<int>(record.image_index % 10);
    record.outcome.success = rng.bernoulli(0.5);
    record.outcome.reference_label = record.image_index % 10;
    record.outcome.iterations = 1 + rng.uniform_u64(30);
    record.outcome.encodes = 10 * record.outcome.iterations;
    if (record.outcome.success) {
      record.outcome.adversarial_label = rng.uniform_u64(10);
      record.outcome.perturbation.pixels_changed = 1 + rng.uniform_u64(16);
      record.outcome.adversarial = random_image(28, 28, rng.uniform_u64(1u << 30));
    }
    records.push_back(std::move(record));
  }
  return records;
}

/// Drives the wire-level lease/commit loop until the campaign finishes or
/// \p max_commits commits have been admitted, pumping the periodic
/// checkpoint rotation exactly like the real drivers do. Returns commits
/// admitted.
std::size_t durable_commit_loop(
    hdtest::fuzz::fleet::CoordinatorCore& core,
    hdtest::fuzz::fleet::durable::DurableCoordinator* dc,
    const hdtest::fuzz::shard::ShardPlanner& planner,
    const std::vector<std::vector<hdtest::fuzz::CampaignRecord>>& blocks,
    std::size_t max_commits) {
  using namespace hdtest::fuzz;
  const std::size_t block_streams = planner.slice(0).count;
  std::uint64_t now = 1;
  std::size_t commits = 0;
  while (!core.finished() && commits < max_commits) {
    core.on_frame(1, fleet::make_lease_request(), now++);
    bool granted = false;
    fleet::LeaseGrant grant;
    for (auto& out : core.take_outbox()) {
      if (out.frame.kind ==
          static_cast<std::uint16_t>(fleet::MessageKind::kLeaseGrant)) {
        grant = fleet::decode_lease_grant(out.frame.body);
        granted = true;
      }
    }
    if (!granted) break;
    fleet::Commit commit;
    commit.lease_id = grant.lease_id;
    commit.first_stream = grant.first_stream;
    commit.records =
        blocks[static_cast<std::size_t>(grant.first_stream) / block_streams];
    core.on_frame(1, fleet::make_commit(commit), now++);
    (void)core.take_outbox();
    if (dc != nullptr) dc->maybe_checkpoint();
    ++commits;
  }
  return commits;
}

/// Returns false when the recovery gate fails. Emits one row per variant.
bool bench_coordinator_durability(bool self_check_only,
                                  std::vector<std::string>& json_rows) {
  using namespace hdtest;
  namespace durable = fuzz::fleet::durable;
  bool ok = true;

  const std::size_t streams = benchutil::env_u64(
      "HDTEST_DURABLE_STREAMS", self_check_only ? 128 : 2048);
  const std::size_t block_streams = 8;
  const fuzz::shard::ShardPlanner planner(
      fuzz::shard::ShardPlanner::Mode::kSweep, streams, 0xd0bULL, streams,
      block_streams);
  const std::uint64_t fingerprint = fuzz::fleet::campaign_fingerprint(
      planner, /*target=*/0);
  std::vector<std::vector<fuzz::CampaignRecord>> blocks;
  blocks.reserve(planner.num_blocks());
  std::size_t total_records = 0;
  for (std::size_t b = 0; b < planner.num_blocks(); ++b) {
    blocks.push_back(durable_bench_block(planner, b));
    total_records += blocks.back().size();
  }

  struct Variant {
    const char* name;
    bool journaled;
    std::uint64_t fsync_every;
  };
  util::TextTable table;
  table.set_header({"Variant", "Commits", "Records", "Time (s)", "Commits/s",
                    "vs no-journal", "Fsyncs", "Checkpoints"});
  table.set_alignments({util::Align::kLeft, util::Align::kRight,
                        util::Align::kRight, util::Align::kRight,
                        util::Align::kRight, util::Align::kRight,
                        util::Align::kRight, util::Align::kRight});
  util::CsvWriter csv(benchutil::out_dir() + "/coordinator_durability.csv");
  csv.header({"variant", "commits", "records", "seconds", "commits_per_sec",
              "overhead_vs_none", "journal_fsyncs", "checkpoints"});

  double none_seconds = 0.0;
  for (const Variant variant :
       {Variant{"no_journal", false, 0},
        Variant{"journal_batched", true, 64},
        Variant{"journal_fsync_every", true, 1}}) {
    const std::string dir =
        benchutil::out_dir() + "/durable_bench_" + variant.name;
    std::filesystem::remove_all(dir);
    durable::PosixStorage storage(dir);
    std::unique_ptr<durable::DurableCoordinator> dc;
    if (variant.journaled) {
      durable::DurableOptions options;
      options.fsync_every_commits = variant.fsync_every;
      options.checkpoint_every_commits = 64;
      dc = std::make_unique<durable::DurableCoordinator>(storage, fingerprint,
                                                         options);
    }
    fuzz::fleet::CoordinatorCore core(
        planner, /*target=*/0,
        {/*lease_timeout=*/1000, "gauss", dc.get()});
    if (dc) dc->attach(core);
    core.on_connect(1);
    core.on_frame(1, fuzz::fleet::make_hello({core.fingerprint()}), 0);
    (void)core.take_outbox();

    const util::Stopwatch watch;
    const std::size_t commits = durable_commit_loop(
        core, dc.get(), planner, blocks, planner.num_blocks());
    if (dc) dc->checkpoint_now();
    const double seconds = watch.seconds();
    if (variant.journaled == false) none_seconds = seconds;
    const double cps =
        seconds > 0.0 ? static_cast<double>(commits) / seconds : 0.0;
    const double overhead =
        none_seconds > 0.0 ? seconds / none_seconds : 0.0;
    const std::uint64_t fsyncs = dc ? dc->journal().syncs() : 0;
    const std::uint64_t checkpoints = dc ? dc->checkpoints_written() : 0;
    table.add_row({variant.name, std::to_string(commits),
                   std::to_string(total_records),
                   util::TextTable::num(seconds, 3),
                   util::TextTable::num(cps, 0),
                   util::TextTable::num(overhead, 2), std::to_string(fsyncs),
                   std::to_string(checkpoints)});
    csv.row(variant.name, commits, total_records, seconds, cps, overhead,
            fsyncs, checkpoints);
    json_rows.push_back(
        JsonObject()
            .add("variant", variant.name)
            .add("commits", static_cast<double>(commits))
            .add("records", static_cast<double>(total_records))
            .add("seconds", seconds)
            .add("commits_per_sec", cps)
            .add("overhead_vs_none", overhead)
            .add("journal_fsyncs", static_cast<double>(fsyncs))
            .add("checkpoints", static_cast<double>(checkpoints))
            .str());
  }

  // Recovery gate: commit 6 of the blocks (not a rotation multiple, so the
  // journal holds live commits), drop the coordinator with NO final
  // checkpoint — the on-disk files are exactly what a SIGKILL leaves — and
  // recover into a fresh core, which must finish the campaign bit-identical
  // to a solo ledger replay.
  const std::string dir = benchutil::out_dir() + "/durable_bench_recovery";
  std::filesystem::remove_all(dir);
  durable::DurableOptions options;
  options.fsync_every_commits = 1;
  options.checkpoint_every_commits = 4;
  {
    durable::PosixStorage storage(dir);
    durable::DurableCoordinator dc(storage, fingerprint, options);
    fuzz::fleet::CoordinatorCore core(
        planner, 0, {/*lease_timeout=*/1000, "gauss", &dc});
    dc.attach(core);
    core.on_connect(1);
    core.on_frame(1, fuzz::fleet::make_hello({core.fingerprint()}), 0);
    (void)core.take_outbox();
    (void)durable_commit_loop(core, &dc, planner, blocks, 6);
  }
  durable::PosixStorage storage(dir);
  durable::DurableCoordinator dc(storage, fingerprint, options);
  const std::size_t replayed = dc.recovered().journal.commits.size();
  fuzz::fleet::CoordinatorCore core(
      planner, 0, {/*lease_timeout=*/1000, "gauss", &dc});
  dc.attach(core);
  core.on_connect(1);
  core.on_frame(1, fuzz::fleet::make_hello({core.fingerprint()}), 0);
  (void)core.take_outbox();
  (void)durable_commit_loop(core, &dc, planner, blocks,
                            planner.num_blocks());
  if (!dc.resumed() || replayed == 0) {
    std::printf("ERROR: recovery gate found no durable state to resume "
                "(resumed=%d, journal commits=%zu)\n",
                dc.resumed() ? 1 : 0, replayed);
    ok = false;
  }

  fuzz::CampaignResult reference;
  {
    fuzz::shard::StopToken token(planner.stream_limit());
    fuzz::shard::ProgressLedger ledger(/*target=*/0, planner.stream_limit(),
                                       &token);
    for (std::size_t b = 0; b < planner.num_blocks(); ++b) {
      ledger.commit(planner.slice(b).first, blocks[b]);
    }
    reference.gave_up = ledger.gave_up();
    reference.records = ledger.take_records();
  }
  if (!core.finished() ||
      !fuzz::identical_records(core.take_result(), reference)) {
    std::printf("ERROR: records after crash-recovery diverged from the "
                "solo ledger replay\n");
    ok = false;
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("(one worker over loopback-free in-process frames, so the "
              "rows isolate pure WAL cost per admitted commit; the recovery "
              "gate resumed from a checkpoint plus %zu journaled commits "
              "and re-proved bit-identity%s)\n",
              replayed, ok ? "" : " — VIOLATED");
  return ok;
}

// ---------------------------------------------------------------------------
// Model cold-start: stream loads vs the mmap'd serving path, plus the
// save -> map -> predict_batch round-trip gate.

/// Measures one loader variant: \p reps timed calls of \p load.
template <typename Load>
double time_load_ms(std::size_t reps, Load&& load) {
  const hdtest::util::Stopwatch watch;
  for (std::size_t r = 0; r < reps; ++r) load();
  return watch.seconds() * 1e3 / static_cast<double>(reps);
}

/// Benches model loading at the given dimension and gates the mapped path's
/// bit-exactness + zero-rebuild contract. Clears *ok on any violation.
void bench_model_load(std::size_t dim, std::size_t reps,
                      std::vector<std::string>& json_rows, bool* ok) {
  using namespace hdtest;
  const auto pair = data::make_digit_train_test(50, 10, 42);
  hdc::ModelConfig config;
  config.dim = dim;
  config.seed = 42;
  // Stored mirrors pinned so the committed cold-start series (file bytes,
  // load times) stays comparable PR-over-PR under any HDTEST_CODEBOOK
  // default; remat cold-start lives in the rematerialize_crossover section.
  config.codebook = hdc::CodebookMode::kStored;
  hdc::HdcClassifier model(config, 28, 28, 10);
  model.fit(pair.train);

  const auto v3_path = benchutil::out_dir() + "/model_load_v3.hdtm";
  hdc::save_model(model, v3_path);
  const auto v3_bytes = std::filesystem::file_size(v3_path);

  const double v3_stream_ms = time_load_ms(
      reps, [&] { (void)hdc::load_model(v3_path); });
  const double v3_mmap_verified_ms = time_load_ms(reps, [&] {
    (void)hdc::MappedModel(v3_path);
  });
  hdc::MapOptions no_verify;
  no_verify.verify_checksum = false;
  const double v3_mmap_ms = time_load_ms(reps, [&] {
    (void)hdc::MappedModel(v3_path, no_verify);
  });

  // Round-trip gate: map once more with counters armed; construction and
  // serving must stay free of rebuilds/regenerations and agree bit-exactly.
  hdc::instrument::reset();
  const hdc::MappedModel mapped(v3_path);
  const auto mapped_labels = mapped.predict_batch(pair.test.images);
  const bool counters_clean = hdc::instrument::packed_am_rebuilds() == 0 &&
                              hdc::instrument::packed_codebook_builds() == 0 &&
                              hdc::instrument::item_memory_generations() == 0 &&
                              hdc::instrument::packed_from_dense() == 0;
  if (!counters_clean) {
    std::printf("ERROR: mapped load performed rebuild/regeneration work\n");
    *ok = false;
  }
  if (mapped_labels != model.predict_batch(pair.test.images)) {
    std::printf("ERROR: mapped predictions diverged from the trained model\n");
    *ok = false;
  }

  const double speedup =
      v3_mmap_ms > 0.0 ? v3_stream_ms / v3_mmap_ms : 0.0;
  std::printf("  dim=%5zu: v3 stream %8.2f ms, v3 mmap %8.3f ms verified / "
              "%8.3f ms unverified -> %.0fx vs stream "
              "(file %zu KiB; round-trip gate %s)\n",
              dim, v3_stream_ms, v3_mmap_verified_ms, v3_mmap_ms, speedup,
              static_cast<std::size_t>(v3_bytes) / 1024,
              counters_clean ? "clean" : "DIRTY");
  json_rows.push_back(
      JsonObject()
          .add("dim", static_cast<double>(dim))
          .add("v3_stream_ms", v3_stream_ms)
          .add("v3_mmap_verified_ms", v3_mmap_verified_ms)
          .add("v3_mmap_ms", v3_mmap_ms)
          .add("v3_file_bytes", static_cast<double>(v3_bytes))
          .str());
}

// ---------------------------------------------------------------------------
// Rematerialization crossover: stored codebook mirrors vs on-the-fly row
// regeneration (hdc::CodebookMode::kRemat). Remat trades mirror bytes — in
// RAM and in the v3 artifact — for deterministic Rng work per encoded
// pixel; this section measures both sides of the trade at production dims
// and gates the contract that the trade is behavior-invisible: campaign
// records must be bit-identical across storage modes, and the remat v3
// file must actually be smaller (it drops the codebook mirror sections).

/// Clears *ok on a record divergence or a non-shrinking remat file.
bool bench_rematerialize_crossover(bool self_check_only,
                                   std::vector<std::string>& json_rows) {
  using namespace hdtest;
  bool ok = true;
  const auto pair =
      data::make_digit_train_test(self_check_only ? 12 : 20, 6, 4242);
  const auto encode_reps =
      benchutil::env_u64("HDTEST_REMAT_ENCODE_REPS", self_check_only ? 1 : 6);
  const auto max_images =
      benchutil::env_u64("HDTEST_REMAT_IMAGES", self_check_only ? 4 : 20);
  const std::vector<std::size_t> dims =
      self_check_only ? std::vector<std::size_t>{1024}
                      : std::vector<std::size_t>{4096, 8192, 16384};

  util::TextTable table;
  table.set_header({"Dim", "Stored enc us", "Remat enc us", "Remat/stored",
                    "Stored adv/min", "Remat adv/min", "Stored KiB",
                    "Remat KiB", "Records"});
  table.set_alignments({util::Align::kRight, util::Align::kRight,
                        util::Align::kRight, util::Align::kRight,
                        util::Align::kRight, util::Align::kRight,
                        util::Align::kRight, util::Align::kRight,
                        util::Align::kLeft});
  util::CsvWriter csv(benchutil::out_dir() + "/rematerialize_crossover.csv");
  csv.header({"dim", "stored_encode_us_per_image", "remat_encode_us_per_image",
              "remat_encode_ratio", "stored_adv_per_minute",
              "remat_adv_per_minute", "stored_v3_bytes", "remat_v3_bytes",
              "records_identical"});

  for (const std::size_t dim : dims) {
    hdc::ModelConfig config;
    config.dim = dim;
    config.seed = 4242;
    config.codebook = hdc::CodebookMode::kStored;
    hdc::HdcClassifier stored(config, 28, 28, 10);
    stored.fit(pair.train);
    config.codebook = hdc::CodebookMode::kRemat;
    hdc::HdcClassifier remat(config, 28, 28, 10);
    remat.fit(pair.train);

    // Full-image packed encode, the path where remat pays its Rng tax.
    const auto encode_us = [&](const hdc::HdcClassifier& model) {
      const util::Stopwatch watch;
      for (std::size_t r = 0; r < encode_reps; ++r) {
        for (const auto& image : pair.test.images) {
          (void)model.encoder().encode_packed(image);
        }
      }
      return watch.seconds() * 1e6 /
             static_cast<double>(pair.test.images.size() * encode_reps);
    };
    const double stored_encode_us = encode_us(stored);
    const double remat_encode_us = encode_us(remat);
    const double encode_ratio =
        stored_encode_us > 0.0 ? remat_encode_us / stored_encode_us : 0.0;

    // End-to-end campaign throughput + the bit-identity gate. The
    // incremental delta re-encoder dominates the steady state, so the
    // campaign-level gap is far smaller than the full-encode ratio — that
    // is the crossover this section exists to show.
    const fuzz::GaussNoiseMutation strategy;
    fuzz::FuzzConfig fuzz_config;
    fuzz_config.budget = fuzz::default_budget_for_strategy("gauss");
    const fuzz::Fuzzer stored_fuzzer(stored, strategy, fuzz_config);
    const fuzz::Fuzzer remat_fuzzer(remat, strategy, fuzz_config);
    fuzz::CampaignConfig campaign;
    campaign.fuzz = fuzz_config;
    campaign.max_images = max_images;
    campaign.workers = 2;
    campaign.seed = 4242;
    const auto stored_result =
        fuzz::run_campaign(stored_fuzzer, pair.test, campaign);
    const auto remat_result =
        fuzz::run_campaign(remat_fuzzer, pair.test, campaign);
    const bool identical =
        fuzz::identical_records(stored_result, remat_result);
    if (!identical) {
      std::printf("ERROR: remat campaign records diverged from stored at "
                  "dim=%zu\n",
                  dim);
      ok = false;
    }

    // v3 artifact size: the mirror sections are the bulk of a stored file,
    // so the remat variant must shrink, not just not-grow.
    const auto stored_path =
        benchutil::out_dir() + "/remat_crossover_stored.hdtm";
    const auto remat_path =
        benchutil::out_dir() + "/remat_crossover_remat.hdtm";
    hdc::save_model(stored, stored_path);
    hdc::save_model(remat, remat_path);
    const auto stored_bytes = std::filesystem::file_size(stored_path);
    const auto remat_bytes = std::filesystem::file_size(remat_path);
    if (remat_bytes >= stored_bytes) {
      std::printf("ERROR: remat v3 file (%zu B) not smaller than stored "
                  "(%zu B) at dim=%zu\n",
                  static_cast<std::size_t>(remat_bytes),
                  static_cast<std::size_t>(stored_bytes), dim);
      ok = false;
    }

    table.add_row({std::to_string(dim),
                   util::TextTable::num(stored_encode_us, 1),
                   util::TextTable::num(remat_encode_us, 1),
                   util::TextTable::num(encode_ratio, 2),
                   util::TextTable::num(stored_result.adversarials_per_minute(),
                                        0),
                   util::TextTable::num(remat_result.adversarials_per_minute(),
                                        0),
                   std::to_string(static_cast<std::size_t>(stored_bytes) /
                                  1024),
                   std::to_string(static_cast<std::size_t>(remat_bytes) /
                                  1024),
                   identical ? "identical" : "DIVERGED"});
    csv.row(dim, stored_encode_us, remat_encode_us, encode_ratio,
            stored_result.adversarials_per_minute(),
            remat_result.adversarials_per_minute(),
            static_cast<std::size_t>(stored_bytes),
            static_cast<std::size_t>(remat_bytes),
            identical ? 1 : 0);
    json_rows.push_back(
        JsonObject()
            .add("dim", static_cast<double>(dim))
            .add("stored_encode_us_per_image", stored_encode_us)
            .add("remat_encode_us_per_image", remat_encode_us)
            .add("remat_encode_ratio", encode_ratio)
            .add("stored_adv_per_minute",
                 stored_result.adversarials_per_minute())
            .add("remat_adv_per_minute",
                 remat_result.adversarials_per_minute())
            .add("stored_v3_bytes", static_cast<double>(stored_bytes))
            .add("remat_v3_bytes", static_cast<double>(remat_bytes))
            .add("records_identical", identical ? 1.0 : 0.0)
            .str());
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("(remat regenerates codebook rows from the model seed per "
              "encode instead of reading stored mirrors; the campaign "
              "records gate re-proves the storage mode is behavior-"
              "invisible%s)\n",
              ok ? "" : " — VIOLATED");
  return ok;
}

// ---------------------------------------------------------------------------
// Telemetry overhead: the observability contract's cost half. The counters
// on the campaign hot loop are always-on relaxed atomics and the optional
// machinery (spans, heartbeats) is flag-gated, so fully enabling telemetry
// must cost <= 2% end to end — and, per the determinism contract, must not
// move a single record. Min-of-reps on both sides cancels warm-up and
// scheduler noise; a small absolute slack keeps the ratio gate meaningful
// when the whole campaign takes tens of milliseconds.

/// Returns false when the overhead or bit-identity gate fails.
bool bench_telemetry_overhead(bool self_check_only,
                              std::vector<std::string>& json_rows) {
  using namespace hdtest;
  const auto pair = data::make_digit_train_test(20, 4, 99);
  hdc::ModelConfig model_config;
  model_config.dim = 1024;
  model_config.seed = 99;
  hdc::HdcClassifier model(model_config, 28, 28, 10);
  model.fit(pair.train);
  const auto strategy = fuzz::make_strategy("gauss");
  fuzz::FuzzConfig fuzz_config;
  fuzz_config.budget = fuzz::default_budget_for_strategy("gauss");
  const fuzz::Fuzzer fuzzer(model, *strategy, fuzz_config);
  fuzz::CampaignConfig config;
  config.fuzz = fuzz_config;
  config.target_adversarials =
      benchutil::env_u64("HDTEST_OBS_TARGET", self_check_only ? 10 : 40);
  config.seed = 5;
  config.workers = 4;

  const std::size_t reps =
      benchutil::env_u64("HDTEST_OBS_REPS", self_check_only ? 3 : 7);
  const bool was_enabled = obs::enabled();
  const bool was_tracing = obs::trace_enabled();

  // Alternate off/on inside each rep so thermal drift hits both sides
  // equally; keep the fastest rep of each.
  double off_seconds = 0.0;
  double on_seconds = 0.0;
  fuzz::CampaignResult off_result;
  fuzz::CampaignResult on_result;
  for (std::size_t r = 0; r < reps; ++r) {
    obs::set_enabled(false);
    obs::set_trace_enabled(false);
    const util::Stopwatch off_watch;
    auto off_run = fuzz::run_campaign(fuzzer, pair.test, config);
    const double off_t = off_watch.seconds();
    if (r == 0 || off_t < off_seconds) off_seconds = off_t;

    obs::set_enabled(true);
    obs::set_trace_enabled(true);
    const util::Stopwatch on_watch;
    auto on_run = fuzz::run_campaign(fuzzer, pair.test, config);
    const double on_t = on_watch.seconds();
    if (r == 0 || on_t < on_seconds) on_seconds = on_t;

    off_result = std::move(off_run);
    on_result = std::move(on_run);
  }
  obs::set_enabled(was_enabled);
  obs::set_trace_enabled(was_tracing);

  const bool identical = fuzz::identical_records(on_result, off_result);
  if (!identical) {
    std::printf("ERROR: enabling telemetry changed the campaign records\n");
  }
  const double ratio = off_seconds > 0.0 ? on_seconds / off_seconds : 0.0;
  // <= 2% plus 10 ms of absolute slack for timer/scheduler granularity.
  const bool within = on_seconds <= off_seconds * 1.02 + 0.010;
  if (!within) {
    std::printf("ERROR: telemetry overhead gate failed: off %.4fs vs on "
                "%.4fs (%.2f%%)\n",
                off_seconds, on_seconds, (ratio - 1.0) * 100.0);
  }
  const bool ok = identical && within;
  std::printf("telemetry overhead (metrics + tracing fully on, min of %zu "
              "reps): off %.4fs, on %.4fs -> %+.2f%% (gate <= 2%%: %s; "
              "records %s)\n",
              reps, off_seconds, on_seconds, (ratio - 1.0) * 100.0,
              within ? "ok" : "FAILED",
              identical ? "identical" : "DIVERGED");
  json_rows.push_back(
      JsonObject()
          .add("variant", "metrics_and_tracing_on")
          .add("reps", static_cast<double>(reps))
          .add("off_seconds", off_seconds)
          .add("on_seconds", on_seconds)
          .add("overhead_ratio", ratio)
          .add("records", static_cast<double>(on_result.records.size()))
          .str());
  return ok;
}

/// Self-check gate: a small target-count campaign must be bit-identical at
/// workers 1 and 4 (the shard determinism contract under -O2, every run).
bool campaign_determinism_gate() {
  using namespace hdtest;
  const auto pair = data::make_digit_train_test(20, 4, 99);
  hdc::ModelConfig config;
  config.dim = 1024;
  config.seed = 99;
  hdc::HdcClassifier model(config, 28, 28, 10);
  model.fit(pair.train);
  const auto strategy = fuzz::make_strategy("gauss");
  fuzz::FuzzConfig fuzz_config;
  fuzz_config.budget = fuzz::default_budget_for_strategy("gauss");
  const fuzz::Fuzzer fuzzer(model, *strategy, fuzz_config);
  fuzz::CampaignConfig campaign_config;
  campaign_config.fuzz = fuzz_config;
  campaign_config.target_adversarials = 15;
  campaign_config.seed = 5;
  campaign_config.workers = 1;
  const auto sequential = fuzz::run_campaign(fuzzer, pair.test, campaign_config);
  campaign_config.workers = 4;
  const auto sharded = fuzz::run_campaign(fuzzer, pair.test, campaign_config);
  const bool ok = fuzz::identical_records(sequential, sharded);
  std::printf("campaign determinism gate (target mode, workers 1 vs 4): %s\n",
              ok ? "identical" : "DIVERGED");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hdtest;

  util::ArgParser args("throughput",
                       "Campaign throughput plus packed-vs-dense kernels");
  args.add_bool("self-check",
                "run only the dense-vs-packed agreement gates (fast)");
  args.add_flag("json", "", "write machine-readable results to this path");
  try {
    args.parse(argc, argv);
  } catch (const std::exception& error) {
    std::printf("%s\n%s", error.what(), args.usage().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::printf("%s", args.usage().c_str());
    return 0;
  }
  const bool self_check_only = args.get_bool("self-check");
  const std::string json_path = args.get("json");

  bool agreement = true;
  JsonObject doc;
  doc.add("bench", "throughput");
  doc.add("mode", self_check_only ? "self-check" : "full");

  std::vector<std::string> campaign_rows;
  std::vector<std::string> scaling_rows;
  if (!self_check_only) {
    const auto target = benchutil::env_u64("HDTEST_TARGET_ADV", 200);
    const auto setup = benchutil::make_standard_setup();
    benchutil::print_banner("throughput",
                            "headline: ~400 adversarial images per minute",
                            setup);
    doc.add_raw("params",
                JsonObject()
                    .add("dim", static_cast<double>(setup.params.dim))
                    .add("train_per_class",
                         static_cast<double>(setup.params.train_per_class))
                    .add("test_per_class",
                         static_cast<double>(setup.params.test_per_class))
                    .add("seed", static_cast<double>(setup.params.seed))
                    .add("target_adversarials", static_cast<double>(target))
                    .add("clean_accuracy", setup.clean_accuracy)
                    .str());

    util::TextTable table;
    table.set_header({"Strategy", "Adversarials", "Time (s)", "Adv./minute",
                      "Time per 1K (s)"});
    table.set_alignments({util::Align::kLeft, util::Align::kRight,
                          util::Align::kRight, util::Align::kRight,
                          util::Align::kRight});
    util::CsvWriter csv(benchutil::out_dir() + "/throughput.csv");
    csv.header({"strategy", "adversarials", "seconds", "adv_per_minute",
                "time_per_1k_s"});

    for (const char* name : {"gauss", "rand", "row_col_rand", "shift"}) {
      const auto strategy = fuzz::make_strategy(name);
      fuzz::FuzzConfig fuzz_config;
      fuzz_config.budget = fuzz::default_budget_for_strategy(name);
      const fuzz::Fuzzer fuzzer(*setup.model, *strategy, fuzz_config);

      fuzz::CampaignConfig campaign_config;
      campaign_config.fuzz = fuzz_config;
      campaign_config.target_adversarials = target;
      campaign_config.seed = setup.params.seed;
      const auto campaign =
          fuzz::run_campaign(fuzzer, setup.data.test, campaign_config);

      table.add_row({name, std::to_string(campaign.successes()),
                     util::TextTable::num(campaign.total_seconds, 1),
                     util::TextTable::num(campaign.adversarials_per_minute(), 0),
                     util::TextTable::num(campaign.time_per_1k_seconds(), 1)});
      csv.row(name, campaign.successes(), campaign.total_seconds,
              campaign.adversarials_per_minute(),
              campaign.time_per_1k_seconds());
      campaign_rows.push_back(
          JsonObject()
              .add("strategy", name)
              .add("adversarials", static_cast<double>(campaign.successes()))
              .add("seconds", campaign.total_seconds)
              .add("adv_per_minute", campaign.adversarials_per_minute())
              .add("time_per_1k_s", campaign.time_per_1k_seconds())
              .str());
    }

    std::printf("%s\n", table.to_string().c_str());
    std::printf(
        "paper: ~400 adversarial images per minute on an AMD Ryzen 5 3600.\n"
        "Per strategy, Table II implies shift 679/min, row&col 525/min,\n"
        "gauss 347/min, rand 263/min — i.e. hundreds per minute with rand\n"
        "slowest. Expect at least the same order of magnitude and rand last.\n");
    std::printf("CSV written to %s/throughput.csv\n",
                benchutil::out_dir().c_str());

    std::printf("\ncampaign scaling: sharded runtime, target-count mode "
                "(target %zu, D=%zu)\n",
                static_cast<std::size_t>(target), setup.params.dim);
    if (!bench_campaign_scaling(setup, target, scaling_rows)) {
      agreement = false;
    }
  } else {
    // The determinism contract is cheap enough to gate on every CI smoke.
    if (!campaign_determinism_gate()) agreement = false;
  }

  std::vector<std::string> federation_rows;
  std::printf("\ncampaign federation: SimFleet coordinator/worker protocol "
              "vs solo (4 workers, deterministic virtual network)\n");
  if (!bench_campaign_federation(self_check_only, federation_rows)) {
    agreement = false;
  }
  std::vector<std::string> durability_rows;
  std::printf("\ncoordinator durability: WAL cost per admitted commit plus "
              "the crash-recovery bit-identity gate\n");
  if (!bench_coordinator_durability(self_check_only, durability_rows)) {
    agreement = false;
  }
  std::vector<std::string> telemetry_rows;
  std::printf("\ntelemetry overhead: campaign with metrics + tracing fully "
              "on vs off (<= 2%% gate, records bit-identical)\n");
  if (!bench_telemetry_overhead(self_check_only, telemetry_rows)) {
    agreement = false;
  }
  doc.add_raw("campaigns", benchutil::json_array(campaign_rows));
  doc.add_raw("campaign_scaling", benchutil::json_array(scaling_rows));
  doc.add_raw("campaign_federation", benchutil::json_array(federation_rows));
  doc.add_raw("coordinator_durability",
              benchutil::json_array(durability_rows));
  doc.add_raw("telemetry_overhead", benchutil::json_array(telemetry_rows));
  doc.add("hardware_threads",
          static_cast<double>(std::thread::hardware_concurrency()));

  // Self-check mode shrinks the workloads: the gates are bit-exact equality
  // checks, so one rep over fewer queries proves as much as forty.
  const auto queries =
      benchutil::env_u64("HDTEST_PACKED_QUERIES", self_check_only ? 64 : 256);
  const auto reps =
      benchutil::env_u64("HDTEST_PACKED_REPS", self_check_only ? 1 : 40);
  const auto encode_images =
      benchutil::env_u64("HDTEST_ENCODE_IMAGES", self_check_only ? 4 : 16);
  const auto encode_reps =
      benchutil::env_u64("HDTEST_ENCODE_REPS", self_check_only ? 1 : 4);
  const auto mutants =
      benchutil::env_u64("HDTEST_MUTANTS", self_check_only ? 32 : 256);
  const auto mutant_reps =
      benchutil::env_u64("HDTEST_MUTANT_REPS", self_check_only ? 1 : 8);
  const auto block_queries =
      benchutil::env_u64("HDTEST_BLOCK_QUERIES", self_check_only ? 96 : 512);
  const auto block_reps =
      benchutil::env_u64("HDTEST_BLOCK_REPS", self_check_only ? 1 : 20);

  // Provenance: every committed baseline names the commit, the CPU, and the
  // backend the top-level sections ran under.
  const std::string active_backend = util::simd::kernels().name;
  doc.add("kernel_backend", active_backend);
  doc.add("cpu_features", util::simd::cpu_features_string());
  doc.add("git_sha", benchutil::git_sha());
  std::printf("\ndetected kernel backend: %s (cpu: %s; available:",
              active_backend.c_str(),
              util::simd::cpu_features_string().c_str());
  for (const auto* backend : util::simd::available_kernels()) {
    std::printf(" %s", backend->name);
  }
  std::printf(")\n");

  // Dense / PR 1 reference measurements, once, under forced SWAR (the PR 1
  // pipeline was portable scalar code).
  const std::size_t inference_dims[] = {1024, 4096, 8192, 16384};
  const std::size_t encode_dims[] = {1024, 4096, 8192};
  const std::size_t mutant_dims[] = {1024, 4096, 8192};
  // {dim, classes}: the paper's 10-class shape plus a many-class case whose
  // prototype matrix (128 x 1 KiB) overflows L1, where query blocking pays.
  const std::size_t block_cases[][2] = {
      {4096, 10}, {8192, 10}, {16384, 10}, {8192, 128}};
  util::simd::set_kernels_for_testing("swar");
  std::printf("\nmeasuring dense / PR 1 baselines (backend swar) ...\n");
  std::vector<InferenceBaseline> inference_bases;
  for (const auto dim : inference_dims) {
    inference_bases.push_back(make_inference_baseline(dim, queries, reps));
  }
  std::vector<EncodeBaseline> encode_bases;
  for (const auto dim : encode_dims) {
    encode_bases.push_back(make_encode_baseline(dim, encode_images, encode_reps));
  }
  std::vector<MutantBaseline> mutant_bases;
  for (const auto dim : mutant_dims) {
    mutant_bases.push_back(make_mutant_baseline(dim, mutants, mutant_reps));
  }
  std::vector<BlockBaseline> block_bases;
  for (const auto& [dim, classes] : block_cases) {
    block_bases.push_back(
        make_block_baseline(dim, classes, block_queries, block_reps));
  }

  // The four micro sections, once per available backend. The gates are the
  // point in self-check mode; the timings feed the per-backend JSON
  // sections, with the active (auto-selected) backend's numbers doubling as
  // the top-level sections so the baseline stays comparable PR-over-PR.
  util::CsvWriter packed_csv(benchutil::out_dir() + "/packed_inference.csv");
  packed_csv.header({"backend", "dim", "dense_us_per_query",
                     "packed_us_per_query", "speedup"});
  util::CsvWriter encode_csv(benchutil::out_dir() + "/full_encode.csv");
  encode_csv.header({"backend", "dim", "dense_us_per_image",
                     "bitsliced_us_per_image", "speedup"});
  util::CsvWriter mutant_csv(benchutil::out_dir() + "/mutant_loop.csv");
  mutant_csv.header({"backend", "dim", "legacy_us_per_mutant",
                     "dense_free_us_per_mutant", "speedup"});
  util::CsvWriter block_csv(benchutil::out_dir() + "/predict_block.csv");
  block_csv.header({"backend", "dim", "classes", "pr1_per_query_us",
                    "blocked_us", "speedup_vs_pr1"});

  double inference_speedup_8192 = 0.0;
  double encode_speedup_8192 = 0.0;
  double mutant_speedup_8192 = 0.0;
  double active_block_us_8192 = 0.0;
  double pr1_per_query_us_8192 = 0.0;
  std::vector<std::string> backend_docs;
  for (const auto* backend : util::simd::available_kernels()) {
    util::simd::set_kernels_for_testing(backend->name);
    const char* name = backend->name;
    const bool is_active = active_backend == name;

    std::printf("\n=== backend %s ===\n", name);
    std::printf("packed predict_batch vs dense per-sample predict "
                "(10 classes, %zu queries x %zu reps per dim)\n",
                queries, reps);
    std::vector<std::string> inference_rows;
    for (const auto& base : inference_bases) {
      const auto speedup = bench_packed_inference(
          name, base, reps, packed_csv, inference_rows, &agreement);
      if (is_active && base.dim == 8192) inference_speedup_8192 = speedup;
    }

    std::printf("bit-sliced full encode vs dense per-pixel encode "
                "(28x28 images, %zu images x %zu reps per dim)\n",
                encode_images, encode_reps);
    std::vector<std::string> encode_rows;
    for (const auto& base : encode_bases) {
      const auto speedup = bench_full_encode(name, base, encode_reps,
                                             encode_csv, encode_rows,
                                             &agreement);
      if (is_active && base.dim == 8192) encode_speedup_8192 = speedup;
    }

    std::printf("mutant loop: dense-free packed vs PR 1 dense path "
                "(encode+predict+fitness, 4 changed pixels, %zu mutants x "
                "%zu reps per dim)\n",
                mutants, mutant_reps);
    std::vector<std::string> mutant_rows;
    for (const auto& base : mutant_bases) {
      const auto speedup = bench_mutant_loop(name, base, mutant_reps,
                                             mutant_csv, mutant_rows,
                                             &agreement);
      if (is_active && base.dim == 8192) mutant_speedup_8192 = speedup;
    }

    std::printf("query-blocked AM sweep vs PR 1 per-query packed predict "
                "(10 classes, %zu queries x %zu reps per dim)\n",
                block_queries, block_reps);
    std::vector<std::string> block_rows;
    for (const auto& base : block_bases) {
      const auto block_us = bench_predict_block(name, base, block_reps,
                                                block_csv, block_rows,
                                                &agreement);
      if (base.dim == 8192 && base.classes == 10) {
        pr1_per_query_us_8192 = base.pr1_us;
        if (is_active) active_block_us_8192 = block_us;
      }
    }

    const auto backend_doc =
        JsonObject()
            .add("name", name)
            .add_raw("packed_inference", benchutil::json_array(inference_rows))
            .add_raw("full_encode", benchutil::json_array(encode_rows))
            .add_raw("mutant_loop", benchutil::json_array(mutant_rows))
            .add_raw("predict_block", benchutil::json_array(block_rows));
    backend_docs.push_back(backend_doc.str());
    if (is_active) {
      doc.add_raw("packed_inference", benchutil::json_array(inference_rows));
      doc.add_raw("full_encode", benchutil::json_array(encode_rows));
      doc.add_raw("mutant_loop", benchutil::json_array(mutant_rows));
      doc.add_raw("predict_block", benchutil::json_array(block_rows));
    }
  }
  util::simd::set_kernels_for_testing(nullptr);
  doc.add_raw("backends", benchutil::json_array(backend_docs));

  // Serving cold-start + the save -> map -> predict_batch round-trip gate.
  const auto load_reps =
      benchutil::env_u64("HDTEST_LOAD_REPS", self_check_only ? 1 : 10);
  std::printf("\nmodel cold-start: v3 stream load vs v3 mmap "
              "(%zu reps; gate: mapped predictions bit-exact, zero "
              "rebuilds/regenerations)\n",
              load_reps);
  std::vector<std::string> model_load_rows;
  if (self_check_only) {
    bench_model_load(1024, load_reps, model_load_rows, &agreement);
  } else {
    for (const std::size_t dim : {1024, 4096, 8192}) {
      bench_model_load(dim, load_reps, model_load_rows, &agreement);
    }
  }
  doc.add_raw("model_load", benchutil::json_array(model_load_rows));

  // Stored mirrors vs rematerializing codebooks: encode cost, campaign
  // throughput, artifact bytes — plus the records-identical gate.
  std::printf("\nrematerialize crossover: stored mirrors vs on-the-fly "
              "codebook regeneration (gate: campaign records bit-identical, "
              "remat v3 file smaller)\n");
  std::vector<std::string> remat_rows;
  if (!bench_rematerialize_crossover(self_check_only, remat_rows)) {
    agreement = false;
  }
  doc.add_raw("rematerialize_crossover", benchutil::json_array(remat_rows));

  // The tentpole acceptance gate: the blocked sweep on the best backend vs
  // the PR 1 steady state (per-query packed predict on portable SWAR).
  const double block_vs_pr1 = active_block_us_8192 > 0.0
                                  ? pr1_per_query_us_8192 / active_block_us_8192
                                  : 0.0;
  doc.add("predict_block_vs_pr1_speedup_8192", block_vs_pr1);

  std::printf("\ndim=8192 speedups (backend %s): inference %.1fx (floor 2x), "
              "full encode %.1fx (floor 3x), mutant loop %.1fx (floor 2x)\n",
              active_backend.c_str(), inference_speedup_8192,
              encode_speedup_8192, mutant_speedup_8192);
  std::printf("predict_block (%s) vs PR 1 per-query packed (swar): %.1fx at "
              "D=8192%s\n",
              active_backend.c_str(), block_vs_pr1,
              active_backend == "swar" ? "" : " (floor 1.5x)");
  std::printf("CSVs written to %s/\n", benchutil::out_dir().c_str());
  doc.add("self_check_passed", agreement);

  if (!json_path.empty()) {
    if (benchutil::write_json(json_path, doc.str())) {
      std::printf("JSON written to %s\n", json_path.c_str());
    } else {
      std::printf("ERROR: could not write JSON to %s\n", json_path.c_str());
      return 1;
    }
  }
  if (!agreement) {
    std::printf("FAILURE: packed kernels disagreed with the dense path\n");
    return 1;
  }
  std::printf("self-check: all packed kernels bit-exact with the dense path\n");
  return 0;
}
