/// \file workloads.cpp
/// The four benchmark workloads. Each builds its inputs from the workload
/// seed, sets up (timed, several times), checks every result it measures
/// against a reference, and fills the metric values BENCHMARK.json declares.
/// Untraced runs fill the end-to-end metrics; traced runs (--trace 1) fill
/// the per-layer metrics from spans recorded around calls into the library.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "data/synthetic_digits.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/fleet/durable/checkpoint.hpp"
#include "fuzz/fleet/durable/journal.hpp"
#include "fuzz/fleet/protocol.hpp"
#include "fuzz/fleet/tcp.hpp"
#include "fuzz/fleet/worker.hpp"
#include "fuzz/shard/plan.hpp"
#include "fuzz/shard/runtime.hpp"
#include "fuzz/shard/seed_bank.hpp"
#include "hdc/serialize.hpp"
#include "replay.hpp"
#include "util/thread_pool.hpp"

namespace hdbench {

namespace data = hdtest::data;
namespace fz = hdtest::fuzz;
namespace hdc = hdtest::hdc;
namespace util = hdtest::util;
namespace fs = std::filesystem;

namespace {

// Sizes shared by every workload (10-class synthetic digits, 28x28). The
// model under test is fixed — its training set and codebooks come from
// kModelSeed — so the workload seed changes only the inputs it is fed: the
// digits to fuzz or serve and the mutation randomness.
constexpr std::uint64_t kModelSeed = 42;
constexpr std::size_t kTrainPerClass = 50;
constexpr std::size_t kTestPerClass = 300;
constexpr std::size_t kSetupReps = 7;
constexpr std::size_t kCampaignDim = 4096;
constexpr std::size_t kServeDim = 8192;

// Campaign shapes: adversarials per round and the worker counts the
// workloads are defined with (capped at the machine's hardware threads).
constexpr std::size_t kRandTarget = 2000;
constexpr std::size_t kGaussTarget = 600;
constexpr std::size_t kRandWorkers = 4;
constexpr std::size_t kFleetWorkers = 3;
constexpr std::size_t kColdStartChunk = 100;
constexpr std::size_t kColdStartChunks = 15;
constexpr std::size_t kMinRounds = 3;

// Serving shape: requests are batches of fresh perturbed digits. Latency
// percentiles are taken per group of rounds, then the median over groups.
constexpr std::size_t kServeWorkers = 4;
constexpr std::size_t kServeBatch = 128;
constexpr std::size_t kServePool = 64 * kServeBatch;
constexpr std::size_t kServeGroup = 50;

std::size_t capped_workers(std::size_t wanted) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(wanted, hw);
}

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Trained model plus the data it came from.
struct Trained {
  data::TrainTestPair data;
  std::unique_ptr<hdc::HdcClassifier> model;
};

struct SetupTimes {
  std::vector<double> generate_s;
  std::vector<double> fit_s;
  std::vector<double> total_s;  ///< generate + fit (+ workload extras)
};

Trained train(std::uint64_t seed, std::size_t dim, SetupTimes& times) {
  const auto t0 = Clock::now();
  Trained t;
  t.data.train = data::make_digit_dataset(kTrainPerClass, kModelSeed);
  t.data.test = data::make_digit_dataset(
      kTestPerClass, util::Rng::stream_seed(seed, kModelSeed));
  const double generate = seconds_since(t0);
  const auto t1 = Clock::now();
  hdc::ModelConfig config;
  config.dim = dim;
  config.seed = kModelSeed;
  config.codebook = hdc::CodebookMode::kStored;
  const auto& first = t.data.train.images.front();
  t.model = std::make_unique<hdc::HdcClassifier>(
      config, first.width(), first.height(),
      static_cast<std::size_t>(t.data.train.num_classes));
  t.model->fit(t.data.train, capped_workers(kRandWorkers));
  const double fit = seconds_since(t1);
  times.generate_s.push_back(generate);
  times.fit_s.push_back(fit);
  times.total_s.push_back(generate + fit);
  return t;
}

/// Sets up kSetupReps times (each one timed) and keeps the last product.
Trained train_repeated(std::uint64_t seed, std::size_t dim,
                       SetupTimes& times) {
  Trained t;
  for (std::size_t r = 0; r < kSetupReps; ++r) t = train(seed, dim, times);
  return t;
}

void stamp_model(WorkloadResult& result, const hdc::HdcClassifier& model) {
  result.dim = model.config().dim;
  result.codebook = hdc::to_string(model.config().codebook);
}

void add_setup_layers(WorkloadResult& result, const SetupTimes& times) {
  result.add_median("data.generate_s", times.generate_s);
  result.add_median("hdc.fit_s", times.fit_s);
}

/// Tallies one whole-campaign comparison into the correctness counters:
/// every record of a mismatching campaign counts as failed.
void check_campaign(WorkloadResult& result, const fz::CampaignResult& got,
                    const fz::CampaignResult& reference) {
  const std::size_t n = std::max(got.records.size(), reference.records.size());
  result.attempted += n;
  if (!fz::identical_records(got, reference)) result.failed += n;
}

/// The stream recipe shared by the runtime, the fleet executor, the cold
/// start probe and the replay: input s % n, RNG from the stream seed.
fz::CampaignRecord record_of(const fz::shard::ShardPlanner& planner,
                             const data::Dataset& inputs, std::size_t stream,
                             fz::FuzzOutcome outcome) {
  fz::CampaignRecord record;
  record.image_index = planner.input_of(stream);
  record.true_label =
      inputs.labels.empty() ? -1 : inputs.labels[record.image_index];
  record.outcome = std::move(outcome);
  return record;
}

/// p50 and p99 of successive sample groups (rounds).
struct Percentiles {
  std::vector<double> p50;
  std::vector<double> p99;

  void add(const std::vector<double>& group) {
    p50.push_back(quantile(group, 0.50));
    p99.push_back(quantile(group, 0.99));
  }
  /// Median over groups: a stall confined to a few rounds cannot move it.
  void report_median(WorkloadResult& result, const std::string& prefix) const {
    result.add_median(prefix + "_p50_ms", p50);
    result.add_median(prefix + "_p99_ms", p99);
  }
};

/// Cold start, defined as on serve_mapped: the workload's model saved as a
/// v3 file, mapped with checksum verify, and its first prediction. Samples
/// are taken in chunks between measured rounds, so they span the run, and
/// reported as the median over chunks of each chunk's p50 and p99. Each
/// label must equal the in-memory model's (the reference label of a stream).
class ColdStarts {
 public:
  ColdStarts(const Trained& t, const fz::CampaignConfig& config,
             const fz::CampaignResult& reference, std::string path)
      : t_(&t),
        reference_(&reference),
        planner_(fz::shard::plan_campaign(config, t.data.test.size())),
        path_(std::move(path)) {
    hdc::save_model(*t.model, path_);
  }

  /// Takes the next chunk of samples (none past kColdStartChunks chunks).
  void sample(WorkloadResult& result) {
    if (chunks_.p50.size() == kColdStartChunks) return;
    std::vector<double> chunk;
    for (std::size_t j = 0; j < kColdStartChunk; ++j, ++taken_) {
      const std::size_t s = taken_ % reference_->records.size();
      const data::Image& input = t_->data.test.images[planner_.input_of(s)];
      const auto t0 = Clock::now();
      const hdc::MappedModel mapped(path_);
      const std::size_t label = mapped.predict(input);
      chunk.push_back(ms(Clock::now() - t0));
      ++result.attempted;
      if (label != reference_->records[s].outcome.reference_label) {
        ++result.failed;
      }
    }
    chunks_.add(chunk);
  }

  /// Completes the sample set and reports its p50 and p99.
  void finish(WorkloadResult& result) {
    while (chunks_.p50.size() < kColdStartChunks) sample(result);
    chunks_.report_median(result, "cold_start");
  }

 private:
  const Trained* t_;
  const fz::CampaignResult* reference_;
  fz::shard::ShardPlanner planner_;
  std::string path_;
  std::size_t taken_ = 0;
  Percentiles chunks_;
};

/// Exact effectiveness metrics of a campaign's records.
void add_campaign_quality(WorkloadResult& result,
                          const fz::CampaignResult& r) {
  const auto successes = static_cast<double>(r.successes());
  result.add("success_rate", r.success_rate());
  result.add("encodes_per_adv",
             static_cast<double>(r.total_encodes()) / successes);
  result.add("avg_l2", r.avg_l2());
}


fz::CampaignConfig campaign_config(std::uint64_t seed, bool gauss,
                                   const fz::MutationStrategy& strategy) {
  fz::CampaignConfig config;
  config.fuzz.budget = fz::default_budget_for_strategy(strategy.name());
  config.target_adversarials = gauss ? kGaussTarget : kRandTarget;
  config.seed = seed;
  config.workers = 1;
  return config;
}

/// Traced replay of the campaign's first streams at one worker, gated on
/// fuzz_one producing identical outcomes on the same streams.
void replay_layers(const Trained& t, const fz::Fuzzer& fuzzer,
                   const fz::CampaignConfig& config, double budget_s,
                   const RunOptions& options, WorkloadResult& result) {
  const data::Dataset& inputs = t.data.test;
  const auto planner = fz::shard::plan_campaign(config, inputs.size());
  SpanLog log;
  ReplayCounts counts;
  std::vector<std::optional<fz::SeedContext>> seeds(inputs.size());
  std::vector<fz::CampaignRecord> replayed;

  const auto start = Clock::now();
  for (std::size_t s = 0;
       s < planner.stream_limit() &&
       (replayed.size() < 2 * kMinRounds || seconds_since(start) < budget_s);
       ++s) {
    const std::size_t i = planner.input_of(s);
    if (!seeds[i].has_value()) {
      const Span span(log, kSpanSeedWarmup);
      seeds[i] = fuzzer.prepare_seed(inputs.images[i]);
    }
    util::Rng rng(planner.stream_seed(s));
    replayed.push_back(record_of(
        planner, inputs, s,
        replay_fuzz_one(fuzzer, *t.model, inputs.images[i], rng, *seeds[i],
                        log, counts)));
  }
  const double wall_s = seconds_since(start);

  // The gate: the untraced library loop on the same streams.
  fz::CampaignResult traced;
  fz::CampaignResult untraced;
  double untraced_s = 0.0;
  for (std::size_t s = 0; s < replayed.size(); ++s) {
    const std::size_t i = planner.input_of(s);
    util::Rng rng(planner.stream_seed(s));
    const auto t0 = Clock::now();
    fz::FuzzOutcome outcome = fuzzer.fuzz_one(inputs.images[i], rng, *seeds[i]);
    untraced_s += seconds_since(t0);
    untraced.records.push_back(
        record_of(planner, inputs, s, std::move(outcome)));
  }
  traced.records = std::move(replayed);
  check_campaign(result, traced, untraced);

  const auto encodes = static_cast<double>(counts.delta_encodes +
                                           counts.full_encodes);
  double stage_self_s = 0.0;
  for (const auto& st : log.stats()) {
    if (st.name != kSpanFuzzOne) stage_self_s += st.self_s;
  }
  const auto streams = static_cast<double>(traced.records.size());
  result.add("fuzz.mutate_us", log.self_us_per_call(kSpanMutate));
  result.add("fuzz.budget_us", log.self_us_per_call(kSpanBudget));
  result.add("fuzz.budget_reject_frac",
             static_cast<double>(counts.rejected) /
                 static_cast<double>(counts.mutants));
  result.add("hdc.encode_delta_us", log.self_us_per_call(kSpanEncodeDelta));
  result.add("hdc.delta_pixels_mean",
             static_cast<double>(counts.delta_pixels) / encodes);
  result.add("hdc.encode_full_us", log.self_us_per_call(kSpanEncodeFull));
  result.add("hdc.encode_fallback_frac",
             static_cast<double>(counts.full_encodes) / encodes);
  result.add("hdc.am_sweep_us", log.self_us_per_call(kSpanSweep));
  result.add("hdc.am_sweep_queries_mean",
             static_cast<double>(counts.sweep_queries) /
                 static_cast<double>(counts.sweeps));
  result.add("fuzz.select_us", log.self_us_per_call(kSpanSelect));
  result.add("fuzz.seed_warmup_us", log.self_us_per_call(kSpanSeedWarmup));
  const std::size_t successes = std::max<std::size_t>(1, traced.successes());
  result.add("fuzz.mutants_per_adv", static_cast<double>(counts.mutants) /
                                         static_cast<double>(successes));
  double iterations = 0.0;
  for (const auto& r : traced.records) {
    iterations += static_cast<double>(r.outcome.iterations);
  }
  result.add("fuzz.iterations_mean", iterations / streams);
  result.add("fuzz.stage_sum_frac", stage_self_s / wall_s);
  result.add("fuzz.replay_overhead",
             log.stat(kSpanFuzzOne).total_s / untraced_s);

  std::printf("replay: %zu streams, %.3f s wall, gate %s\n",
              traced.records.size(), wall_s,
              fz::identical_records(traced, untraced) ? "identical"
                                                      : "MISMATCH");
  std::printf("%s", export_trace(log, wall_s, options.out_dir,
                                 options.workload + "-" +
                                     std::to_string(options.seed))
                        .c_str());
}

}  // namespace

// ---- campaign_rand / campaign_gauss ---------------------------------------

WorkloadResult run_campaign_workload(const RunOptions& options, bool gauss) {
  WorkloadResult result;
  result.workers = gauss ? 1 : capped_workers(kRandWorkers);

  SetupTimes setup;
  const Trained t = train_repeated(options.seed, kCampaignDim, setup);
  stamp_model(result, *t.model);
  const auto strategy = fz::make_strategy(gauss ? "gauss" : "rand");
  const fz::CampaignConfig config =
      campaign_config(options.seed, gauss, *strategy);
  const fz::Fuzzer fuzzer(*t.model, *strategy, config.fuzz);

  // The workers=1 reference every measured campaign must reproduce; it also
  // warms caches and lazy set-up before anything is timed.
  const fz::CampaignResult reference =
      fz::run_campaign(fuzzer, t.data.test, config);
  if (reference.gave_up) {
    throw std::runtime_error("reference campaign gave up");
  }

  const auto start = Clock::now();
  ColdStarts cold(t, config, reference,
                  options.out_dir + "/" + options.workload + "-model.hdm");
  fz::shard::CampaignRuntime runtime(result.workers);
  std::vector<double> adv_per_min;
  std::vector<double> images_per_s;
  std::vector<double> busy;
  Percentiles stream;
  const double round_budget = options.trace ? 0.3 * options.seconds
                                            : options.seconds;
  while (adv_per_min.size() < kMinRounds ||
         seconds_since(start) < round_budget) {
    fz::CampaignConfig round = config;
    round.workers = result.workers;
    const fz::CampaignResult r = runtime.run(fuzzer, t.data.test, round);
    check_campaign(result, r, reference);
    adv_per_min.push_back(60.0 * static_cast<double>(r.successes()) /
                          r.total_seconds);
    images_per_s.push_back(static_cast<double>(r.total_encodes()) /
                           r.total_seconds);
    double fuzzing_s = 0.0;
    std::vector<double> stream_ms;
    for (const auto& rec : r.records) {
      fuzzing_s += rec.outcome.seconds;
      stream_ms.push_back(1e3 * rec.outcome.seconds);
    }
    stream.add(stream_ms);
    busy.push_back(fuzzing_s /
                   (r.total_seconds * static_cast<double>(result.workers)));
    if (!options.trace) {
      cold.sample(result);
      cold.sample(result);
    }
  }

  if (options.trace) {
    add_setup_layers(result, setup);
    result.add_median("shard.busy_frac", busy);
    replay_layers(t, fuzzer, config,
                  std::max(0.5, options.seconds - seconds_since(start)) / 2.0,
                  options, result);
    return result;
  }

  cold.finish(result);
  result.add_median("setup_s", setup.total_s);
  result.add_median("adv_per_min", adv_per_min);
  result.add_median("images_per_s", images_per_s);
  stream.report_median(result, "stream");
  add_campaign_quality(result, reference);
  return result;
}

// ---- serve_mapped -----------------------------------------------------------

WorkloadResult run_serve_workload(const RunOptions& options) {
  WorkloadResult result;
  result.workers = capped_workers(kServeWorkers);
  const std::string path = options.out_dir + "/serve-model.hdm";

  // Set-up: train, save a v3 file, and stream-load it once.
  SetupTimes setup;
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  Trained t;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    t = train(options.seed, kServeDim, setup);
    const auto t0 = Clock::now();
    hdc::save_model(*t.model, path);
    const auto t1 = Clock::now();
    const hdc::HdcClassifier loaded = hdc::load_model(path);
    const auto t2 = Clock::now();
    save_ms.push_back(ms(t1 - t0));
    load_ms.push_back(ms(t2 - t1));
    setup.total_s.back() += 1e-3 * (save_ms.back() + load_ms.back());
    if (loaded.predict(t.data.test.images.front()) !=
        t.model->predict(t.data.test.images.front())) {
      throw std::runtime_error("stream-loaded model disagrees");
    }
  }

  stamp_model(result, *t.model);

  // Requests: fresh gauss-perturbed test digits. A request image whose
  // label differs from its clean source's is an adversarial under the
  // differential oracle; the in-memory model's labels are the reference.
  const auto strategy = fz::make_strategy("gauss");
  const data::Dataset& clean = t.data.test;
  std::vector<data::Image> pool;
  std::vector<std::size_t> source;
  pool.reserve(kServePool);
  for (std::size_t k = 0; k < kServePool; ++k) {
    util::Rng rng(util::Rng::stream_seed(options.seed, k));
    source.push_back(k % clean.size());
    pool.push_back(strategy->mutate(clean.images[source.back()], rng));
  }
  const auto reference = t.model->predict_batch(pool, result.workers);
  const auto clean_labels =
      t.model->predict_batch(clean.images, result.workers);
  std::vector<char> flipped(kServePool, 0);
  double flip_l2 = 0.0;
  std::size_t flips = 0;
  for (std::size_t k = 0; k < kServePool; ++k) {
    if (reference[k] == clean_labels[source[k]]) continue;
    flipped[k] = 1;
    ++flips;
    flip_l2 += fz::measure_perturbation(clean.images[source[k]], pool[k]).l2;
  }
  if (flips == 0) throw std::runtime_error("serve pool holds no adversarial");

  const auto check = [&](std::span<const std::size_t> labels,
                         std::size_t first) {
    result.attempted += labels.size();
    for (std::size_t j = 0; j < labels.size(); ++j) {
      if (labels[j] != reference[first + j]) ++result.failed;
    }
  };

  const auto start = Clock::now();
  std::vector<double> cold_ms;
  std::vector<double> batch_ms;
  Percentiles cold_groups;
  Percentiles batch_groups;
  std::vector<double> images_per_s;
  double served_s = 0.0;
  std::size_t served_flips = 0;
  SpanLog log;
  const double round_budget = options.trace ? 0.5 * options.seconds
                                            : options.seconds;
  const std::size_t min_rounds =
      options.trace ? kMinRounds : kMinRounds * kServeGroup;
  for (std::size_t round = 0;
       round < min_rounds || seconds_since(start) < round_budget; ++round) {
    const std::size_t first = (round * kServeBatch) % kServePool;
    const std::span<const data::Image> batch(pool.data() + first, kServeBatch);
    if (options.trace) {
      // One worker, a span around each library call.
      std::optional<hdc::MappedModel> mapped;
      {
        const Span span(log, "map");
        mapped.emplace(path);
      }
      std::vector<hdc::PackedHv> queries;
      queries.reserve(batch.size());
      for (const auto& image : batch) {
        const Span span(log, kSpanEncodeFull);
        queries.push_back(mapped->encode_packed(image));
      }
      hdc::BlockSweepResult sweep;
      {
        const Span span(log, kSpanSweep);
        sweep = mapped->am().predict_block(queries, 0);
      }
      check(sweep.labels, first);
      continue;
    }
    const auto t0 = Clock::now();
    const hdc::MappedModel mapped(path);
    const std::size_t first_label = mapped.predict(batch.front());
    const auto t1 = Clock::now();
    const auto labels = mapped.predict_batch(batch, result.workers);
    const auto t2 = Clock::now();
    cold_ms.push_back(ms(t1 - t0));
    batch_ms.push_back(ms(t2 - t1));
    images_per_s.push_back(static_cast<double>(kServeBatch) /
                           std::chrono::duration<double>(t2 - t1).count());
    served_s += std::chrono::duration<double>(t2 - t1).count();
    served_flips += static_cast<std::size_t>(
        std::count(flipped.begin() + static_cast<std::ptrdiff_t>(first),
                   flipped.begin() +
                       static_cast<std::ptrdiff_t>(first + kServeBatch),
                   1));
    check(std::span<const std::size_t>(&first_label, 1), first);
    check(labels, first);
    if (batch_ms.size() == kServeGroup) {
      cold_groups.add(cold_ms);
      batch_groups.add(batch_ms);
      cold_ms.clear();
      batch_ms.clear();
    }
  }

  if (options.trace) {
    add_setup_layers(result, setup);
    result.add("hdc.encode_full_us", log.self_us_per_call(kSpanEncodeFull));
    result.add("hdc.encode_fallback_frac", 1.0);
    result.add("hdc.am_sweep_us", log.self_us_per_call(kSpanSweep));
    result.add("hdc.am_sweep_queries_mean", static_cast<double>(kServeBatch));
    std::vector<double> verify_ms;
    std::vector<double> noverify_ms;
    for (int k = 0; k < 50; ++k) {
      auto t0 = Clock::now();
      { const hdc::MappedModel m(path, hdc::MapOptions{true}); }
      verify_ms.push_back(ms(Clock::now() - t0));
      t0 = Clock::now();
      { const hdc::MappedModel m(path, hdc::MapOptions{false}); }
      noverify_ms.push_back(ms(Clock::now() - t0));
    }
    result.add_median("serialize.map_verify_ms", verify_ms);
    result.add_median("serialize.map_noverify_ms", noverify_ms);
    result.add_median("serialize.stream_load_ms", load_ms);
    result.add_median("serialize.save_ms", save_ms);
    result.add("serialize.file_bytes",
               static_cast<double>(fs::file_size(path)));
    std::printf("%s", export_trace(log, seconds_since(start), options.out_dir,
                                   options.workload + "-" +
                                       std::to_string(options.seed))
                          .c_str());
    return result;
  }

  result.add_median("setup_s", setup.total_s);
  result.add_median("images_per_s", images_per_s);
  // A trailing partial group is left out: its p99 rests on fewer samples.
  batch_groups.report_median(result, "stream");
  cold_groups.report_median(result, "cold_start");
  result.add("adv_per_min",
             60.0 * static_cast<double>(served_flips) / served_s);
  result.add("success_rate",
             static_cast<double>(flips) / static_cast<double>(kServePool));
  result.add("encodes_per_adv",
             static_cast<double>(kServePool) / static_cast<double>(flips));
  result.add("avg_l2", flip_l2 / static_cast<double>(flips));
  return result;
}

// ---- fleet_tcp --------------------------------------------------------------

namespace {

/// SliceExecutor decorator timing each leased slice and the gap before it
/// (the commit-and-lease round trip of the previous slice). Per-stream times
/// are the records' own `FuzzOutcome::seconds`, as on the campaigns.
class TimedExecutor final : public fz::fleet::SliceExecutor {
 public:
  TimedExecutor(fz::fleet::SliceExecutor& inner, SpanLog* log) noexcept
      : inner_(&inner), log_(log) {}

  std::vector<fz::CampaignRecord> execute(
      const fz::shard::StreamSlice& slice) override {
    const auto begin = Clock::now();
    if (first_.has_value()) {
      gap_ms.push_back(ms(begin - last_end_));
      if (log_ != nullptr) {
        log_->record(hdtest::obs::kSpanCommit, last_end_, begin);
      }
    } else {
      first_ = begin;
    }
    std::vector<fz::CampaignRecord> records = inner_->execute(slice);
    last_end_ = Clock::now();
    for (const auto& r : records) stream_ms.push_back(1e3 * r.outcome.seconds);
    execute_ms.push_back(ms(last_end_ - begin));
    if (log_ != nullptr) log_->record("execute", begin, last_end_);
    return records;
  }

  [[nodiscard]] std::optional<Clock::time_point> first_execute() const {
    return first_;
  }

  std::vector<double> execute_ms;
  std::vector<double> stream_ms;
  std::vector<double> gap_ms;

 private:
  fz::fleet::SliceExecutor* inner_;
  SpanLog* log_;
  std::optional<Clock::time_point> first_;
  Clock::time_point last_end_{};
};

double file_bytes(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

}  // namespace

WorkloadResult run_fleet_workload(const RunOptions& options) {
  WorkloadResult result;
  // The coordinator's poll loop takes one hardware thread of its own.
  result.workers =
      std::max<std::size_t>(1, capped_workers(kFleetWorkers + 1) - 1);

  SetupTimes setup;
  const Trained t = train_repeated(options.seed, kCampaignDim, setup);
  stamp_model(result, *t.model);
  const auto strategy = fz::make_strategy("gauss");
  const fz::CampaignConfig config =
      campaign_config(options.seed, /*gauss=*/true, *strategy);
  const fz::Fuzzer fuzzer(*t.model, *strategy, config.fuzz);
  // campaign_gauss's records for this seed: the fleet must reproduce them.
  const fz::CampaignResult reference =
      fz::run_campaign(fuzzer, t.data.test, config);
  if (reference.gave_up) {
    throw std::runtime_error("reference campaign gave up");
  }
  const auto planner = fz::shard::plan_campaign(config, t.data.test.size());
  const std::uint64_t fingerprint =
      fz::fleet::campaign_fingerprint(planner, config.target_adversarials);
  const fs::path journal_dir = fs::path(options.out_dir) / "fleet-journal";

  std::vector<double> connect_s;
  std::vector<double> adv_per_min;
  std::vector<double> images_per_s;
  Percentiles stream;
  std::vector<double> execute_ms;
  std::vector<double> gap_ms;
  std::vector<double> busy;
  std::vector<double> commits;
  std::size_t rejected = 0;
  std::size_t reissued = 0;
  double checkpoint_bytes = 0.0;
  double journal_bytes = 0.0;
  SpanLog merged;

  const auto start = Clock::now();
  ColdStarts cold(t, config, reference,
                  options.out_dir + "/" + options.workload + "-model.hdm");
  while (adv_per_min.size() < kMinRounds ||
         seconds_since(start) < options.seconds) {
    fs::remove_all(journal_dir);
    const auto round_start = Clock::now();
    fz::fleet::TcpCoordinator::Options copts;
    copts.strategy_name = strategy->name();
    copts.journal_dir = journal_dir.string();
    copts.linger_ms = 500;
    fz::fleet::TcpCoordinator coordinator(planner, config.target_adversarials,
                                          copts);

    std::atomic<bool> stop{false};
    std::vector<std::unique_ptr<fz::shard::SeedBank>> banks;
    std::vector<std::unique_ptr<fz::fleet::FuzzSliceExecutor>> inner;
    std::vector<std::unique_ptr<SpanLog>> logs;
    std::vector<std::unique_ptr<TimedExecutor>> timed;
    std::vector<Clock::time_point> exited(result.workers);
    std::vector<char> clean(result.workers, 0);
    for (std::size_t w = 0; w < result.workers; ++w) {
      banks.push_back(
          std::make_unique<fz::shard::SeedBank>(fuzzer, t.data.test));
      inner.push_back(std::make_unique<fz::fleet::FuzzSliceExecutor>(
          planner, fuzzer, t.data.test, banks.back().get()));
      logs.push_back(
          std::make_unique<SpanLog>(static_cast<std::uint32_t>(w + 1)));
      timed.push_back(std::make_unique<TimedExecutor>(
          *inner.back(), options.trace ? logs.back().get() : nullptr));
    }
    // jthreads join on every exit path, before anything they borrow dies.
    std::vector<std::jthread> threads;
    for (std::size_t w = 0; w < result.workers; ++w) {
      threads.emplace_back([&, w] {
        fz::fleet::TcpWorker::Options wopts;
        wopts.port = coordinator.port();
        wopts.backoff_seed = options.seed + w;
        fz::fleet::TcpWorker worker(fingerprint, *timed[w], wopts);
        bool ok = false;
        try {
          ok = worker.run(&stop);
        } catch (...) {
          ok = false;
        }
        exited[w] = Clock::now();
        clean[w] = ok;
        if (!ok) stop.store(true);
      });
    }
    const auto run_start = Clock::now();
    fz::CampaignResult fleet;
    try {
      fleet = coordinator.run(&stop);
    } catch (...) {
      stop.store(true);  // release the workers before the joins
      throw;
    }
    for (auto& th : threads) th.join();

    check_campaign(result, fleet, reference);
    const auto& stats = coordinator.stats();
    result.attempted += stats.commits_accepted + stats.commits_rejected;
    result.failed += stats.commits_rejected + stats.leases_reissued;
    result.failed += static_cast<std::size_t>(
        std::count(clean.begin(), clean.end(), 0));
    rejected += stats.commits_rejected;
    reissued += stats.leases_reissued;
    commits.push_back(static_cast<double>(stats.commits_accepted));

    // The campaign is decided when the first worker is told to shut down;
    // the coordinator's linger for the others is not campaign time.
    const double wall_s = std::chrono::duration<double>(
                              *std::min_element(exited.begin(), exited.end()) -
                              run_start)
                              .count();
    Clock::time_point all_connected = round_start;
    double executing_s = 0.0;
    std::vector<double> stream_ms;
    for (const auto& te : timed) {
      if (te->first_execute().has_value()) {
        all_connected = std::max(all_connected, *te->first_execute());
      }
      for (const double e : te->execute_ms) executing_s += 1e-3 * e;
      execute_ms.insert(execute_ms.end(), te->execute_ms.begin(),
                        te->execute_ms.end());
      gap_ms.insert(gap_ms.end(), te->gap_ms.begin(), te->gap_ms.end());
      stream_ms.insert(stream_ms.end(), te->stream_ms.begin(),
                       te->stream_ms.end());
    }
    stream.add(stream_ms);
    for (const auto& l : logs) merged.merge(*l);
    connect_s.push_back(
        std::chrono::duration<double>(all_connected - round_start).count());
    adv_per_min.push_back(60.0 * static_cast<double>(fleet.successes()) /
                          wall_s);
    images_per_s.push_back(static_cast<double>(fleet.total_encodes()) /
                           wall_s);
    busy.push_back(executing_s /
                   (wall_s * static_cast<double>(result.workers)));
    checkpoint_bytes =
        file_bytes(journal_dir / fz::fleet::durable::kCheckpointName);
    journal_bytes = file_bytes(journal_dir / fz::fleet::durable::kJournalName);
    if (!options.trace) {
      cold.sample(result);
      cold.sample(result);
    }
  }
  fs::remove_all(journal_dir);

  if (options.trace) {
    add_setup_layers(result, setup);
    result.add_median("fleet.execute_ms_p50", execute_ms);
    result.add_quantile("fleet.commit_wait_ms_p50", gap_ms, 0.50);
    result.add_quantile("fleet.commit_wait_ms_p99", gap_ms, 0.99);
    result.add_median("fleet.busy_frac", busy);
    result.add_median("fleet.commits", commits);
    result.add("fleet.commits_rejected", static_cast<double>(rejected));
    result.add("fleet.leases_reissued", static_cast<double>(reissued));
    result.add("durable.checkpoint_bytes", checkpoint_bytes);
    result.add("durable.journal_bytes", journal_bytes);
    // Shares are of total worker time: every worker is one trace lane.
    std::printf("%s", export_trace(merged,
                                   seconds_since(start) *
                                       static_cast<double>(result.workers),
                                   options.out_dir,
                                   options.workload + "-" +
                                       std::to_string(options.seed))
                          .c_str());
    return result;
  }

  std::vector<double> setup_s;
  const double connect = quantile(connect_s, 0.5);
  for (const double s : setup.total_s) setup_s.push_back(s + connect);
  result.add_median("setup_s", setup_s);
  result.add_median("adv_per_min", adv_per_min);
  result.add_median("images_per_s", images_per_s);
  stream.report_median(result, "stream");
  cold.finish(result);
  add_campaign_quality(result, reference);
  return result;
}

}  // namespace hdbench
