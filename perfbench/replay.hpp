#pragma once
/// \file replay.hpp
/// Traced replay of Algorithm 1 (Fuzzer::fuzz_one) from public library
/// calls, with a span around each stage. The replay is only meaningful
/// while its outcomes equal fuzz_one's on the same streams; the campaign
/// workload gates on that before reporting any stage number.

#include <cstddef>

#include "bench.hpp"
#include "fuzz/fuzzer.hpp"

namespace hdbench {

/// Work counts of the replayed stages.
struct ReplayCounts {
  std::size_t mutants = 0;         ///< MutationStrategy::mutate calls
  std::size_t rejected = 0;        ///< mutants the budget discarded
  std::size_t delta_encodes = 0;   ///< encodes that stayed on the delta path
  std::size_t full_encodes = 0;    ///< encodes that fell back to a full encode
  std::size_t delta_pixels = 0;    ///< sum of last_delta_count() over encodes
  std::size_t sweeps = 0;          ///< predict_block calls
  std::size_t sweep_queries = 0;   ///< queries over all predict_block calls
};

/// Span names of the replay (string literals, shared by the report).
inline constexpr const char* kSpanFuzzOne = "fuzz_one";
inline constexpr const char* kSpanMutate = "mutate";
inline constexpr const char* kSpanBudget = "budget";
inline constexpr const char* kSpanRebase = "rebase";
inline constexpr const char* kSpanEncodeDelta = hdtest::obs::kSpanEncode;
inline constexpr const char* kSpanEncodeFull = "encode_full";
inline constexpr const char* kSpanSweep = hdtest::obs::kSpanSweep;
inline constexpr const char* kSpanSelect = "select";
inline constexpr const char* kSpanSeedWarmup = "seed_warmup";

/// Replays fuzzer.fuzz_one(input, rng, seed) stage by stage (guided,
/// incremental-encoder configuration — the library defaults).
/// \throws std::invalid_argument when the fuzzer is configured otherwise.
[[nodiscard]] hdtest::fuzz::FuzzOutcome replay_fuzz_one(
    const hdtest::fuzz::Fuzzer& fuzzer, const hdtest::hdc::HdcClassifier& model,
    const hdtest::data::Image& input, hdtest::util::Rng& rng,
    const hdtest::fuzz::SeedContext& seed, SpanLog& log, ReplayCounts& counts);

}  // namespace hdbench
