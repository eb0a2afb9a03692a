/// \file encoding_gbench.cpp
/// google-benchmark microbenchmarks for image encoding — the ablation behind
/// DESIGN.md decision 3 (incremental delta re-encoding).
///
/// Expected shape: full encode costs O(W*H) pixel-HV accumulations; the
/// incremental re-encoder costs O(changed pixels), so sparse fuzzing
/// mutations (rand: 3 pixels, row: 28 pixels) re-encode 5-100x faster. The
/// training-path encode_into (no bipolarize) is also measured.

#include <benchmark/benchmark.h>

#include "data/synthetic_digits.hpp"
#include "hdc/encoder.hpp"
#include "util/rng.hpp"

namespace {

using namespace hdtest;

hdc::ModelConfig bench_config(std::size_t dim) {
  hdc::ModelConfig config;
  config.dim = dim;
  config.seed = 99;
  return config;
}

data::Image sample_digit() {
  util::Rng rng(5);
  return data::render_digit(8, rng);
}

void BM_FullEncode(benchmark::State& state) {
  const hdc::PixelEncoder enc(bench_config(static_cast<std::size_t>(state.range(0))),
                              28, 28);
  const auto img = sample_digit();
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(img));
  }
}
BENCHMARK(BM_FullEncode)->Arg(1024)->Arg(4096)->Arg(10000);

void BM_EncodeIntoAccumulator(benchmark::State& state) {
  const hdc::PixelEncoder enc(bench_config(static_cast<std::size_t>(state.range(0))),
                              28, 28);
  const auto img = sample_digit();
  hdc::Accumulator acc(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    acc.clear();
    enc.encode_into(img, acc);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_EncodeIntoAccumulator)->Arg(4096);

/// Incremental re-encode with state.range(1) changed pixels.
void BM_IncrementalEncode(benchmark::State& state) {
  const hdc::PixelEncoder enc(bench_config(static_cast<std::size_t>(state.range(0))),
                              28, 28);
  const auto base = sample_digit();
  hdc::IncrementalPixelEncoder inc(enc);
  inc.rebase(base);
  auto mutant = base;
  util::Rng rng(7);
  for (std::int64_t i = 0; i < state.range(1); ++i) {
    const auto row = static_cast<std::size_t>(rng.uniform_u64(28));
    const auto col = static_cast<std::size_t>(rng.uniform_u64(28));
    mutant(row, col) = static_cast<std::uint8_t>(rng.uniform_u64(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(inc.encode_mutant_packed(mutant));
  }
}
BENCHMARK(BM_IncrementalEncode)
    ->Args({4096, 3})    // 'rand' strategy footprint
    ->Args({4096, 28})   // one row ('row_rand')
    ->Args({4096, 200})  // heavy mutation
    ->Args({10000, 3});

void BM_TrainOneImage(benchmark::State& state) {
  // The paper's training inner loop: encode + add into a class lane.
  const auto dim = static_cast<std::size_t>(state.range(0));
  const hdc::PixelEncoder enc(bench_config(dim), 28, 28);
  const auto img = sample_digit();
  hdc::Accumulator class_lane(dim);
  for (auto _ : state) {
    class_lane.add(enc.encode(img));
    benchmark::DoNotOptimize(class_lane);
  }
}
BENCHMARK(BM_TrainOneImage)->Arg(4096);

void BM_NGramEncodeText(benchmark::State& state) {
  const hdc::NGramTextEncoder enc(bench_config(4096),
                                  "abcdefghijklmnopqrstuvwxyz ", 3);
  const std::string text(static_cast<std::size_t>(state.range(0)), 'q');
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(text));
  }
}
BENCHMARK(BM_NGramEncodeText)->Arg(100)->Arg(500);

}  // namespace

BENCHMARK_MAIN();
