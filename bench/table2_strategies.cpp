/// \file table2_strategies.cpp
/// Reproduces **Table II** of the paper: normalized L1/L2 distance, average
/// fuzzing iterations, and time to generate 1K adversarial images for the
/// four evaluated mutation strategies (gauss, rand, row & col rand, shift).
///
/// Paper reference values (MNIST, AMD Ryzen 5 3600):
///   gauss: L1 2.91, L2 0.38, iter 1.46, 173.0 s/1K
///   rand : L1 0.58, L2 0.09, iter 12.18, 228.3 s/1K
///   r&c  : L1 9.45, L2 0.65, iter 7.94, 114.2 s/1K
///   shift: L1 10.19*, L2 0.68*, iter 4.25, 88.4 s/1K  (*not meaningful)
///
/// The reproduction target is the *shape*: rand has the smallest distances
/// and the most iterations; gauss converges in 1-2 iterations; row&col sits
/// between; shift's pixel distances are large-but-not-meaningful. Absolute
/// seconds differ with hardware and the synthetic dataset.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/mutation.hpp"
#include "fuzz/report.hpp"
#include "fuzz/shard/runtime.hpp"
#include "util/stats.hpp"

int main() {
  using namespace hdtest;
  const auto setup = benchutil::make_standard_setup();
  benchutil::print_banner("table2_strategies",
                          "Table II (strategy comparison)", setup);

  // One shard runtime (and worker pool) serves every strategy, but the
  // cells run one at a time: Table II reports per-strategy wall time
  // ("Time Per-1K"), and overlapping jobs in a shared pool would inflate
  // each cell's clock with the others' work. Concurrent grid execution is
  // showcased where per-cell timing is not a reported metric
  // (fig7_per_class, vulnerability_audit).
  fuzz::CampaignConfig cell;  // paper defaults: guided, top-3
  cell.max_images = setup.params.fuzz_images;
  cell.seed = setup.params.seed;
  fuzz::shard::CampaignGrid grid(*setup.model);
  for (const char* name : {"gauss", "rand", "row_col_rand", "shift"}) {
    grid.add(name, setup.data.test, cell);
  }
  // A cell's campaign takes ~10-15 ms at the default size, short enough for
  // scheduler noise to swap close strategies between runs. Each cell runs
  // kRepetitions times and reports the median time; every repetition must
  // reproduce the first one's records.
  constexpr int kRepetitions = 5;
  fuzz::shard::CampaignRuntime runtime(setup.params.workers);
  std::vector<fuzz::CampaignResult> campaigns;
  for (const auto& job : grid.jobs()) {
    auto first = runtime.run(*job.fuzzer, *job.inputs, job.config);
    std::vector<double> seconds{first.total_seconds};
    for (int rep = 1; rep < kRepetitions; ++rep) {
      const auto again = runtime.run(*job.fuzzer, *job.inputs, job.config);
      if (!fuzz::identical_records(first, again)) {
        std::fprintf(stderr, "error: '%s' repetition %d changed the records\n",
                     first.strategy_name.c_str(), rep);
        return 1;
      }
      seconds.push_back(again.total_seconds);
    }
    first.total_seconds = util::percentile(seconds, 50.0);
    std::printf("ran '%s' x%d: %zu/%zu adversarial, median %s, records "
                "identical\n",
                first.strategy_name.c_str(), kRepetitions, first.successes(),
                first.images_fuzzed(),
                util::format_duration(first.total_seconds).c_str());
    campaigns.push_back(std::move(first));
  }

  std::printf("\n%s\n",
              fuzz::render_strategy_table(campaigns).c_str());
  std::printf(
      "paper Table II:          gauss    rand  row&col  shift*\n"
      "  Avg. Norm. Dist. L1     2.91    0.58     9.45   10.19\n"
      "  Avg. Norm. Dist. L2     0.38    0.09     0.65    0.68\n"
      "  Avg. #Iter.             1.46   12.18     7.94    4.25\n"
      "  Time Per-1K (s)        173.0   228.3    114.2    88.4\n"
      "(shift distances flagged not-meaningful by the paper)\n");

  // The time column is printed, not gated: its order is not the paper's.
  std::vector<const fuzz::CampaignResult*> by_time;
  for (const auto& campaign : campaigns) by_time.push_back(&campaign);
  std::stable_sort(by_time.begin(), by_time.end(),
                   [](const auto* a, const auto* b) {
                     return a->time_per_1k_seconds() > b->time_per_1k_seconds();
                   });
  std::string order;
  for (const auto* campaign : by_time) {
    if (!order.empty()) order += " > ";
    order += campaign->strategy_name;
  }
  std::printf(
      "time order, slowest first: measured %s; paper rand > gauss > row&col "
      "> shift\n(the paper full-encodes every mutant, so its time follows "
      "mutants per success and rand is slowest; here a sparse mutant (rand, "
      "row&col) is patched from its parent's bank at a cost per changed "
      "pixel, far below the full encode that gauss and shift pay for "
      "rewriting most pixels, so more mutants no longer mean more time)\n",
      order.c_str());

  const auto dir = benchutil::out_dir();
  fuzz::write_summary_csv(campaigns, dir + "/table2_summary.csv");
  for (const auto& campaign : campaigns) {
    fuzz::write_records_csv(campaign,
                            dir + "/table2_" + campaign.strategy_name + ".csv");
  }
  std::printf("CSV written to %s/table2_*.csv\n", dir.c_str());
  return 0;
}
