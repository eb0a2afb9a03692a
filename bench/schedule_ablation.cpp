/// \file schedule_ablation.cpp
/// Ablation: AFL-style energy scheduling vs the paper's uniform per-input
/// budget, at an equal cap on total model queries.
///
/// The paper's campaign gives every input the same iteration cap. Section
/// V-B shows vulnerability is heavily skewed across inputs, which is exactly
/// when a scheduler pays off: it drains easy inputs in a handful of queries
/// and concentrates the remaining budget on promising stragglers (thin
/// clean margins, rising seed fitness), resuming from the fittest surviving
/// seed instead of restarting. Reported: adversarials found per fixed query
/// budget, for the multi-iteration strategies.

#include <cstdio>

#include "bench_common.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutation.hpp"
#include "fuzz/schedule.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main() {
  using namespace hdtest;
  benchutil::BenchParams params;
  params.fuzz_images = benchutil::env_u64("HDTEST_FUZZ_IMAGES", 60);
  const auto setup = benchutil::make_standard_setup(params);
  benchutil::print_banner("schedule_ablation",
                          "extension: AFL-style energy scheduling vs uniform "
                          "per-input budgets",
                          setup);

  const std::size_t kBudget =
      benchutil::env_u64("HDTEST_SCHED_BUDGET", 30000);

  util::TextTable table;
  table.set_header({"Strategy", "Mode", "Encodes spent", "Solved",
                    "Solved/1K encodes"});
  table.set_alignments({util::Align::kLeft, util::Align::kLeft,
                        util::Align::kRight, util::Align::kRight,
                        util::Align::kRight});
  util::CsvWriter csv(benchutil::out_dir() + "/schedule_ablation.csv");
  csv.header({"strategy", "mode", "encodes", "solved", "solved_per_1k"});

  for (const char* name : {"rand", "row_col_rand"}) {
    const auto strategy = fuzz::make_strategy(name);
    const auto inputs = setup.data.test.take(params.fuzz_images);

    // Scheduled: shared budget, priority-driven allocation with resume.
    fuzz::ScheduleConfig scheduled;
    scheduled.total_encodes = kBudget;
    scheduled.round_encodes = 300;
    scheduled.fuzz.budget = fuzz::default_budget_for_strategy(name);
    scheduled.seed = setup.params.seed;
    const auto sched_result = fuzz::run_scheduled_campaign(
        *setup.model, *strategy, inputs, scheduled);

    // Uniform: the same cap split evenly, independent runs.
    fuzz::FuzzConfig uniform;
    uniform.budget = fuzz::default_budget_for_strategy(name);
    uniform.iter_times = std::max<std::size_t>(
        1, kBudget / inputs.size() / uniform.seeds_per_iteration);
    const fuzz::Fuzzer fuzzer(*setup.model, *strategy, uniform);
    util::Rng master(setup.params.seed);
    std::size_t uniform_solved = 0;
    std::size_t uniform_encodes = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      util::Rng rng = master.child(i);
      const auto outcome = fuzzer.fuzz_one(inputs.images[i], rng);
      uniform_solved += outcome.success;
      uniform_encodes += outcome.encodes;
    }

    const auto add = [&](const char* mode, std::size_t solved,
                         std::size_t encodes) {
      const double per_1k =
          encodes == 0 ? 0.0
                       : 1000.0 * static_cast<double>(solved) /
                             static_cast<double>(encodes);
      table.add_row({name, mode, std::to_string(encodes),
                     std::to_string(solved), util::TextTable::num(per_1k, 2)});
      csv.row(name, mode, encodes, solved, per_1k);
    };
    add("scheduled", sched_result.solved(), sched_result.total_encodes);
    add("uniform", uniform_solved, uniform_encodes);
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "expectation: at matched encode caps the scheduler solves at least as\n"
      "many inputs, with the gap widening when vulnerability is skewed\n"
      "(paper V-B) — easy inputs cost it almost nothing and hard inputs\n"
      "resume instead of restarting. The caps match, the spend does not:\n"
      "budget-rejected mutants cost no encode, so uniform spends far less\n"
      "than its cap.\n");
  std::printf("CSV written to %s/schedule_ablation.csv\n",
              benchutil::out_dir().c_str());
  return 0;
}
