#include "fuzz/report.hpp"

#include <filesystem>
#include <sstream>

#include "util/csv.hpp"
#include "util/table.hpp"

namespace hdtest::fuzz {

std::string render_strategy_table(
    const std::vector<CampaignResult>& campaigns) {
  util::TextTable table;
  std::vector<std::string> header{"Metric"};
  for (const auto& c : campaigns) header.push_back(c.strategy_name);
  table.set_header(header);
  std::vector<util::Align> aligns{util::Align::kLeft};
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    aligns.push_back(util::Align::kRight);
  }
  table.set_alignments(aligns);

  const auto add_metric = [&](const std::string& name, auto getter,
                              int precision) {
    std::vector<std::string> row{name};
    for (const auto& c : campaigns) {
      row.push_back(util::TextTable::num(getter(c), precision));
    }
    table.add_row(row);
  };
  add_metric("Avg. Norm. Dist. L1",
             [](const CampaignResult& c) { return c.avg_l1(); }, 2);
  add_metric("Avg. Norm. Dist. L2",
             [](const CampaignResult& c) { return c.avg_l2(); }, 2);
  add_metric("Avg. #Iter.",
             [](const CampaignResult& c) { return c.avg_iterations(); }, 2);
  // Three decimals: at one, sub-second strategies tie and cannot be ranked.
  add_metric("Time Per-1K Gen. Img. (s)",
             [](const CampaignResult& c) { return c.time_per_1k_seconds(); }, 3);
  add_metric("Success rate",
             [](const CampaignResult& c) { return c.success_rate(); }, 3);
  add_metric("Adv. per minute",
             [](const CampaignResult& c) { return c.adversarials_per_minute(); },
             1);
  return table.to_string();
}

std::string render_per_class_table(const CampaignResult& campaign,
                                   std::size_t num_classes) {
  const auto classes = campaign.per_class(num_classes);
  util::TextTable table;
  table.set_header({"Class", "Attempts", "Successes", "Avg L1", "Avg L2",
                    "Avg #Iter."});
  table.set_alignments({util::Align::kLeft, util::Align::kRight,
                        util::Align::kRight, util::Align::kRight,
                        util::Align::kRight, util::Align::kRight});
  for (std::size_t c = 0; c < classes.size(); ++c) {
    table.add_row({std::to_string(c), std::to_string(classes[c].attempts),
                   std::to_string(classes[c].successes),
                   util::TextTable::num(classes[c].l1.mean(), 3),
                   util::TextTable::num(classes[c].l2.mean(), 3),
                   util::TextTable::num(classes[c].iterations.mean(), 2)});
  }
  return table.to_string();
}

void write_records_csv(const CampaignResult& campaign,
                       const std::string& path) {
  util::CsvWriter csv(path);
  csv.header({"strategy", "image_index", "true_label", "success",
              "reference_label", "adversarial_label", "iterations", "l1", "l2",
              "linf", "pixels_changed", "encodes", "discarded", "seconds"});
  for (const auto& r : campaign.records) {
    csv.row(campaign.strategy_name, r.image_index, r.true_label,
            r.outcome.success ? 1 : 0, r.outcome.reference_label,
            r.outcome.success ? static_cast<long>(r.outcome.adversarial_label)
                              : -1L,
            r.outcome.iterations, r.outcome.perturbation.l1,
            r.outcome.perturbation.l2, r.outcome.perturbation.linf,
            r.outcome.perturbation.pixels_changed, r.outcome.encodes,
            r.outcome.discarded, r.outcome.seconds);
  }
}

void write_summary_csv(const std::vector<CampaignResult>& campaigns,
                       const std::string& path) {
  util::CsvWriter csv(path);
  csv.header({"strategy", "images", "successes", "success_rate", "avg_l1",
              "avg_l2", "avg_iterations", "time_per_1k_s", "adv_per_minute",
              "total_seconds", "total_encodes"});
  for (const auto& c : campaigns) {
    csv.row(c.strategy_name, c.images_fuzzed(), c.successes(),
            c.success_rate(), c.avg_l1(), c.avg_l2(), c.avg_iterations(),
            c.time_per_1k_seconds(), c.adversarials_per_minute(),
            c.total_seconds, c.total_encodes());
  }
}

std::string dump_samples(const CampaignResult& campaign,
                         const data::Dataset& originals,
                         const std::string& dir, const std::string& prefix,
                         std::size_t max_samples) {
  std::filesystem::create_directories(dir);
  std::ostringstream summary;
  std::size_t dumped = 0;
  for (const auto& r : campaign.records) {
    if (!r.outcome.success) continue;
    if (dumped >= max_samples) break;
    const auto& original = originals.images.at(r.image_index);
    const auto mask = data::diff_mask(original, r.outcome.adversarial);
    const std::string stem =
        dir + "/" + prefix + "_" + std::to_string(dumped);
    data::write_pgm(original, stem + "_original.pgm");
    data::write_pgm(mask, stem + "_mask.pgm");
    data::write_pgm(r.outcome.adversarial, stem + "_adversarial.pgm");
    if (dumped < 2) {
      summary << "sample " << dumped << ": predicted "
              << r.outcome.reference_label << " -> "
              << r.outcome.adversarial_label << " (L1="
              << r.outcome.perturbation.l1 << ", L2="
              << r.outcome.perturbation.l2 << ", pixels="
              << r.outcome.perturbation.pixels_changed << ")\n"
              << "original:\n"
              << data::ascii_art(original) << "adversarial:\n"
              << data::ascii_art(r.outcome.adversarial) << "\n";
    }
    ++dumped;
  }
  summary << dumped << " sample triple(s) written to " << dir << "/" << prefix
          << "_*.pgm\n";
  return summary.str();
}

}  // namespace hdtest::fuzz
