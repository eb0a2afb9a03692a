/// \file remat_crossover.cpp
/// Stored codebook mirrors vs on-the-fly row regeneration
/// (hdc::CodebookMode::kRemat), the storage/compute trade of binarized
/// bundling hardware (Schmuck, Benini & Rahimi). Remat trades mirror bytes,
/// in RAM and in the v3 artifact, for deterministic Rng work per encoded
/// pixel. This bench measures both sides of the trade at D=4096/8192/16384:
/// full-encode cost, end-to-end campaign throughput and v3 file bytes.
///
/// It also gates the contract that the trade is behavior-invisible: the
/// campaign records must be bit-identical across storage modes
/// (fuzz::identical_records), and the remat v3 file must be smaller, because
/// it drops the codebook mirror sections. Either failure exits 1.
///
/// The workload is fixed (no env knobs, no flags): 20 training and 6 test
/// images per class, 6 encode reps, a 20-image gauss campaign on 2 workers.
/// CSV lands in bench_out/rematerialize_crossover.csv.

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_common.hpp"
#include "data/synthetic_digits.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutation.hpp"
#include "hdc/serialize.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace hdtest;
  constexpr std::size_t kEncodeReps = 6;
  constexpr std::size_t kCampaignImages = 20;
  constexpr std::uint64_t kSeed = 4242;

  std::printf("rematerialize crossover: stored mirrors vs on-the-fly "
              "codebook regeneration (gate: campaign records bit-identical, "
              "remat v3 file smaller)\n");
  bool ok = true;
  const auto pair = data::make_digit_train_test(20, 6, kSeed);

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

  for (const std::size_t dim : {4096, 8192, 16384}) {
    hdc::ModelConfig config;
    config.dim = dim;
    config.seed = kSeed;
    config.codebook = hdc::CodebookMode::kStored;
    hdc::HdcClassifier stored(config, 28, 28, 10);
    stored.fit(pair.train);
    config.codebook = hdc::CodebookMode::kRemat;
    hdc::HdcClassifier remat(config, 28, 28, 10);
    remat.fit(pair.train);

    // Full-image packed encode, the path where remat pays its Rng tax.
    const auto encode_us = [&](const hdc::HdcClassifier& model) {
      const util::Stopwatch watch;
      for (std::size_t r = 0; r < kEncodeReps; ++r) {
        for (const auto& image : pair.test.images) {
          (void)model.encoder().encode_packed(image);
        }
      }
      return watch.seconds() * 1e6 /
             static_cast<double>(pair.test.images.size() * kEncodeReps);
    };
    const double stored_encode_us = encode_us(stored);
    const double remat_encode_us = encode_us(remat);
    const double encode_ratio =
        stored_encode_us > 0.0 ? remat_encode_us / stored_encode_us : 0.0;

    // End-to-end campaign throughput + the bit-identity gate. The
    // incremental delta re-encoder dominates the steady state, so the
    // campaign-level gap is far smaller than the full-encode ratio — that
    // is the crossover this bench exists to show.
    const fuzz::GaussNoiseMutation strategy;
    fuzz::FuzzConfig fuzz_config;
    fuzz_config.budget = fuzz::default_budget_for_strategy("gauss");
    const fuzz::Fuzzer stored_fuzzer(stored, strategy, fuzz_config);
    const fuzz::Fuzzer remat_fuzzer(remat, strategy, fuzz_config);
    fuzz::CampaignConfig campaign;
    campaign.fuzz = fuzz_config;
    campaign.max_images = kCampaignImages;
    campaign.workers = 2;
    campaign.seed = kSeed;
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
    const auto stored_bytes =
        static_cast<std::size_t>(std::filesystem::file_size(stored_path));
    const auto remat_bytes =
        static_cast<std::size_t>(std::filesystem::file_size(remat_path));
    if (remat_bytes >= stored_bytes) {
      std::printf("ERROR: remat v3 file (%zu B) not smaller than stored "
                  "(%zu B) at dim=%zu\n",
                  remat_bytes, stored_bytes, dim);
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
                   std::to_string(stored_bytes / 1024),
                   std::to_string(remat_bytes / 1024),
                   identical ? "identical" : "DIVERGED"});
    csv.row(dim, stored_encode_us, remat_encode_us, encode_ratio,
            stored_result.adversarials_per_minute(),
            remat_result.adversarials_per_minute(), stored_bytes, remat_bytes,
            identical ? 1 : 0);
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("(remat regenerates codebook rows from the model seed per "
              "encode instead of reading stored mirrors; the campaign "
              "records gate re-proves the storage mode is behavior-"
              "invisible%s)\n",
              ok ? "" : " — VIOLATED");
  std::printf("CSV written to %s/rematerialize_crossover.csv\n",
              benchutil::out_dir().c_str());
  return ok ? 0 : 1;
}
