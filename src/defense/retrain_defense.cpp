#include "defense/retrain_defense.hpp"

#include <stdexcept>
#include <vector>

#include "hdc/packed_hv.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace hdtest::defense {

void DefenseConfig::validate() const {
  // Written so that NaN, which fails every comparison, is rejected too.
  if (!(retrain_fraction > 0.0 && retrain_fraction < 1.0)) {
    throw std::invalid_argument(
        "DefenseConfig: retrain_fraction must be in (0, 1)");
  }
  if (epochs == 0) {
    throw std::invalid_argument("DefenseConfig: epochs must be >= 1");
  }
}

data::Dataset collect_adversarials(const fuzz::CampaignResult& campaign,
                                   std::size_t num_classes) {
  data::Dataset pool;
  pool.num_classes = static_cast<int>(num_classes);
  for (const auto& record : campaign.records) {
    if (!record.outcome.success) continue;
    pool.images.push_back(record.outcome.adversarial);
    // The correct label of an adversarial image is the reference prediction
    // on its original — label-free by construction.
    pool.labels.push_back(static_cast<int>(record.outcome.reference_label));
  }
  pool.validate();
  return pool;
}

namespace {

/// Fraction of \p attack set that still fools \p model: an attack image
/// "succeeds" when the model predicts anything other than its correct
/// label. One query-blocked packed batch (bit-exact with per-image
/// predict()).
double attack_success_rate(const hdc::HdcClassifier& model,
                           const data::Dataset& attack) {
  if (attack.empty()) return 0.0;
  const auto predictions = model.predict_batch(attack.images);
  std::size_t fooled = 0;
  for (std::size_t i = 0; i < attack.size(); ++i) {
    fooled += predictions[i] != static_cast<std::size_t>(attack.labels[i]);
  }
  return static_cast<double>(fooled) / static_cast<double>(attack.size());
}

}  // namespace

DefenseResult run_defense(hdc::HdcClassifier& model,
                          const data::Dataset& adversarials,
                          const data::Dataset& clean_test,
                          const DefenseConfig& config) {
  config.validate();
  adversarials.validate();
  if (adversarials.size() < 2) {
    throw std::invalid_argument("run_defense: need at least 2 adversarials");
  }

  // Random split of the pool (paper: "randomly split such 1000 images").
  data::Dataset pool = adversarials;
  util::Rng rng(config.split_seed);
  pool.shuffle(rng);
  auto [retrain_set, attack_set] = pool.split(config.retrain_fraction);

  DefenseResult result;
  result.pool_size = adversarials.size();
  result.retrain_size = retrain_set.size();
  result.attack_size = attack_set.size();

  result.clean_accuracy_before = model.evaluate(clean_test).accuracy();
  result.attack_rate_before = attack_success_rate(model, attack_set);

  // Encoded-dataset cache: the retrain pool is encoded into packed queries
  // once, and every epoch replays the cache (identical lane updates to
  // re-encoding, see HdcClassifier::retrain_encoded).
  const auto retrain_queries =
      model.encoder().encode_batch_packed(retrain_set.images);
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const auto missed = model.retrain_encoded(
        retrain_queries, retrain_set.labels, config.retrain_mode);
    util::log_info("defense: epoch ", epoch + 1, " corrected ", missed,
                   " mispredictions");
  }

  result.clean_accuracy_after = model.evaluate(clean_test).accuracy();
  result.attack_rate_after = attack_success_rate(model, attack_set);
  util::log_info("defense: attack rate ", result.attack_rate_before, " -> ",
                 result.attack_rate_after);
  return result;
}

}  // namespace hdtest::defense
