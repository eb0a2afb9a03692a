#include "hdc/trainer.hpp"

#include <numeric>
#include <stdexcept>
#include <vector>

#include "hdc/packed_hv.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace hdtest::hdc {

void TrainerConfig::validate() const {
  if (target_accuracy < 0.0 || target_accuracy > 1.0) {
    throw std::invalid_argument(
        "TrainerConfig: target_accuracy must be in [0, 1]");
  }
  if (patience == 0) {
    throw std::invalid_argument("TrainerConfig: patience must be >= 1");
  }
  if (workers == 0) {
    throw std::invalid_argument("TrainerConfig: workers must be >= 1");
  }
}

TrainHistory train_with_retraining(HdcClassifier& model,
                                   const data::Dataset& train,
                                   const data::Dataset& validation,
                                   const TrainerConfig& config) {
  config.validate();
  if (model.trained()) {
    throw std::logic_error("train_with_retraining: model already trained");
  }

  // Encoded-dataset cache: every image is encoded into its packed query
  // exactly once (~D/8 bytes each); the one-shot fit, every retraining
  // epoch, and every accuracy evaluation replay the cache instead of
  // re-encoding. Cached fit/retrain/evaluate run the same integer updates
  // as the image overloads, so the model and history are bit-identical to
  // the uncached loop.
  train.validate();
  validation.validate();
  if (static_cast<std::size_t>(train.num_classes) != model.num_classes()) {
    throw std::invalid_argument("train_with_retraining: class count mismatch");
  }
  const auto train_queries =
      model.encoder().encode_batch_packed(train.images, config.workers);
  const auto val_queries =
      model.encoder().encode_batch_packed(validation.images, config.workers);

  TrainHistory history;
  model.fit_encoded(train_queries, train.labels);
  history.train_accuracy.push_back(
      model.evaluate_encoded(train_queries, train.labels, config.workers)
          .accuracy());
  history.val_accuracy.push_back(
      model.evaluate_encoded(val_queries, validation.labels, config.workers)
          .accuracy());
  history.best_epoch = 0;
  history.best_val_accuracy = history.val_accuracy.back();
  util::log_info("trainer: one-shot fit, val accuracy ",
                 history.best_val_accuracy);

  // Epoch ordering state: `order` tracks the cumulative permutation the old
  // per-epoch Dataset::shuffle applied to the epoch set, drawn from the
  // same Rng stream (Dataset::shuffle itself shuffles an index permutation
  // with this exact call), so each epoch visits examples in the identical
  // sequence.
  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<std::size_t> perm(train.size());
  std::vector<PackedHv> epoch_queries;
  std::vector<int> epoch_labels;
  util::Rng shuffle_rng(config.shuffle_seed);
  std::size_t stale_epochs = 0;

  for (std::size_t epoch = 1; epoch <= config.max_epochs; ++epoch) {
    if (history.best_val_accuracy >= config.target_accuracy) break;
    if (config.shuffle_each_epoch) {
      std::iota(perm.begin(), perm.end(), std::size_t{0});
      shuffle_rng.shuffle(perm);
      std::vector<std::size_t> next(order.size());
      for (std::size_t i = 0; i < order.size(); ++i) next[i] = order[perm[i]];
      order = std::move(next);
    }
    epoch_queries.clear();
    epoch_labels.clear();
    epoch_queries.reserve(order.size());
    epoch_labels.reserve(order.size());
    for (const auto i : order) {
      epoch_queries.push_back(train_queries[i]);
      epoch_labels.push_back(train.labels[i]);
    }

    const auto missed = model.retrain_encoded(epoch_queries, epoch_labels,
                                              config.mode, config.workers);
    history.train_accuracy.push_back(
        model.evaluate_encoded(train_queries, train.labels, config.workers)
            .accuracy());
    history.val_accuracy.push_back(
        model.evaluate_encoded(val_queries, validation.labels, config.workers)
            .accuracy());
    util::log_info("trainer: epoch ", epoch, " corrected ", missed,
                   ", val accuracy ", history.val_accuracy.back());

    if (history.val_accuracy.back() > history.best_val_accuracy) {
      history.best_val_accuracy = history.val_accuracy.back();
      history.best_epoch = epoch;
      stale_epochs = 0;
    } else {
      ++stale_epochs;
      if (stale_epochs >= config.patience) break;  // early stop
    }
    if (missed == 0) break;  // training set fully absorbed
  }
  return history;
}

}  // namespace hdtest::hdc
