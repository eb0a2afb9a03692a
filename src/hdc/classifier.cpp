#include "hdc/classifier.hpp"

#include <algorithm>
#include <stdexcept>

#include "hdc/packed_hv.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace hdtest::hdc {

HdcClassifier::HdcClassifier(const ModelConfig& config, std::size_t width,
                             std::size_t height, std::size_t num_classes)
    : encoder_(config, width, height),
      am_(num_classes, config.dim, util::derive_seed(config.seed, 0xa11ULL),
          config.similarity) {}

void HdcClassifier::fit(const data::Dataset& train, std::size_t workers) {
  if (trained()) {
    throw std::logic_error("HdcClassifier::fit: model already trained; use retrain()");
  }
  train.validate();
  if (train.empty()) {
    throw std::invalid_argument("HdcClassifier::fit: empty training set");
  }
  if (static_cast<std::size_t>(train.num_classes) != am_.num_classes()) {
    throw std::invalid_argument("HdcClassifier::fit: class count mismatch");
  }
  // Encode in parallel chunks (bounding peak memory to kChunk packed HVs),
  // then accumulate sequentially in dataset order, so the model is
  // identical for any worker count.
  constexpr std::size_t kChunk = 256;
  for (std::size_t start = 0; start < train.size(); start += kChunk) {
    const std::size_t len = std::min(kChunk, train.size() - start);
    const auto queries = encoder_.encode_batch_packed(
        std::span<const data::Image>(train.images).subspan(start, len), workers);
    for (std::size_t i = 0; i < len; ++i) {
      am_.add_packed(static_cast<std::size_t>(train.labels[start + i]),
                     queries[i]);
    }
  }
  am_.finalize();
  util::log_info("HdcClassifier: trained on ", train.size(), " images, D=",
                 encoder_.dim());
}

void HdcClassifier::fit_encoded(std::span<const PackedHv> queries,
                                std::span<const int> labels) {
  if (trained()) {
    throw std::logic_error(
        "HdcClassifier::fit_encoded: model already trained; use retrain()");
  }
  if (queries.size() != labels.size()) {
    throw std::invalid_argument(
        "HdcClassifier::fit_encoded: query/label count mismatch");
  }
  if (queries.empty()) {
    throw std::invalid_argument("HdcClassifier::fit_encoded: empty training set");
  }
  for (const auto label : labels) {
    if (label < 0 || static_cast<std::size_t>(label) >= am_.num_classes()) {
      throw std::invalid_argument(
          "HdcClassifier::fit_encoded: label out of range");
    }
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    am_.add_packed(static_cast<std::size_t>(labels[i]), queries[i]);
  }
  am_.finalize();
  util::log_info("HdcClassifier: trained on ", queries.size(),
                 " cached queries, D=", encoder_.dim());
}

void HdcClassifier::restore_trained(std::vector<Accumulator> accumulators,
                                    PackedAssocMemory packed) {
  if (trained()) {
    throw std::logic_error(
        "HdcClassifier::restore_trained: model already trained");
  }
  am_.restore_finalized(std::move(accumulators), std::move(packed));
}

std::size_t HdcClassifier::predict(const data::Image& image) const {
  if (!trained()) {
    throw std::logic_error("HdcClassifier::predict: model not trained");
  }
  return am_.packed().predict(encoder_.encode_packed(image));
}

std::vector<double> HdcClassifier::similarities(const data::Image& image) const {
  if (!trained()) {
    throw std::logic_error("HdcClassifier::similarities: model not trained");
  }
  return am_.packed().similarities(encoder_.encode_packed(image));
}

std::vector<std::size_t> HdcClassifier::predict_batch(
    std::span<const data::Image> images, std::size_t workers) const {
  if (!trained()) {
    throw std::logic_error("HdcClassifier::predict_batch: model not trained");
  }
  // Two packed phases, both worker-count independent: bit-sliced encode +
  // fused bipolarize per image, then the query-blocked AM sweep over the
  // whole batch — every class row is streamed once per query block instead
  // of once per query.
  const auto queries = encoder_.encode_batch_packed(images, workers);
  return am_.packed().predict_batch(std::span<const PackedHv>(queries),
                                    workers);
}

namespace {

/// Prediction census shared by evaluate()/evaluate_encoded().
EvalResult tally(const std::vector<std::size_t>& predictions,
                 std::span<const int> labels, std::size_t num_classes) {
  EvalResult result;
  result.confusion.assign(num_classes,
                          std::vector<std::size_t>(num_classes, 0));
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    const auto truth = static_cast<std::size_t>(labels[i]);
    ++result.total;
    result.correct += predictions[i] == truth;
    ++result.confusion[truth][predictions[i]];
  }
  return result;
}

}  // namespace

EvalResult HdcClassifier::evaluate(const data::Dataset& test,
                                   std::size_t workers) const {
  if (!trained()) {
    throw std::logic_error("HdcClassifier::evaluate: model not trained");
  }
  test.validate();
  return tally(predict_batch(test.images, workers),
               std::span<const int>(test.labels), am_.num_classes());
}

EvalResult HdcClassifier::evaluate_encoded(std::span<const PackedHv> queries,
                                           std::span<const int> labels,
                                           std::size_t workers) const {
  if (!trained()) {
    throw std::logic_error("HdcClassifier::evaluate_encoded: model not trained");
  }
  if (queries.size() != labels.size()) {
    throw std::invalid_argument(
        "HdcClassifier::evaluate_encoded: query/label count mismatch");
  }
  for (const auto label : labels) {
    if (label < 0 || static_cast<std::size_t>(label) >= am_.num_classes()) {
      throw std::invalid_argument(
          "HdcClassifier::evaluate_encoded: label out of range");
    }
  }
  return tally(am_.packed().predict_batch(queries, workers), labels,
               am_.num_classes());
}

std::size_t HdcClassifier::retrain(std::span<const data::Image> images,
                                   std::span<const int> labels,
                                   RetrainMode mode, std::size_t workers) {
  if (!trained()) {
    throw std::logic_error("HdcClassifier::retrain: fit() first");
  }
  if (images.size() != labels.size()) {
    throw std::invalid_argument("HdcClassifier::retrain: image/label count mismatch");
  }
  for (const auto truth : labels) {
    if (truth < 0 || static_cast<std::size_t>(truth) >= am_.num_classes()) {
      throw std::invalid_argument("HdcClassifier::retrain: label out of range");
    }
  }
  // Encode once into packed queries, then run the shared cached-query
  // update.
  const auto queries = encoder_.encode_batch_packed(images, workers);
  return retrain_encoded(queries, labels, mode, workers);
}

std::size_t HdcClassifier::retrain_encoded(std::span<const PackedHv> queries,
                                           std::span<const int> labels,
                                           RetrainMode mode,
                                           std::size_t workers) {
  if (!trained()) {
    throw std::logic_error("HdcClassifier::retrain_encoded: fit() first");
  }
  if (queries.size() != labels.size()) {
    throw std::invalid_argument(
        "HdcClassifier::retrain_encoded: query/label count mismatch");
  }
  for (const auto truth : labels) {
    if (truth < 0 || static_cast<std::size_t>(truth) >= am_.num_classes()) {
      throw std::invalid_argument(
          "HdcClassifier::retrain_encoded: label out of range");
    }
  }
  // Two-phase batch update: all predictions are made against the epoch-start
  // reference HVs (the packed snapshot, fixed until finalize()) through the
  // query-blocked sweep, then all lane updates are applied in example order
  // and the memory is re-finalized once. The updated model is identical for
  // any worker count.
  const auto predictions = am_.packed().predict_batch(queries, workers);
  std::size_t mispredicted = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto truth = static_cast<std::size_t>(labels[i]);
    mispredicted += predictions[i] != truth;
    // Reinforce the correct class for every example ("updating the reference
    // HVs"); under kAddSubtract additionally push the query out of the class
    // it was mistaken for.
    am_.add_packed(truth, queries[i], +1);
    if (mode == RetrainMode::kAddSubtract && predictions[i] != truth) {
      am_.add_packed(predictions[i], queries[i], -1);
    }
  }
  am_.finalize();
  return mispredicted;
}

std::size_t HdcClassifier::retrain(const data::Dataset& labeled,
                                   RetrainMode mode, std::size_t workers) {
  labeled.validate();
  return retrain(std::span<const data::Image>(labeled.images),
                 std::span<const int>(labeled.labels), mode, workers);
}

}  // namespace hdtest::hdc
