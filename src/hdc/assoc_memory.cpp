#include "hdc/assoc_memory.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace hdtest::hdc {

AssociativeMemory::AssociativeMemory(std::size_t num_classes, std::size_t dim,
                                     std::uint64_t seed, Similarity similarity)
    : dim_(dim), similarity_(similarity) {
  if (num_classes == 0) {
    throw std::invalid_argument("AssociativeMemory: need at least one class");
  }
  if (dim == 0) {
    throw std::invalid_argument("AssociativeMemory: dim must be non-zero");
  }
  accumulators_.reserve(num_classes);
  for (std::size_t c = 0; c < num_classes; ++c) {
    accumulators_.emplace_back(dim);
  }
  util::Rng rng(util::derive_seed(seed, 0x7ab5ULL));
  tie_break_ = Hypervector::random(dim, rng);
}

void AssociativeMemory::add(std::size_t cls, const Hypervector& hv, int weight) {
  if (cls >= accumulators_.size()) {
    throw std::out_of_range("AssociativeMemory::add: class index out of range");
  }
  accumulators_[cls].add(hv, weight);
  finalized_ = false;
}

void AssociativeMemory::add_packed(std::size_t cls, const PackedHv& hv,
                                   int weight) {
  if (cls >= accumulators_.size()) {
    throw std::out_of_range(
        "AssociativeMemory::add_packed: class index out of range");
  }
  if (hv.dim() != dim_) {
    throw std::invalid_argument(
        "AssociativeMemory::add_packed: dimension mismatch");
  }
  accumulators_[cls].add_packed(hv.words(), weight);
  finalized_ = false;
}

void AssociativeMemory::restore_finalized(std::vector<Accumulator> accumulators,
                                          PackedAssocMemory packed) {
  if (accumulators.size() != accumulators_.size()) {
    throw std::invalid_argument(
        "AssociativeMemory::restore_finalized: class count mismatch");
  }
  for (const auto& acc : accumulators) {
    if (acc.dim() != dim_) {
      throw std::invalid_argument(
          "AssociativeMemory::restore_finalized: accumulator dim mismatch");
    }
  }
  if (packed.num_classes() != accumulators_.size() || packed.dim() != dim_ ||
      packed.similarity_metric() != similarity_) {
    throw std::invalid_argument(
        "AssociativeMemory::restore_finalized: packed snapshot mismatch");
  }
  accumulators_ = std::move(accumulators);
  packed_ = std::move(packed);
  class_hvs_.clear();
  class_hvs_.reserve(accumulators_.size());
  for (std::size_t c = 0; c < accumulators_.size(); ++c) {
    class_hvs_.push_back(
        PackedHv::from_words(dim_, packed_.class_words(c)).to_dense());
  }
  finalized_ = true;
}

void AssociativeMemory::finalize() {
  class_hvs_.clear();
  class_hvs_.reserve(accumulators_.size());
  for (const auto& acc : accumulators_) {
    class_hvs_.push_back(acc.bipolarize(tie_break_));
  }
  packed_ = PackedAssocMemory(class_hvs_, similarity_);
  finalized_ = true;
}

const Hypervector& AssociativeMemory::class_hv(std::size_t cls) const {
  if (!finalized_) {
    throw std::logic_error("AssociativeMemory: finalize() before class_hv()");
  }
  if (cls >= class_hvs_.size()) {
    throw std::out_of_range("AssociativeMemory::class_hv: class index out of range");
  }
  return class_hvs_[cls];
}

const Accumulator& AssociativeMemory::accumulator(std::size_t cls) const {
  if (cls >= accumulators_.size()) {
    throw std::out_of_range("AssociativeMemory::accumulator: class index out of range");
  }
  return accumulators_[cls];
}

std::vector<double> AssociativeMemory::similarities(
    const Hypervector& query) const {
  if (!finalized_) {
    throw std::logic_error("AssociativeMemory: finalize() before similarities()");
  }
  std::vector<double> sims;
  sims.reserve(class_hvs_.size());
  for (const auto& ref : class_hvs_) {
    sims.push_back(similarity_ == Similarity::kCosine
                       ? cosine(query, ref)
                       : hamming_similarity(query, ref));
  }
  return sims;
}

std::size_t AssociativeMemory::predict(const Hypervector& query) const {
  const auto sims = similarities(query);
  std::size_t best = 0;
  for (std::size_t c = 1; c < sims.size(); ++c) {
    if (sims[c] > sims[best]) best = c;
  }
  return best;
}

std::vector<double> AssociativeMemory::similarities_packed(
    const PackedHv& query) const {
  if (!finalized_) {
    throw std::logic_error(
        "AssociativeMemory: finalize() before similarities_packed()");
  }
  return packed_.similarities(query);
}

std::size_t AssociativeMemory::predict_packed(const PackedHv& query) const {
  if (!finalized_) {
    throw std::logic_error(
        "AssociativeMemory: finalize() before predict_packed()");
  }
  return packed_.predict(query);
}

const PackedAssocMemory& AssociativeMemory::packed() const {
  if (!finalized_) {
    throw std::logic_error("AssociativeMemory: finalize() before packed()");
  }
  return packed_;
}

double AssociativeMemory::similarity_to(std::size_t cls,
                                        const Hypervector& query) const {
  if (!finalized_) {
    throw std::logic_error("AssociativeMemory: finalize() before similarity_to()");
  }
  if (cls >= class_hvs_.size()) {
    throw std::out_of_range("AssociativeMemory::similarity_to: class index out of range");
  }
  return similarity_ == Similarity::kCosine
             ? cosine(query, class_hvs_[cls])
             : hamming_similarity(query, class_hvs_[cls]);
}

}  // namespace hdtest::hdc
