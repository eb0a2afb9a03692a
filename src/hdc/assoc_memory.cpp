#include "hdc/assoc_memory.hpp"

#include <stdexcept>

#include "hdc/instrument.hpp"
#include "util/bitops.hpp"
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
  tie_break_ = PackedHv::random(dim, rng);
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
  finalized_ = true;
}

void AssociativeMemory::finalize() {
  const std::size_t stride = util::words_for_bits(dim_);
  std::vector<std::uint64_t> rows;
  rows.reserve(accumulators_.size() * stride);
  for (const auto& acc : accumulators_) {
    const PackedHv row = acc.bipolarize_packed(tie_break_);
    rows.insert(rows.end(), row.words().begin(), row.words().end());
  }
  packed_ = PackedAssocMemory(dim_, accumulators_.size(), similarity_,
                              std::move(rows));
  instrument::note_packed_am_rebuild();
  finalized_ = true;
}

const Accumulator& AssociativeMemory::accumulator(std::size_t cls) const {
  if (cls >= accumulators_.size()) {
    throw std::out_of_range("AssociativeMemory::accumulator: class index out of range");
  }
  return accumulators_[cls];
}

const PackedAssocMemory& AssociativeMemory::packed() const {
  if (!finalized_) {
    throw std::logic_error("AssociativeMemory: finalize() before packed()");
  }
  return packed_;
}

}  // namespace hdtest::hdc
