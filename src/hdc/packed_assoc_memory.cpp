#include "hdc/packed_assoc_memory.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "hdc/instrument.hpp"
#include "util/bitops.hpp"
#include "util/simd/kernels.hpp"
#include "util/thread_pool.hpp"

namespace hdtest::hdc {

void PackedAssocMemory::check_words(std::size_t dim, std::size_t num_classes,
                                    std::span<const std::uint64_t> words) {
  if (dim == 0) {
    throw std::invalid_argument("PackedAssocMemory: dim must be non-zero");
  }
  if (num_classes == 0) {
    throw std::invalid_argument("PackedAssocMemory: need at least one class");
  }
  const std::size_t stride = util::words_for_bits(dim);
  if (num_classes > words.size() / stride ||
      words.size() != num_classes * stride) {
    throw std::invalid_argument(
        "PackedAssocMemory: word count does not match dim * classes");
  }
  // The sweep kernels rely on padding bits being zero (they popcount whole
  // words), so reject rows whose tail carries stray bits.
  const std::uint64_t tail = util::tail_mask(dim);
  for (std::size_t c = 0; c < num_classes; ++c) {
    if ((words[c * stride + stride - 1] & ~tail) != 0) {
      throw std::invalid_argument(
          "PackedAssocMemory: non-zero padding bits past dim");
    }
  }
}

PackedAssocMemory::PackedAssocMemory(std::size_t dim, std::size_t num_classes,
                                     Similarity similarity,
                                     std::vector<std::uint64_t> words)
    : dim_(dim),
      num_classes_(num_classes),
      stride_(util::words_for_bits(dim)),
      similarity_(similarity),
      storage_(std::move(words)) {
  check_words(dim, num_classes, storage_);
  data_ = storage_.data();
}

PackedAssocMemory PackedAssocMemory::view(std::size_t dim,
                                          std::size_t num_classes,
                                          Similarity similarity,
                                          std::span<const std::uint64_t> words) {
  check_words(dim, num_classes, words);
  PackedAssocMemory memory;
  memory.dim_ = dim;
  memory.num_classes_ = num_classes;
  memory.stride_ = util::words_for_bits(dim);
  memory.similarity_ = similarity;
  memory.data_ = words.data();
  return memory;
}

PackedAssocMemory::PackedAssocMemory(const PackedAssocMemory& other)
    : dim_(other.dim_),
      num_classes_(other.num_classes_),
      stride_(other.stride_),
      similarity_(other.similarity_),
      storage_(other.storage_) {
  // An owning copy re-points into its own storage; a view copy keeps
  // borrowing the external words.
  data_ = other.owning() ? storage_.data() : other.data_;
}

PackedAssocMemory& PackedAssocMemory::operator=(
    const PackedAssocMemory& other) {
  if (this != &other) *this = PackedAssocMemory(other);
  return *this;
}

PackedAssocMemory::PackedAssocMemory(PackedAssocMemory&& other) noexcept
    : dim_(std::exchange(other.dim_, 0)),
      num_classes_(std::exchange(other.num_classes_, 0)),
      stride_(std::exchange(other.stride_, 0)),
      similarity_(other.similarity_),
      data_(std::exchange(other.data_, nullptr)),
      storage_(std::move(other.storage_)) {
  other.storage_.clear();
}

PackedAssocMemory& PackedAssocMemory::operator=(
    PackedAssocMemory&& other) noexcept {
  if (this != &other) {
    dim_ = std::exchange(other.dim_, 0);
    num_classes_ = std::exchange(other.num_classes_, 0);
    stride_ = std::exchange(other.stride_, 0);
    similarity_ = other.similarity_;
    data_ = std::exchange(other.data_, nullptr);
    storage_ = std::move(other.storage_);
    other.storage_.clear();
  }
  return *this;
}

void PackedAssocMemory::check_query(std::size_t query_dim) const {
  if (empty()) {
    throw std::logic_error("PackedAssocMemory: no class prototypes loaded");
  }
  if (query_dim != dim_) {
    throw std::invalid_argument("PackedAssocMemory: query dimension mismatch");
  }
}

std::span<const std::uint64_t> PackedAssocMemory::class_words(
    std::size_t cls) const {
  if (cls >= num_classes_) {
    throw std::out_of_range("PackedAssocMemory::class_words: class out of range");
  }
  return {data_ + cls * stride_, stride_};
}

std::size_t PackedAssocMemory::predict(const PackedHv& query) const {
  check_query(query.dim());
  // One count=1 sweep submission: the class-row loop and the backend's
  // popcount run fused inside the am_sweep kernel (one indirect call
  // per query instead of one per class row). The sweep's strict < keeps the
  // lowest class index on ties, matching an argmax over similarities()
  // (sims[c] > sims[best]) exactly: dot = D - 2*ham is a strictly
  // decreasing function of ham under both metrics.
  const std::uint64_t* q = query.words().data();
  std::uint32_t best = 0;
  std::uint64_t best_ham = 0;
  util::simd::kernels().am_sweep(data_, num_classes_, stride_, &q, 1, &best,
                                 &best_ham, nullptr, 0);
  return best;
}

std::vector<std::size_t> PackedAssocMemory::hammings(const PackedHv& query) const {
  check_query(query.dim());
  const auto q = query.words();
  std::vector<std::size_t> out(num_classes_);
  for (std::size_t c = 0; c < num_classes_; ++c) {
    out[c] = util::xor_popcount({data_ + c * stride_, stride_}, q);
  }
  return out;
}

std::vector<double> PackedAssocMemory::similarities(const PackedHv& query) const {
  const auto hams = hammings(query);
  std::vector<double> sims(hams.size());
  const auto d = static_cast<double>(dim_);
  for (std::size_t c = 0; c < hams.size(); ++c) {
    if (similarity_ == Similarity::kCosine) {
      // cosine = dot/D with dot = D - 2*ham (exact for bipolar HVs).
      sims[c] = (d - 2.0 * static_cast<double>(hams[c])) / d;
    } else {
      sims[c] = 1.0 - static_cast<double>(hams[c]) / d;
    }
  }
  return sims;
}

double PackedAssocMemory::similarity_to(std::size_t cls,
                                        const PackedHv& query) const {
  check_query(query.dim());
  if (cls >= num_classes_) {
    throw std::out_of_range("PackedAssocMemory::similarity_to: class out of range");
  }
  // Standalone row walk — the blocked sweep returns this score for free, so
  // steady-state fuzzing should not come through here (counted, asserted by
  // tests/fuzz/dense_free_test).
  instrument::note_am_row_walk();
  const auto ham = util::xor_popcount({data_ + cls * stride_, stride_},
                                      query.words());
  const auto d = static_cast<double>(dim_);
  if (similarity_ == Similarity::kCosine) {
    // cosine = dot/D with dot = D - 2*ham (exact for bipolar HVs).
    return (d - 2.0 * static_cast<double>(ham)) / d;
  }
  return 1.0 - static_cast<double>(ham) / d;
}

std::vector<std::size_t> PackedAssocMemory::predict_batch(
    std::span<const PackedHv> queries, std::size_t workers) const {
  if (empty()) {
    throw std::logic_error("PackedAssocMemory: no class prototypes loaded");
  }
  std::vector<std::size_t> labels(queries.size());
  sweep(queries, default_block(), workers, 0, labels.data(), nullptr, nullptr);
  return labels;
}

HDTEST_HOT_PATH void PackedAssocMemory::sweep(std::span<const PackedHv> queries,
                              std::size_t block, std::size_t workers,
                              std::size_t ref_class, std::size_t* out_labels,
                              std::uint64_t* out_best_ham,
                              std::uint64_t* out_ref_ham) const {
  if (empty()) {
    throw std::logic_error("PackedAssocMemory: no class prototypes loaded");
  }
  if (block == 0) block = default_block();
  for (const auto& query : queries) check_query(query.dim());
  if (queries.empty()) return;

  // One pointer per query up front; each block then hands the kernel a
  // contiguous window of pointers plus per-block output slices, so blocks
  // are independent and the parallel split cannot change any result.
  std::vector<const std::uint64_t*> query_words(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    query_words[i] = queries[i].words().data();
  }
  std::vector<std::uint32_t> best_class(queries.size());
  std::vector<std::uint64_t> best_ham_local;
  if (out_best_ham == nullptr) {
    best_ham_local.resize(queries.size());
    out_best_ham = best_ham_local.data();
  }
  const util::simd::Kernels& kernels = util::simd::kernels();
  const std::size_t blocks = (queries.size() + block - 1) / block;
  util::parallel_for(blocks, workers, [&](std::size_t bi) {
    const std::size_t begin = bi * block;
    const std::size_t count = std::min(block, queries.size() - begin);
    kernels.am_sweep(data_, num_classes_, stride_, query_words.data() + begin,
                     count, best_class.data() + begin, out_best_ham + begin,
                     out_ref_ham == nullptr ? nullptr : out_ref_ham + begin,
                     static_cast<std::uint32_t>(ref_class));
  });
  for (std::size_t i = 0; i < queries.size(); ++i) {
    out_labels[i] = best_class[i];
  }
}

HDTEST_HOT_PATH BlockSweepResult PackedAssocMemory::predict_block(
    std::span<const PackedHv> queries, std::size_t ref_class,
    std::size_t block, std::size_t workers) const {
  if (empty()) {
    throw std::logic_error("PackedAssocMemory: no class prototypes loaded");
  }
  if (ref_class >= num_classes_) {
    throw std::out_of_range(
        "PackedAssocMemory::predict_block: reference class out of range");
  }
  BlockSweepResult result;
  result.labels.resize(queries.size());
  std::vector<std::uint64_t> best_ham(queries.size());
  std::vector<std::uint64_t> ref_ham(queries.size());
  sweep(queries, block, workers, ref_class, result.labels.data(),
        best_ham.data(), ref_ham.data());
  // Same ham -> similarity mapping as similarity_to/similarities, so the
  // sweep's doubles are bit-identical to the standalone row walks.
  result.best_scores.resize(queries.size());
  result.ref_scores.resize(queries.size());
  const auto d = static_cast<double>(dim_);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (similarity_ == Similarity::kCosine) {
      result.best_scores[i] =
          (d - 2.0 * static_cast<double>(best_ham[i])) / d;
      result.ref_scores[i] = (d - 2.0 * static_cast<double>(ref_ham[i])) / d;
    } else {
      result.best_scores[i] = 1.0 - static_cast<double>(best_ham[i]) / d;
      result.ref_scores[i] = 1.0 - static_cast<double>(ref_ham[i]) / d;
    }
  }
  return result;
}

}  // namespace hdtest::hdc
