#pragma once
/// \file packed_assoc_memory.hpp
/// Batched bit-packed associative-memory inference (the classification hot
/// path of the fuzz loop).
///
/// A trained associative memory is a small matrix of bipolar class prototypes.
/// Packing every prototype into sign-bit words once turns each query into
/// ceil(D/64) XOR+popcount words per class instead of D int8 multiply-adds —
/// the dense-binary rematerialization trick (Schmuck et al., JETC'19) — and
/// storing the prototypes contiguously keeps the whole memory in a few cache
/// lines for the 10-class models the paper studies.
///
/// Ranking is exact: for bipolar HVs
///   dot(a, b) = D - 2 * hamming(pack(a), pack(b)),
/// so argmax cosine == argmin Hamming, under either similarity metric, with
/// the lowest class index winning ties. Tests assert exact agreement with a
/// dense int8 reference across dimensions and worker counts.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hdc/config.hpp"
#include "hdc/packed_hv.hpp"
#include "util/contracts.hpp"

namespace hdtest::hdc {

/// Per-query results of one query-blocked sweep (PackedAssocMemory::
/// predict_block): the argmax class, its similarity, and the similarity to
/// the caller's reference class, all from a single pass over the class rows.
struct BlockSweepResult {
  std::vector<std::size_t> labels;      ///< argmax class per query
  std::vector<double> best_scores;      ///< similarity of the argmax class
  std::vector<double> ref_scores;       ///< similarity to the reference class
};

/// Immutable packed snapshot of a finalized associative memory.
///
/// Thread-safety: all member functions are const and touch only immutable
/// state, so one instance may serve queries from many threads.
///
/// Storage is either *owning* (the rehydrating constructor) or a
/// non-owning *view* over externally stored rows (view(): serialize format
/// v3 maps a model file read-only and sweeps the stored rows in place —
/// zero copies, zero rebuilds). A view, and every
/// copy of it, borrows the external words: it must not outlive them (for v3
/// that means the hdc::MappedModel's mapping). Copying an owning memory
/// deep-copies.
class PackedAssocMemory {
 public:
  /// Empty memory (num_classes() == 0); predict() throws until rebuilt.
  PackedAssocMemory() = default;

  /// Takes already-packed prototype words (AssociativeMemory::finalize, and
  /// serialize.cpp's stream load path, which restores a stored model's
  /// packed snapshot verbatim). \p words holds num_classes rows of
  /// words_for_bits(dim) words each, row-major — exactly what a loop over
  /// class_words() of the saved instance concatenates.
  /// \throws std::invalid_argument on zero dim/classes, a word count other
  /// than num_classes * words_for_bits(dim), or non-zero padding bits past
  /// dim in any row's last word.
  PackedAssocMemory(std::size_t dim, std::size_t num_classes,
                    Similarity similarity, std::vector<std::uint64_t> words);

  PackedAssocMemory(const PackedAssocMemory& other);
  PackedAssocMemory& operator=(const PackedAssocMemory& other);
  PackedAssocMemory(PackedAssocMemory&& other) noexcept;
  PackedAssocMemory& operator=(PackedAssocMemory&& other) noexcept;
  ~PackedAssocMemory() = default;

  /// Non-owning view over already-packed prototype rows (the v3 mmap path).
  /// Same shape/padding validation as the rehydrating constructor, but the
  /// words are served in place rather than copied.
  [[nodiscard]] static PackedAssocMemory view(
      std::size_t dim, std::size_t num_classes, Similarity similarity,
      std::span<const std::uint64_t> words);

  [[nodiscard]] std::size_t num_classes() const noexcept { return num_classes_; }

  /// True when this instance owns its words (false for view() results and
  /// their copies).
  [[nodiscard]] bool owning() const noexcept { return !storage_.empty(); }

  /// All packed rows (num_classes x words-per-row, row-major) — the exact
  /// byte image the v3 AM section stores.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return {data_, num_classes_ * stride_};
  }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] bool empty() const noexcept { return num_classes_ == 0; }
  [[nodiscard]] Similarity similarity_metric() const noexcept {
    return similarity_;
  }

  /// Packed words of one class prototype.
  [[nodiscard]] std::span<const std::uint64_t> class_words(std::size_t cls) const;

  /// Argmax class for a packed query (lowest index wins ties).
  /// \throws std::logic_error when empty; std::invalid_argument on dim
  /// mismatch.
  [[nodiscard]] std::size_t predict(const PackedHv& query) const;

  /// Hamming distance of the query to every class prototype.
  [[nodiscard]] std::vector<std::size_t> hammings(const PackedHv& query) const;

  /// Similarity of the query to every class (cosine = dot/D; Hamming =
  /// 1 - ham/D).
  [[nodiscard]] std::vector<double> similarities(const PackedHv& query) const;

  /// Similarity of a packed query to one class — identical doubles to
  /// similarities()[cls]. The fuzzer's fitness ingredient.
  /// \throws std::logic_error when empty; std::invalid_argument /
  /// std::out_of_range on dim or class mismatch.
  [[nodiscard]] double similarity_to(std::size_t cls, const PackedHv& query) const;

  /// Batched argmax (query-blocked sweep over \p workers threads). Results
  /// are identical for any worker count and bit-exact with per-query
  /// predict().
  [[nodiscard]] std::vector<std::size_t> predict_batch(
      std::span<const PackedHv> queries, std::size_t workers = 1) const;

  /// Auto block-size sentinel for predict_block.
  static constexpr std::size_t kAutoBlock = 0;

  /// Query-blocked multi-query sweep (the fuzz loop's generation kernel):
  /// tiles blocks of \p block packed queries against each class row so
  /// every prototype row is read once per block, and returns per query the
  /// argmax class, its similarity, and the similarity to \p ref_class — all
  /// in one pass, so the fuzzer's fitness needs no second row walk.
  /// \p block = kAutoBlock picks the cache-optimal size (see
  /// default_block()). Everything is bit-exact with per-query
  /// predict()/similarity_to() (identical popcounts, identical doubles) for
  /// any block size or worker count.
  /// \throws std::logic_error when empty; std::invalid_argument on dim
  /// mismatch; std::out_of_range on a bad ref_class.
  HDTEST_HOT_PATH [[nodiscard]] BlockSweepResult predict_block(
      std::span<const PackedHv> queries, std::size_t ref_class,
      std::size_t block = kAutoBlock, std::size_t workers = 1) const;

 private:
  void check_query(std::size_t query_dim) const;

  /// Cache-optimal query block size. When the whole prototype matrix is
  /// L1-resident (the paper's 10-class models), per-query order is optimal
  /// — the rows never leave L1, and a multi-query block would only evict
  /// the query being ranked. Once the row set outgrows L1, tile queries so
  /// a block stays in roughly half of L1 while each row is streamed once
  /// per block instead of once per query.
  [[nodiscard]] std::size_t default_block() const noexcept {
    constexpr std::size_t kL1Bytes = 32 * 1024;
    const std::size_t row_set = num_classes_ * stride_ * sizeof(std::uint64_t);
    if (row_set <= kL1Bytes) return 1;
    const std::size_t fit = (kL1Bytes / 2) / (stride_ * sizeof(std::uint64_t));
    return fit < 1 ? 1 : (fit > 64 ? 64 : fit);
  }

  /// Shared sweep driver: labels always; hams/ref_hams filled when the
  /// corresponding pointers are non-null (ref_class ignored otherwise).
  HDTEST_HOT_PATH void sweep(std::span<const PackedHv> queries, std::size_t block,
             std::size_t workers, std::size_t ref_class,
             std::size_t* out_labels, std::uint64_t* out_best_ham,
             std::uint64_t* out_ref_ham) const;

  /// Shared validation for the rehydrating constructor and view() (shape +
  /// clean padding); \p words is the candidate row block.
  static void check_words(std::size_t dim, std::size_t num_classes,
                          std::span<const std::uint64_t> words);

  std::size_t dim_ = 0;
  std::size_t num_classes_ = 0;
  std::size_t stride_ = 0;  ///< words per class prototype
  Similarity similarity_ = Similarity::kCosine;
  const std::uint64_t* data_ = nullptr;  ///< storage_ or an external view
  std::vector<std::uint64_t> storage_;   ///< num_classes_ x stride_ when owning
};

}  // namespace hdtest::hdc
