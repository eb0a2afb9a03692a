#pragma once
/// \file instrument.hpp
/// Process-wide encode-pipeline counters backing the fuzz loop's hot-path
/// guarantees.
///
/// The fuzzer's steady-state generation loop must not re-walk a class row
/// per mutant, and a stored-codebook process must never regenerate a
/// codebook row. These relaxed atomic counters are bumped at the only places
/// those events happen, so the properties are asserted by
/// tests/fuzz/dense_free_test and tests/hdc/mapped_model_test instead of
/// trusted to call-site review. Cost: one relaxed increment per O(D) event,
/// invisible next to the element work it guards.

#include <atomic>
#include <cstdint>

namespace hdtest::hdc::instrument {

struct EncodeCounters {
  /// Standalone PackedAssocMemory::similarity_to row walks. The blocked AM
  /// sweep returns the reference-class score together with the argmax, so
  /// the fuzzer's steady state must not re-walk a class row per mutant
  /// (one walk per fuzz_one — the parent seed's fitness — is expected).
  std::atomic<std::uint64_t> am_row_walks{0};
  /// Packed class-HV rebuilds (AssociativeMemory::finalize bipolarizing the
  /// class sums). Model files store the packed words, so loading one must
  /// perform zero rebuilds (asserted by the serialize tests); finalize()
  /// after training/retraining still rebuilds.
  std::atomic<std::uint64_t> packed_am_rebuilds{0};
  /// Stored PackedItemMemory codebook generations from a seed (one per
  /// position/value memory built). A serving process on the mmap'd v3 path
  /// must never regenerate a codebook — MappedModel construction performs
  /// zero of these (asserted by tests/hdc/mapped_model_test); the stream
  /// loaders still regenerate, and stored-mode PixelEncoder construction
  /// performs two.
  std::atomic<std::uint64_t> packed_codebook_builds{0};
  /// On-the-fly codebook row regenerations (PackedItemMemory remat mode:
  /// one per row materialized into caller scratch). Stored-mirror mode must
  /// stay at exactly 0 — any bump there means a caller silently fell off the
  /// in-place row path (asserted by tests/fuzz/dense_free_test).
  std::atomic<std::uint64_t> codebook_row_rematerializations{0};
};

[[nodiscard]] inline EncodeCounters& counters() noexcept {
  static EncodeCounters instance;
  return instance;
}

inline void note_am_row_walk() noexcept {
  counters().am_row_walks.fetch_add(1, std::memory_order_relaxed);
}

inline void note_packed_am_rebuild() noexcept {
  counters().packed_am_rebuilds.fetch_add(1, std::memory_order_relaxed);
}

inline void note_packed_codebook_build() noexcept {
  counters().packed_codebook_builds.fetch_add(1, std::memory_order_relaxed);
}

inline void note_codebook_row_rematerialization() noexcept {
  counters().codebook_row_rematerializations.fetch_add(
      1, std::memory_order_relaxed);
}

[[nodiscard]] inline std::uint64_t am_row_walks() noexcept {
  return counters().am_row_walks.load(std::memory_order_relaxed);
}

[[nodiscard]] inline std::uint64_t packed_am_rebuilds() noexcept {
  return counters().packed_am_rebuilds.load(std::memory_order_relaxed);
}

[[nodiscard]] inline std::uint64_t packed_codebook_builds() noexcept {
  return counters().packed_codebook_builds.load(std::memory_order_relaxed);
}

[[nodiscard]] inline std::uint64_t codebook_row_rematerializations() noexcept {
  return counters().codebook_row_rematerializations.load(
      std::memory_order_relaxed);
}

/// Zeroes all counters (tests snapshot around the region under scrutiny).
inline void reset() noexcept {
  counters().am_row_walks.store(0, std::memory_order_relaxed);
  counters().packed_am_rebuilds.store(0, std::memory_order_relaxed);
  counters().packed_codebook_builds.store(0, std::memory_order_relaxed);
  counters().codebook_row_rematerializations.store(0,
                                                   std::memory_order_relaxed);
}

}  // namespace hdtest::hdc::instrument
