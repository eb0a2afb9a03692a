#pragma once
/// \file checks.hpp
/// The four hdtest-tidy checks, implemented over the token-level source
/// model. Diagnostics use clang-tidy's format and check names, so NOLINT
/// suppressions are spelled exactly as clang-tidy spells them.

#include <string>
#include <vector>

#include "lexer.hpp"
#include "model.hpp"

namespace hdtest::tidy {

struct Diagnostic {
  std::string path;
  int line = 0;
  int col = 0;
  std::string message;
  std::string check;
};

/// hdtest-determinism: campaign/ledger/record/report code must not consult
/// ambient nondeterminism. Flags unordered associative containers (their
/// iteration order varies across libstdc++ versions and hash seeds),
/// std::rand/srand/random_device, time()/clock(), argless
/// std::chrono::*::now(), and std::this_thread::get_id().
void check_determinism(const LexedFile& file, std::vector<Diagnostic>& out);

/// hdtest-dense-free: functions reachable from an HDTEST_HOT_PATH root must
/// not materialize dense Hypervectors, call PackedHv::from_dense, or
/// heap-allocate.
void check_dense_free(const SourceModel& model, std::vector<Diagnostic>& out);

/// hdtest-checked-arith: serializer/mmap/shard wire code must route
/// size arithmetic through checked_mul/checked_add and raw-byte
/// reinterpretation through BufReader.
void check_checked_arith(const LexedFile& file, std::vector<Diagnostic>& out);

/// hdtest-intrinsics-confined: vendor SIMD intrinsics and their headers may
/// appear only under src/util/simd/.
void check_intrinsics_confined(const LexedFile& file,
                               std::vector<Diagnostic>& out);

}  // namespace hdtest::tidy
