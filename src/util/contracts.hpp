#pragma once
/// \file contracts.hpp
/// Source-level markers for the statically enforced correctness contracts.
///
/// HDTest's replayable differential fuzzing rests on three invariants that
/// PRs 2-5 established and the runtime `instrument` counters police:
///
///   1. determinism  - campaign/ledger/record/report code may not depend on
///                     iteration order of unordered containers, wall-clock
///                     time, or thread identity; `run_campaign(workers=N)`
///                     must be bit-identical to `workers=1`.
///   2. dense-free   - the fuzz loop's steady state stays in packed
///                     sign-bit space (the library has no dense hypervector
///                     type; the int8 reference is test-only) and never
///                     explicitly heap-allocates per mutant.
///   3. serializer-safety - every size computed from file bytes goes through
///                     checked_mul/checked_add before it can size an
///                     allocation or an offset, and mapped payload bytes are
///                     only reinterpreted behind bounds-checked readers.
///
/// tools/hdtest-tidy turns these into build-time diagnostics (checks
/// hdtest-determinism, hdtest-dense-free, hdtest-checked-arith,
/// hdtest-intrinsics-confined). The macro below is how source opts into the
/// dense-free check; it expands to nothing on every compiler.

/// Marks a function as part of the fuzz loop's steady-state hot path: the
/// hdtest-dense-free check walks the annotated function and every
/// statically resolved callee, flagging explicit heap allocation (new /
/// malloc / make_unique / make_shared). Place it directly before the
/// declaration and repeat it on the out-of-line definition: the checker
/// reads the macro token itself, wherever it looks.
#define HDTEST_HOT_PATH
