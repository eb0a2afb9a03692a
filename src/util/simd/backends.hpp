#pragma once
/// \file backends.hpp
/// Internal registry hooks between the dispatch unit and the backend
/// translation units. Each getter returns the backend's kernel table, or
/// nullptr when the compiler could not target that ISA (the TU then
/// compiles to a stub); SWAR and the scalar oracle are always compiled.
/// Not part of the public surface — include util/simd/kernels.hpp instead.

#include "util/simd/kernels.hpp"

namespace hdtest::util::simd {

[[nodiscard]] const Kernels* swar_kernels() noexcept;
[[nodiscard]] const Kernels* avx2_kernels() noexcept;
[[nodiscard]] const Kernels* avx512_kernels() noexcept;
[[nodiscard]] const Kernels* neon_kernels() noexcept;
[[nodiscard]] const Kernels* oracle_kernels() noexcept;

}  // namespace hdtest::util::simd
