/// \file kernels.cpp
/// Backend registry, CPU feature detection, and the one-time startup
/// selection behind util::simd::kernels().

#include "util/simd/kernels.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/simd/backends.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace hdtest::util::simd {

namespace {

struct CpuFeatures {
  bool avx2 = false;
  bool avx512f = false;
  bool avx512vpopcntdq = false;
  bool neon = false;
};

#if defined(__x86_64__) || defined(__i386__)

/// XGETBV(0): which register state the OS actually saves/restores. AVX
/// needs XMM+YMM (0x6); AVX-512 additionally opmask+ZMM (0xe0).
bool os_saves_state(std::uint32_t required) noexcept {
  std::uint32_t eax = 0;
  std::uint32_t ebx = 0;
  std::uint32_t ecx = 0;
  std::uint32_t edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & (1u << 27)) == 0) return false;  // OSXSAVE
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (lo & required) == required;
}

CpuFeatures detect_cpu() noexcept {
  CpuFeatures f;
  std::uint32_t eax = 0;
  std::uint32_t ebx = 0;
  std::uint32_t ecx = 0;
  std::uint32_t edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return f;
  const bool ymm = os_saves_state(0x6);
  const bool zmm = os_saves_state(0xe6);
  f.avx2 = ymm && (ebx & (1u << 5)) != 0;
  f.avx512f = zmm && (ebx & (1u << 16)) != 0;
  f.avx512vpopcntdq = zmm && (ecx & (1u << 14)) != 0;
  return f;
}

#elif defined(__aarch64__)

CpuFeatures detect_cpu() noexcept {
  CpuFeatures f;
  f.neon = true;  // AdvSIMD is architecturally baseline on aarch64
  return f;
}

#else

CpuFeatures detect_cpu() noexcept { return {}; }

#endif

const CpuFeatures& cpu() noexcept {
  static const CpuFeatures features = detect_cpu();
  return features;
}

bool cpu_supports(const Kernels& k) noexcept {
  if (std::strcmp(k.name, "swar") == 0) return true;
  if (std::strcmp(k.name, "oracle") == 0) return true;
  if (std::strcmp(k.name, "avx2") == 0) return cpu().avx2;
  if (std::strcmp(k.name, "avx512") == 0) {
    return cpu().avx512f && cpu().avx512vpopcntdq;
  }
  if (std::strcmp(k.name, "neon") == 0) return cpu().neon;
  return false;
}

/// Compiled backends in descending preference order (best first). The
/// scalar oracle is last, so default selection never picks it; it is
/// available only by name (HDTEST_KERNEL_BACKEND=oracle) and as the
/// reference row of every backend sweep.
const std::vector<const Kernels*>& registry() noexcept {
  static const std::vector<const Kernels*> backends = [] {
    std::vector<const Kernels*> out;
    for (const Kernels* k :
         {avx512_kernels(), avx2_kernels(), neon_kernels(), swar_kernels(),
          oracle_kernels()}) {
      if (k != nullptr) out.push_back(k);
    }
    return out;
  }();
  return backends;
}

const std::vector<const Kernels*>& available() noexcept {
  static const std::vector<const Kernels*> backends = [] {
    std::vector<const Kernels*> out;
    for (const Kernels* k : registry()) {
      if (cpu_supports(*k)) out.push_back(k);
    }
    return out;
  }();
  return backends;
}

const Kernels* find_available(const char* name) noexcept {
  for (const Kernels* k : available()) {
    if (std::strcmp(k->name, name) == 0) return k;
  }
  return nullptr;
}

/// Default selection: HDTEST_KERNEL_BACKEND override when set (warning +
/// fallback on an unusable value so a forced CI matrix cannot crash a
/// machine that lacks the ISA), else the best available backend.
const Kernels* select_default() noexcept {
  const char* forced = std::getenv("HDTEST_KERNEL_BACKEND");
  if (forced != nullptr && *forced != '\0') {
    if (const Kernels* k = find_available(forced)) return k;
    std::fprintf(stderr,
                 "hdtest: HDTEST_KERNEL_BACKEND=%s is unknown or unsupported "
                 "on this CPU; falling back to %s\n",
                 forced, available().front()->name);
  }
  return available().front();
}

std::atomic<const Kernels*> g_active{nullptr};

}  // namespace

const Kernels& kernels() noexcept {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    // Benign race: concurrent first calls compute the same selection.
    k = select_default();
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

std::span<const Kernels* const> registered_kernels() noexcept {
  return registry();
}

std::span<const Kernels* const> available_kernels() noexcept {
  return available();
}

void set_kernels_for_testing(const char* name) {
  if (name == nullptr || *name == '\0') {
    g_active.store(select_default(), std::memory_order_release);
    return;
  }
  const Kernels* k = find_available(name);
  if (k == nullptr) {
    throw std::invalid_argument(
        std::string("set_kernels_for_testing: backend '") + name +
        "' is not compiled in or not supported by this CPU");
  }
  g_active.store(k, std::memory_order_release);
}

}  // namespace hdtest::util::simd
