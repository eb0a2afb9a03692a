#pragma once
/// \file device.hpp
/// Stub kept only for the repository benchmark's result stamp, whose
/// "device" field prints active_device().name(). Compute dispatch is the
/// util::simd::Kernels table alone; this header goes away with that field.
/// Nothing in the library, tests, benches or examples includes it.

namespace hdtest::hdc {

struct DeviceStamp {
  [[nodiscard]] const char* name() const noexcept { return "cpu"; }
};

[[nodiscard]] inline DeviceStamp active_device() noexcept { return {}; }

}  // namespace hdtest::hdc
