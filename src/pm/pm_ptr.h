// Offset-based persistent pointers.
//
// Structures living inside a PmDevice region never store virtual
// addresses: after a crash the region may be mapped anywhere, so links are
// byte offsets from the region base. Offset 0 is never a valid object
// (the region header lives there), so it doubles as null.
#pragma once

#include "common/types.h"
#include "pm/pm_device.h"

namespace papm::pm {

template <typename T>
class pm_ptr {
 public:
  constexpr pm_ptr() noexcept = default;
  constexpr explicit pm_ptr(u64 offset) noexcept : off_(offset) {}

  [[nodiscard]] constexpr u64 offset() const noexcept { return off_; }
  [[nodiscard]] constexpr bool is_null() const noexcept { return off_ == 0; }
  constexpr explicit operator bool() const noexcept { return !is_null(); }

  /// Resolve against a device. The mutable form is a writable at(): it
  /// takes the object's pre-images, its pointer is good for writes only
  /// until the next fence over those lines, and writes through it are
  /// volatile until the caller runs mark_dirty() + persist() on the
  /// range. Readers resolve against a const device.
  [[nodiscard]] T* get(PmDevice& dev) const {
    return is_null() ? nullptr : reinterpret_cast<T*>(dev.at(off_, sizeof(T)));
  }
  [[nodiscard]] const T* get(const PmDevice& dev) const {
    return is_null() ? nullptr : reinterpret_cast<const T*>(dev.at(off_, sizeof(T)));
  }

  friend constexpr bool operator==(pm_ptr a, pm_ptr b) noexcept {
    return a.off_ == b.off_;
  }

  static constexpr pm_ptr null() noexcept { return {}; }

 private:
  u64 off_ = 0;
};

}  // namespace papm::pm
