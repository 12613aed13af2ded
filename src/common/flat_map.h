// Open-addressing hash table from u64 keys to values whose "false" state
// marks an empty slot (a refcount of 0, a null pointer).
//
// The per-packet host path looks a table up for every segment (TCP flow
// demux) and every buffer reference (PktBufPool refcounts); node-based
// std::unordered_map pays an allocation per insert and a pointer chase per
// lookup there. This table is one flat array of {key, value} slots with
// linear probing and backward-shift deletion (no tombstones, so churn
// never degrades probes), kept at most half full.
//
// Iteration order is the slot order: deterministic for a given sequence
// of operations, but unrelated to insertion order — callers that need an
// order sort.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.h"

namespace papm {

template <typename V>
class FlatMap {
 public:
  // The value stored under `key`, or null.
  [[nodiscard]] V* find(u64 key) noexcept {
    const std::size_t i = index_of(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }

  // The value under `key`, default-constructed (empty) when absent; the
  // caller must store a non-empty value there before any other call.
  V& operator[](u64 key) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    std::size_t i = home(key);
    for (;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.value) break;
      if (s.key == key) return s.value;
    }
    size_++;
    slots_[i].key = key;
    return slots_[i].value;
  }

  // Removes `key`; returns false when absent. A stored value must not be
  // made empty in place (find() + reset): erase or take() it instead.
  bool erase(u64 key) noexcept {
    const std::size_t i = index_of(key);
    if (i == kAbsent) return false;
    erase_at(i);
    return true;
  }

  // Removes `key` and returns its value (empty when absent).
  V take(u64 key) noexcept {
    const std::size_t i = index_of(key);
    if (i == kAbsent) return V{};
    V v = std::move(slots_[i].value);
    erase_at(i);
    return v;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  // Calls fn(key, value&) for every entry, in slot order. fn must not
  // insert or erase.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.value) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    u64 key = 0;
    V value{};
  };
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  [[nodiscard]] std::size_t index_of(u64 key) const noexcept {
    if (size_ == 0) return kAbsent;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (!s.value) return kAbsent;
      if (s.key == key) return i;
    }
  }

  // splitmix64's finaliser: consecutive handles and ports spread out.
  [[nodiscard]] std::size_t home(u64 key) const noexcept {
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ULL;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebULL;
    key ^= key >> 31;
    return static_cast<std::size_t>(key) & mask_;
  }

  void erase_at(std::size_t hole) noexcept {
    // Backward shift: pull later members of the probe run into the hole
    // when the hole lies on their path from home.
    for (std::size_t j = (hole + 1) & mask_;; j = (j + 1) & mask_) {
      Slot& s = slots_[j];
      if (!s.value) break;
      const std::size_t h = home(s.key);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(s);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    size_--;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(old.empty() ? 16 : old.size() * 2);
    mask_ = slots_.size() - 1;
    for (Slot& s : old) {
      if (!s.value) continue;
      std::size_t i = home(s.key);
      while (slots_[i].value) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace papm
