// Discrete-event engine.
//
// Events fire in (time, sequence) order: events scheduled at equal times
// fire in scheduling order (the sequence number breaks ties), which keeps
// runs bit-deterministic.
//
// schedule_at() is on the per-packet hot path of every end-to-end bench,
// so the engine allocates nothing per event in steady state:
//   * callbacks live in a slab of recycled 64-byte slots (chunked, so a
//     slot never moves while its callback runs), with closures of up to
//     kInlineBytes stored inline — larger ones spill to the heap;
//   * the priority queue is a 4-ary heap of 16-byte keys {at, word},
//     word = seq << 24 | slot, so sifts move two words instead of a
//     callback object, and comparing (at, word) is comparing (at, seq);
//   * cancel(id) frees the slot at once and leaves its key in the heap;
//     a key whose word no longer matches its slot is skipped when it
//     surfaces (it never moves the clock), and the heap is compacted once
//     such stale keys outnumber the live ones.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/clock.h"

namespace papm::sim {

// Handle of a scheduled event, for Engine::cancel(). Never 0, so 0 can
// stand for "no event". A handle stays unique after its slot is reused.
using EventId = u64;

class Engine {
 public:
  // Closures up to this size (and max_align_t alignment) are stored in
  // the slot itself; the Fabric's frame closure is the largest hot one.
  static constexpr std::size_t kInlineBytes = 48;

  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Clock& clock() noexcept { return clock_; }
  [[nodiscard]] SimTime now() const noexcept { return clock_.now(); }

  // Schedule `fn` (any void() callable) to run at absolute time `at`
  // (clamped to now). The callable is moved or copied into its slot.
  template <typename F>
  EventId schedule_at(SimTime at, F&& fn) {
    if (at < clock_.now()) at = clock_.now();
    const u32 slot = acquire_slot();
    Slot& s = slot_at(slot);
    try {
      s.emplace(std::forward<F>(fn));
    } catch (...) {  // a throwing copy or a failed spill allocation
      s.word = free_head_;
      free_head_ = slot;
      throw;
    }
    const u64 word = (next_seq_++ << kSlotBits) | slot;
    s.word = word;
    push_key(Key{at, word});
    live_++;
    return word;
  }

  // Schedule `fn` to run `delay` ns from now.
  template <typename F>
  EventId schedule_in(SimTime delay, F&& fn) {
    return schedule_at(clock_.now() + delay, std::forward<F>(fn));
  }

  // Cancels a pending event: its callback is destroyed without running.
  // Returns false (and does nothing) when `id` already fired, is firing
  // right now, was cancelled, or is 0.
  bool cancel(EventId id) noexcept;

  // Run the earliest pending event; returns false if none are pending.
  // If the callback throws, its slot is still freed before the exception
  // leaves step().
  bool step();

  // Run events until the queue drains or the next one lies beyond
  // `deadline`, then set the clock to `deadline`. Events scheduled beyond
  // the deadline stay queued.
  void run_until(SimTime deadline);

  // Run until no events remain. The clock stops at the last event that
  // actually fired (a cancelled timer's deadline does not move it).
  void run_until_idle();

  // Live events: scheduled, not yet fired, not cancelled.
  [[nodiscard]] std::size_t pending() const noexcept { return live_; }

  // Drop all pending events and reset time to zero. Sequence numbers keep
  // counting, so an EventId from before the reset never matches a later
  // event. Must not be called from inside a callback.
  void reset();

 private:
  static constexpr unsigned kSlotBits = 24;  // up to 16M - 1 events pending
  static constexpr u64 kSlotMask = (u64{1} << kSlotBits) - 1;
  static constexpr unsigned kChunkBits = 10;  // 1024 slots (64 KB) a chunk
  static constexpr u32 kChunkSlots = 1u << kChunkBits;
  static constexpr u32 kNoSlot = static_cast<u32>(kSlotMask);  // never a slot
  // Initial heap capacity: enough for every in-flight packet + timer of
  // the largest end-to-end sweep without a mid-run reallocation.
  static constexpr std::size_t kReserveEvents = 4096;

  struct Ops {
    void (*invoke)(void* buf);
    void (*destroy)(void* buf) noexcept;  // null: trivially destructible
  };
  template <typename Fn>
  struct InlineOps {
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void destroy(void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops kOps{
        &invoke, std::is_trivially_destructible_v<Fn> ? nullptr : &destroy};
  };
  template <typename Fn>
  struct HeapOps {
    static void invoke(void* p) { (**static_cast<Fn**>(p))(); }
    static void destroy(void* p) noexcept { delete *static_cast<Fn**>(p); }
    static constexpr Ops kOps{&invoke, &destroy};
  };

  // One callback. `word` is the key word of the event occupying the slot;
  // 0 while the callback runs; the next free slot's index while free
  // (always below 1 << kSlotBits, so never a valid key word).
  struct Slot {
    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
    const Ops* ops;
    u64 word;

    template <typename F>
    void emplace(F&& fn) {
      using Fn = std::decay_t<F>;
      if constexpr (sizeof(Fn) <= kInlineBytes &&
                    alignof(Fn) <= alignof(std::max_align_t)) {
        ::new (static_cast<void*>(buf)) Fn(std::forward<F>(fn));
        ops = &InlineOps<Fn>::kOps;
      } else {
        Fn* heap = new Fn(std::forward<F>(fn));
        ::new (static_cast<void*>(buf)) Fn*(heap);
        ops = &HeapOps<Fn>::kOps;
      }
    }
    void destroy() noexcept {
      if (ops->destroy != nullptr) ops->destroy(buf);
      ops = nullptr;
    }
  };
  static_assert(sizeof(Slot) == 64, "one slot per cache line");

  struct Key {
    SimTime at;  // >= 0: events are never scheduled before time zero
    u64 word;
  };
  // (at, word) lexicographic, as one 128-bit compare (branch-free, so the
  // sift's child selection compiles to conditional moves).
  static bool earlier(const Key& a, const Key& b) noexcept {
    using u128 = unsigned __int128;
    return (u128{static_cast<u64>(a.at)} << 64 | a.word) <
           (u128{static_cast<u64>(b.at)} << 64 | b.word);
  }

  Slot& slot_at(u32 i) noexcept {
    return chunks_[i >> kChunkBits][i & (kChunkSlots - 1)];
  }
  [[nodiscard]] bool live(const Key& k) noexcept {
    return slot_at(static_cast<u32>(k.word & kSlotMask)).word == k.word;
  }
  u32 acquire_slot();
  void release_slot(u32 slot) noexcept;
  void push_key(Key k);
  void pop_top() noexcept;
  void sift_down(std::size_t i, Key k) noexcept;
  void compact() noexcept;
  void fire(const Key& k);
  void destroy_live() noexcept;

  Clock clock_;
  u64 next_seq_ = 1;  // from 1: key word 0 is never a valid EventId
  std::vector<Key> heap_;  // 4-ary min-heap by earlier()
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  u32 slots_used_ = 0;  // slots ever handed out (free list aside)
  u32 free_head_ = kNoSlot;
  std::size_t live_ = 0;
#ifndef NDEBUG
  SimTime last_fired_at_ = 0;  // heap-stability check (debug builds)
#endif
};

}  // namespace papm::sim
