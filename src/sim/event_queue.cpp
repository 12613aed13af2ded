#include "sim/event_queue.h"

#include <cassert>
#include <stdexcept>

namespace papm::sim {

namespace {
// Stale keys tolerated beyond the live count before the heap is rebuilt.
constexpr std::size_t kCompactSlack = 1024;
}  // namespace

Engine::Engine() { heap_.reserve(kReserveEvents); }

Engine::~Engine() { destroy_live(); }

u32 Engine::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const u32 slot = free_head_;
    free_head_ = static_cast<u32>(slot_at(slot).word);
    return slot;
  }
  if (slots_used_ == kNoSlot) {
    throw std::length_error("sim::Engine: too many pending events");
  }
  if ((slots_used_ >> kChunkBits) == chunks_.size()) {
    chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSlots));
  }
  return slots_used_++;
}

void Engine::release_slot(u32 slot) noexcept {
  Slot& s = slot_at(slot);
  s.destroy();
  s.word = free_head_;
  free_head_ = slot;
}

void Engine::push_key(Key k) {
  heap_.push_back(k);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(k, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

void Engine::sift_down(std::size_t i, Key k) noexcept {
  const std::size_t n = heap_.size();
  Key* h = heap_.data();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    if (first + 4 <= n) {  // full family: no bounds checks
      const std::size_t b01 = earlier(h[first + 1], h[first]) ? first + 1 : first;
      const std::size_t b23 =
          earlier(h[first + 3], h[first + 2]) ? first + 3 : first + 2;
      best = earlier(h[b23], h[b01]) ? b23 : b01;
    } else {
      for (std::size_t c = first + 1; c < n; c++) {
        if (earlier(h[c], h[best])) best = c;
      }
    }
    if (!earlier(h[best], k)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = k;
}

void Engine::pop_top() noexcept {
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void Engine::compact() noexcept {
  std::size_t n = 0;
  for (const Key& k : heap_) {
    if (live(k)) heap_[n++] = k;
  }
  heap_.resize(n);
  if (n < 2) return;
  for (std::size_t i = (n - 2) / 4 + 1; i-- > 0;) sift_down(i, heap_[i]);
}

bool Engine::cancel(EventId id) noexcept {
  if ((id >> kSlotBits) == 0) return false;  // 0, or a free-list link
  const u32 slot = static_cast<u32>(id & kSlotMask);
  if (slot >= slots_used_ || slot_at(slot).word != id) return false;
  release_slot(slot);
  live_--;
  if (heap_.size() > 2 * live_ + kCompactSlack) compact();
  return true;
}

void Engine::fire(const Key& k) {
#ifndef NDEBUG
  // Stability: events fire in non-decreasing time order.
  assert(k.at >= last_fired_at_ && "heap yielded an out-of-order event");
  last_fired_at_ = k.at;
#endif
  const u32 slot = static_cast<u32>(k.word & kSlotMask);
  clock_.jump_to(k.at);
  // The event is no longer pending while its callback runs (cancelling
  // its own id is a no-op); the slot is freed even when the callback
  // throws — a PowerFailure unwinding a host handler.
  slot_at(slot).word = 0;
  live_--;
  struct Release {
    Engine* e;
    u32 slot;
    ~Release() { e->release_slot(slot); }
  } const release{this, slot};
  Slot& s = slot_at(slot);
  s.ops->invoke(s.buf);
}

bool Engine::step() {
  while (!heap_.empty()) {
    const Key k = heap_.front();
    pop_top();
    if (!live(k)) continue;  // cancelled
    fire(k);
    return true;
  }
  return false;
}

void Engine::run_until(SimTime deadline) {
  while (!heap_.empty()) {
    const Key k = heap_.front();
    if (!live(k)) {
      pop_top();
      continue;
    }
    if (k.at > deadline) break;
    pop_top();
    fire(k);
  }
  clock_.jump_to(deadline);
}

void Engine::run_until_idle() {
  while (step()) {
  }
}

void Engine::destroy_live() noexcept {
  for (const Key& k : heap_) {
    if (live(k)) slot_at(static_cast<u32>(k.word & kSlotMask)).destroy();
  }
}

void Engine::reset() {
  destroy_live();
  heap_.clear();
  chunks_.clear();
  slots_used_ = 0;
  free_head_ = kNoSlot;
  live_ = 0;
  clock_.reset();
#ifndef NDEBUG
  last_fired_at_ = 0;
#endif
}

}  // namespace papm::sim
