#include "net/pktbuf.h"

#include <bit>
#include <cassert>
#include <cstring>

namespace papm::net {

// --- HeapArena -------------------------------------------------------------

namespace {

// Size classes: 64 bytes and below share class 0; above, each power of
// two (2^(e-1), 2^e] splits into four equal steps.
constexpr u64 kMinClassBytes = 64;

u8 size_class(u64 size) noexcept {
  if (size <= kMinClassBytes) return 0;
  const int e = std::bit_width(size - 1);  // 2^(e-1) < size <= 2^e
  const u64 step = u64{1} << (e - 3);
  const u64 sub = (size - (u64{1} << (e - 1)) + step - 1) / step;  // 1..4
  return static_cast<u8>((e - 7) * 4 + sub);
}

u64 class_bytes(u8 cls) noexcept {
  if (cls == 0) return kMinClassBytes;
  const int e = (cls - 1) / 4 + 7;
  const u64 sub = (cls - 1) % 4 + 1;
  return (u64{1} << (e - 1)) + sub * (u64{1} << (e - 3));
}

}  // namespace

Result<u64> HeapArena::alloc(u64 size) {
  env_->clock().advance(env_->cost.pool_alloc_ns);
  const u8 cls = size_class(size);
  if (cls >= free_.size()) free_.resize(cls + 1);
  u32 slot;
  if (!free_[cls].empty()) {
    slot = free_[cls].back();
    free_[cls].pop_back();
  } else {
    slot = static_cast<u32>(blocks_.size());
    blocks_.emplace_back();
    blocks_.back().mem = std::make_unique_for_overwrite<u8[]>(class_bytes(cls));
    blocks_.back().cls = cls;
  }
  Block& b = blocks_[slot];
  std::memset(b.mem.get(), 0, size);
  b.size = size;
  b.live = true;
  live_++;
  return static_cast<u64>(b.gen) << 32 | (slot + 1);
}

const HeapArena::Block* HeapArena::find(u64 handle) const noexcept {
  const u64 slot = (handle & 0xffffffffu) - 1;
  if (slot >= blocks_.size()) return nullptr;
  const Block& b = blocks_[slot];
  return b.live && b.gen == (handle >> 32) ? &b : nullptr;
}

const HeapArena::Block& HeapArena::resolve(u64 handle, u64 len) const {
  const Block* b = find(handle);
  if (b == nullptr || len > b->size) {
    throw std::out_of_range("HeapArena: bad handle or length");
  }
  return *b;
}

void HeapArena::free(u64 handle, u64 /*size*/) {
  env_->clock().advance(env_->cost.pool_alloc_ns / 2);
  if (find(handle) == nullptr) return;
  const u32 slot = static_cast<u32>((handle & 0xffffffffu) - 1);
  Block& b = blocks_[slot];
  b.live = false;
  b.gen++;
  live_--;
  free_[b.cls].push_back(slot);
}

u8* HeapArena::data(u64 handle, u64 len) { return resolve(handle, len).mem.get(); }

const u8* HeapArena::view(u64 handle, u64 len) const {
  return resolve(handle, len).mem.get();
}

void HeapArena::store_dma(u64 handle, std::span<const u8> data) {
  std::memcpy(this->data(handle, data.size()), data.data(), data.size());
}

// --- PktBufPool --------------------------------------------------------------

PktBuf* PktBufPool::alloc(u32 data_cap) {
  if (meta_limit_ != 0 && live_meta_ >= meta_limit_) return nullptr;
  auto dh = arena_->alloc(data_cap);
  if (!dh.ok()) return nullptr;

  PktBuf* pb;
  if (!free_meta_.empty()) {
    pb = free_meta_.back();
    free_meta_.pop_back();
  } else {
    slab_.emplace_back();
    pb = &slab_.back();
  }
  *pb = PktBuf{};
  pb->owner = this;
  pb->data_h = dh.value();
  pb->cap = data_cap;
  pb->in_use = true;
  pb->tstamp = env_->now();
  ref_data(pb->data_h);
  live_meta_++;
  return pb;
}

PktBuf* PktBufPool::clone(const PktBuf& pb) {
  assert(pb.in_use);
  if (meta_limit_ != 0 && live_meta_ >= meta_limit_) return nullptr;
  env_->clock().advance(env_->cost.pool_alloc_ns);  // metadata-only alloc
  PktBuf* c;
  if (!free_meta_.empty()) {
    c = free_meta_.back();
    free_meta_.pop_back();
  } else {
    slab_.emplace_back();
    c = &slab_.back();
  }
  *c = pb;  // copy all metadata fields
  c->owner = this;
  c->next = c->prev = nullptr;
  c->rb = container::RbHook{};
  c->in_use = true;
  ref_data(c->data_h);
  if (c->sliced()) ref_data(c->slice_h);
  for (int i = 0; i < c->nr_frags; i++) ref_data(c->frags[i].data_h);
  live_meta_++;
  return c;
}

void PktBufPool::free(PktBuf* pb) {
  if (pb == nullptr) return;
  assert(pb->in_use);
  assert(pb->owner == this && "packet freed into a foreign pool shard");
  if (unref(pb->data_h)) arena_->free(pb->data_h, pb->cap);
  if (pb->sliced() && unref(pb->slice_h)) {
    arena_->free(pb->slice_h, pb->slice_cap);
  }
  for (int i = 0; i < pb->nr_frags; i++) {
    if (unref(pb->frags[i].data_h)) {
      arena_->free(pb->frags[i].data_h, pb->frags[i].cap);
    }
  }
  pb->in_use = false;
  free_meta_.push_back(pb);
  live_meta_--;
}

u64 PktBufPool::adopt_data(PktBuf& pb) {
  assert(pb.in_use);
  ref_data(pb.data_h);
  return pb.data_h;
}

void PktBufPool::unref_data(u64 data_h, u32 cap) {
  if (unref(data_h)) arena_->free(data_h, cap);
}

bool PktBufPool::attach_slice(PktBuf& pb, u32 len) {
  assert(pb.in_use && pb.slice_h == 0);
  auto sh = arena_->alloc(len);
  if (!sh.ok()) return false;
  pb.slice_h = sh.value();
  pb.slice_cap = len;
  pb.slice_off = 0;
  ref_data(pb.slice_h);
  return true;
}

u64 PktBufPool::adopt_slice(PktBuf& pb) {
  assert(pb.in_use && pb.sliced());
  ref_data(pb.slice_h);
  return pb.slice_h;
}

Status PktBufPool::add_frag(PktBuf& pb, u64 data_h, u32 len, u32 off, u32 cap) {
  if (pb.nr_frags >= PktBuf::kMaxFrags) return Errc::out_of_space;
  pb.frags[pb.nr_frags++] = {data_h, off, len, cap != 0 ? cap : off + len};
  ref_data(data_h);
  return Errc::ok;
}

void PktBufPool::ref_data(u64 handle) { data_refs_[handle]++; }

bool PktBufPool::unref(u64 handle) {
  u32* refs = data_refs_.find(handle);
  assert(refs != nullptr);
  if (*refs > 1) {
    --*refs;
    return false;
  }
  data_refs_.erase(handle);  // before the count would read as empty
  return true;
}

}  // namespace papm::net
