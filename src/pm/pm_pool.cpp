#include "pm/pm_pool.h"

#include <cstring>
#include <stdexcept>
#include <utility>

namespace papm::pm {

PmPool::PmPool(PmDevice& dev, u64 header_off)
    : dev_(&dev), header_off_(header_off) {}

// Header reads go through the device's const view; every header write
// is a store_u64 of one field, which takes the line's pre-image.
const PmPool::PoolHeader* PmPool::hdr() const {
  return reinterpret_cast<const PoolHeader*>(
      std::as_const(*dev_).at(header_off_, sizeof(PoolHeader)));
}

u64 PmPool::field_offset(const u64* field) const {
  return reinterpret_cast<const u8*>(field) -
         std::as_const(*dev_).at(header_off_, sizeof(PoolHeader)) + header_off_;
}

void PmPool::persist_header_field(const u64* field, u64 value) {
  const u64 off = field_offset(field);
  dev_->store_u64(off, value);
  dev_->persist(off, 8);
}

PmPool PmPool::create(PmDevice& dev, std::string_view name, u64 base,
                      u64 span_len) {
  if (base % kCacheLine != 0 || span_len < sizeof(PoolHeader) + kCacheLine) {
    throw std::invalid_argument("PmPool: bad span");
  }
  PmPool pool(dev, base);
  auto* h = reinterpret_cast<PoolHeader*>(dev.at(base, sizeof(PoolHeader)));
  std::memset(h, 0, sizeof(PoolHeader));
  h->magic = kMagic;
  h->base = base;
  h->span_len = span_len;
  h->bump = align_up(base + sizeof(PoolHeader), kCacheLine);
  dev.mark_dirty(base, sizeof(PoolHeader));
  dev.persist(base, sizeof(PoolHeader));
  const Status st = dev.set_root(name, base);
  if (!st.ok()) throw std::runtime_error("PmPool: root table full");
  return pool;
}

Result<PmPool> PmPool::recover(PmDevice& dev, std::string_view name) {
  const auto root = dev.get_root(name);
  if (!root.ok()) return root.errc();
  PmPool pool(dev, root.value());
  if (pool.hdr()->magic != kMagic) return Errc::corrupted;
  return pool;
}

std::optional<std::size_t> PmPool::class_for(u64 size) noexcept {
  for (std::size_t i = 0; i < kClassSizes.size(); i++) {
    if (size <= kClassSizes[i]) return i;
  }
  return std::nullopt;
}

Result<u64> PmPool::alloc(u64 size) {
  if (size == 0) return Errc::invalid_argument;
  auto& env = dev_->env();
  // In epoch mode a recycled block is a DRAM pop — charge the freelist-pop
  // cost, not the user-space PM allocator's fence-bound cost.
  env.clock().advance(in_epoch_ ? env.cost.pool_alloc_ns
                      : alloc_charge_ns_ >= 0 ? alloc_charge_ns_
                                              : env.cost.pm_alloc_ns);

  const PoolHeader* h = hdr();
  const auto cls = class_for(size);
  if (cls.has_value()) {
    if (in_epoch_) {
      // Blocks freed this batching period recycle LIFO through DRAM.
      if (!epoch_free_[*cls].empty()) {
        const u64 off = epoch_free_[*cls].back();
        epoch_free_[*cls].pop_back();
        allocated_bytes_ += kClassSizes[*cls];
        return off;
      }
      // Pop the shadow of the sealed chain: links are pre-seal durable
      // and the durable head is zero, so nothing needs persisting.
      const u64 head = shadow_heads_[*cls];
      if (head != 0) {
        shadow_heads_[*cls] = dev_->load_u64(head);
        allocated_bytes_ += kClassSizes[*cls];
        return head;
      }
    } else {
      const u64 head = h->free_heads[*cls];
      if (head != 0) {
        // Pop: read next link from the block, then publish the new head.
        persist_header_field(&h->free_heads[*cls], dev_->load_u64(head));
        allocated_bytes_ += kClassSizes[*cls];
        return head;
      }
    }
  }
  // Carve from the bump region, packed: every block is a whole number of
  // lines, so the frontier stays line-aligned and no carve leaves a hole.
  const u64 block = cls.has_value() ? kClassSizes[*cls]
                                    : align_up(size, kCacheLine);
  const u64 at = h->bump;
  if (block > h->base + h->span_len - at) return Errc::out_of_space;
  if (in_epoch_) {
    // The frontier must be durable before any publication that references
    // space above it retires; flush_metadata() clwb's it before the
    // epoch's first fence. Early drains are harmless: bump is monotonic,
    // so a premature value only leaks.
    dev_->store_u64(field_offset(&h->bump), at + block);
    meta_dirty_ = true;
  } else {
    persist_header_field(&h->bump, at + block);
  }
  allocated_bytes_ += block;
  return at;
}

void PmPool::free(u64 offset, u64 size) {
  auto& env = dev_->env();
  env.clock().advance(in_epoch_ ? env.cost.pool_alloc_ns
                      : free_charge_ns_ >= 0 ? free_charge_ns_
                                             : env.cost.pm_free_ns);

  const auto cls = class_for(size);
  if (!cls.has_value()) return;  // large blocks are not recycled
  if (in_epoch_) {
    // Zero persist events: the block parks in DRAM until reuse (or until
    // exit_commit_epoch links it back durably). A cut loses the whole
    // free pool to the leak bound — durable heads are already sealed.
    epoch_free_[*cls].push_back(offset);
    if (allocated_bytes_ >= kClassSizes[*cls]) {
      allocated_bytes_ -= kClassSizes[*cls];
    }
    return;
  }
  const PoolHeader* h = hdr();
  // Push: write next link into the block, persist it, then publish head.
  const u64 old_head = h->free_heads[*cls];
  dev_->store(offset, std::span<const u8>(reinterpret_cast<const u8*>(&old_head), 8));
  dev_->persist(offset, 8);
  persist_header_field(&h->free_heads[*cls], offset);
  if (allocated_bytes_ >= kClassSizes[*cls]) allocated_bytes_ -= kClassSizes[*cls];
}

bool PmPool::enter_commit_epoch() {
  if (in_epoch_) return false;
  in_epoch_ = true;
  meta_dirty_ = false;
  const PoolHeader* h = hdr();
  bool sealed = false;
  for (std::size_t i = 0; i < kClassSizes.size(); i++) {
    shadow_heads_[i] = h->free_heads[i];
    epoch_free_[i].clear();
    if (h->free_heads[i] != 0) {
      // Durably zero the head so no chain block can be reached from PM
      // while its re-used contents are in flight. The caller fences.
      const u64 off = field_offset(&h->free_heads[i]);
      dev_->store_u64(off, 0);
      dev_->clwb(off, 8);
      sealed = true;
    }
  }
  return sealed;
}

void PmPool::exit_commit_epoch() {
  if (!in_epoch_) return;
  in_epoch_ = false;
  const PoolHeader* h = hdr();
  if (meta_dirty_) {
    dev_->clwb(field_offset(&h->bump), 8);
    meta_dirty_ = false;
  }
  // Phase 1: link every DRAM-parked block onto its shadow chain.
  bool links = false;
  for (std::size_t i = 0; i < kClassSizes.size(); i++) {
    u64 head = shadow_heads_[i];
    for (const u64 off : epoch_free_[i]) {
      dev_->store(off, std::span<const u8>(reinterpret_cast<const u8*>(&head), 8));
      dev_->clwb(off, 8);
      head = off;
      links = true;
    }
    epoch_free_[i].clear();
    shadow_heads_[i] = head;
  }
  if (links) dev_->sfence();
  // Phase 2: republish the heads; links are durable first.
  bool heads = false;
  for (std::size_t i = 0; i < kClassSizes.size(); i++) {
    if (h->free_heads[i] != shadow_heads_[i]) {
      const u64 off = field_offset(&h->free_heads[i]);
      dev_->store_u64(off, shadow_heads_[i]);
      dev_->clwb(off, 8);
      heads = true;
    }
  }
  if (heads) dev_->sfence();
}

void PmPool::flush_metadata() {
  if (!meta_dirty_) return;
  const PoolHeader* h = hdr();
  dev_->clwb(field_offset(&h->bump), 8);
  meta_dirty_ = false;
}

u64 PmPool::capacity() const noexcept {
  const PoolHeader* h = hdr();
  return h->base + h->span_len - align_up(h->base + sizeof(PoolHeader), kCacheLine);
}

u64 PmPool::bump_used() const {
  const PoolHeader* h = hdr();
  return h->bump - align_up(h->base + sizeof(PoolHeader), kCacheLine);
}

}  // namespace papm::pm
