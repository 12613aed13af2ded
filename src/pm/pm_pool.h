// Crash-consistent pool allocator over a PmDevice range.
//
// This models the "user-space persistent memory allocator" the paper's
// baseline (NoveLSM) pays 2.78 us/op for (Table 1, alloc+insert) and that
// the proposed design replaces with the network buffer pool (§4.2).
//
// Layout: a persisted PoolHeader holds a bump pointer and per-size-class
// freelist heads; a free block's first 8 bytes store the next-free offset.
// Carves are packed at the bump frontier: every block is line-aligned and
// a whole number of lines long, so mixed classes leave no padding between
// them. A block is not aligned to its class size.
//
// Crash-consistency policy: *leak, never corrupt*. Every metadata update
// follows write -> clwb -> sfence ordering, and the visible state is
// always a consistent freelist; a crash between popping a block and the
// caller publishing it into its own structure leaks that block (exactly
// like PMDK's non-transactional allocations). `leaked_bytes()` lets tests
// measure the leak bound; `recover()` re-attaches to an existing pool.
// Group-commit integration (FlushBatcher): while the host is batching,
// the pool runs in a *commit epoch*. On entry every non-empty durable
// freelist head is sealed to zero (one clwb'd store per class; the
// batcher fences once), so no durable head can ever point at a block
// whose re-used contents are in flight. Mid-epoch, pops and frees recycle
// through DRAM (a per-class vector of freed offsets plus a shadow of the
// sealed chains) at zero persist events; only the bump frontier is kept
// durable, clwb'd before each epoch's first fence so recovery never
// re-hands-out space under published data. A cut while batching leaks the
// free pool (durable heads are zero) but can never corrupt it. On exit
// the DRAM state is written back: links first, fence, then heads, fence.
#pragma once

#include <algorithm>
#include <array>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "pm/pm_device.h"
#include "pm/pm_ptr.h"

namespace papm::pm {

class PmPool {
 public:
  static constexpr std::array<u32, 7> kClassSizes = {64,  128,  256, 512,
                                                     1024, 2048, 4096};
  static_assert(std::ranges::all_of(kClassSizes,
                                    [](u32 c) { return c % kCacheLine == 0; }),
                "packed carves keep the bump frontier line-aligned");

  /// Formats a new pool occupying [base, base+span_len) of `dev` and
  /// registers it under root name `name`; the header is durable before
  /// this returns. base must be line-aligned. A scaled-out host calls
  /// this once per datapath shard, carving disjoint spans of one device.
  static PmPool create(PmDevice& dev, std::string_view name, u64 base,
                       u64 span_len);

  /// Re-attaches to a pool previously created under `name` (post-crash).
  /// Read-only: recovery itself writes nothing, so it is idempotent and
  /// crash-during-recovery safe. Errc::not_found for an unknown root,
  /// Errc::corrupted on a bad header magic.
  static Result<PmPool> recover(PmDevice& dev, std::string_view name);

  /// Allocates at least `size` bytes; returns the block offset. The block
  /// is line-aligned and disjoint from every other live block; class-size
  /// alignment is not promised. A new carve starts exactly where the last
  /// one ended, so bump_used() equals the bytes carved. Blocks of more
  /// than the largest class are rounded to a whole number of lines (and
  /// are not recycled by free()).
  /// Ordering contract: the bump/freelist metadata update is persisted
  /// (clwb+sfence) before returning, so a crash after alloc() can only
  /// *leak* the block — it can never be handed out twice after recovery.
  /// The block's contents are NOT zeroed or persisted.
  [[nodiscard]] Result<u64> alloc(u64 size);

  /// Returns a block obtained from alloc(size) with the same size class.
  /// The freelist link is persisted before the head is published, so a
  /// crash mid-free leaks (at worst) this one block, never corrupting
  /// the list. The caller must have unpublished the block first.
  void free(u64 offset, u64 size);

  // Accounting (volatile; recomputed on recover).
  [[nodiscard]] u64 allocated_bytes() const noexcept { return allocated_bytes_; }
  [[nodiscard]] u64 capacity() const noexcept;

  // Bytes carved from the bump region so far (live, freelisted or
  // leaked): with packed carves, exactly the sum of the carved blocks.
  [[nodiscard]] u64 bump_used() const;

  // Overrides the simulated cost charged per alloc/free. By default a
  // PmPool charges the generic user-space PM allocator costs (Table 1's
  // alloc component); the packet-buffer pool reconfigures itself to
  // freelist-pop costs (pool_alloc_ns) — the §4.2 allocator unification.
  void set_charges(SimTime alloc_ns, SimTime free_ns) noexcept {
    alloc_charge_ns_ = alloc_ns;
    free_charge_ns_ = free_ns;
  }

  PmDevice& device() noexcept { return *dev_; }

  // --- Commit-epoch mode (driven by FlushBatcher) ----------------------
  /// Seals the durable freelist heads to zero and snapshots them into the
  /// DRAM shadow. Returns true if anything was clwb'd (the caller fences
  /// once across all its pools). Idempotent.
  bool enter_commit_epoch();
  /// Writes the DRAM freelist state back to PM (links, fence, heads,
  /// fence) and leaves epoch mode. Idempotent.
  void exit_commit_epoch();
  /// clwb's the bump frontier if it moved since the last flush; called by
  /// the batcher before an epoch's first fence.
  void flush_metadata();
  [[nodiscard]] bool in_commit_epoch() const noexcept { return in_epoch_; }

 private:
  struct PoolHeader {
    u64 magic;
    u64 base;        // span start (== header offset)
    u64 span_len;    // span length in bytes
    u64 bump;        // next never-allocated offset
    u64 free_heads[kClassSizes.size()];  // 0 = empty
  };
  static constexpr u64 kMagic = 0x50'4f'4f'4c'2d'50'4d'31ULL;  // "POOL-PM1"

  PmPool(PmDevice& dev, u64 header_off);

  [[nodiscard]] const PoolHeader* hdr() const;
  [[nodiscard]] static std::optional<std::size_t> class_for(u64 size) noexcept;
  // Stores `value` into a header field and persists it.
  void persist_header_field(const u64* field, u64 value);
  [[nodiscard]] u64 field_offset(const u64* field) const;

  PmDevice* dev_;
  u64 header_off_;
  u64 allocated_bytes_ = 0;
  SimTime alloc_charge_ns_ = -1;  // -1 = use cost model default
  SimTime free_charge_ns_ = -1;

  // Commit-epoch state (all volatile; empty outside epoch mode).
  bool in_epoch_ = false;
  bool meta_dirty_ = false;  // bump moved since last flush_metadata()
  std::array<u64, kClassSizes.size()> shadow_heads_{};
  std::array<std::vector<u64>, kClassSizes.size()> epoch_free_;
};

}  // namespace papm::pm
