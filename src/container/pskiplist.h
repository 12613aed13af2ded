// Persistent skip list in PM.
//
// The index structure of both the NoveLSM-like baseline memtable
// (storage/memtable.h) and the paper's proposed packet-metadata store
// (core/pktstore.h §4.2: "NoveLSM implements a persistent, mutable skip
// list in the PM ... implementable using packet metadata, although some
// additional list entries may be needed").
//
// Crash consistency is by ordered publication:
//   1. write the node (header, tower, key) into freshly allocated PM,
//      clwb + sfence;
//   2. publish the level-0 predecessor link with one 8-byte store,
//      clwb + sfence — the linearization point;
//   3. link upper levels (shortcuts; losing them costs performance, not
//      correctness — recovery rebuilds all towers from level 0).
// Erase persists a dead flag first (the linearization point), then
// unlinks; recovery drops dead nodes.
//
// Node layout (offsets within the node):
//   +0  u16 height   +2  u16 flags   +4  u32 key_len
//   +8  u64 payload  (opaque to the list; atomically updatable)
//   +16 u64 next[height]
//   +16+8*height  key bytes
#pragma once

#include <cstring>
#include <string_view>
#include <unordered_set>

#include "common/types.h"
#include "pm/flush_batch.h"
#include "pm/pm_device.h"
#include "pm/pm_pool.h"

namespace papm::container {

struct PSkipListOptions {
  // Fraction of index-node visits charged as PM cache misses; the rest
  // hit the CPU cache (see sim/cost_model.h calibration note). 0.14
  // reproduces Table 1's 2.78 us alloc+insert at a few thousand resident
  // keys; packet metadata being "compact and cache friendly" (§5.1) is
  // exactly why this fraction is low. The allocation charge is a
  // property of the PmPool (set_charges), not of the list.
  double cold_visit_p = 0.14;

  // Selective persistence ("Don't Persist All"): keep only the level-0
  // backbone persistent and shadow the upper towers in DRAM — tower
  // updates are raw memory writes, never clwb'd, never fenced, and
  // recovery rebuilds them deterministically from the backbone scan.
  // A node's *birth* tower still rides along with its content persist
  // (same lines, zero extra cost) as a rebuildable hint.
  bool shadow_towers = true;
};

class PSkipList {
 public:
  static constexpr int kMaxHeight = 12;
  static constexpr u32 kBranching = 4;

  using Options = PSkipListOptions;

  /// Creates an empty list whose head node is allocated from `pool` and
  /// registered as root `name`; head and root durable before returning.
  static PSkipList create(pm::PmDevice& dev, pm::PmPool& pool,
                          std::string_view name, Options opts = Options());

  /// Re-attaches after a crash: finds the head by root name, walks level 0
  /// skipping dead/unreachable nodes, and rebuilds all upper towers.
  /// The rebuild writes (and fences) tower links, but only ones that are
  /// already rebuildable hints — so recovery is idempotent: a crash
  /// during or right after recover() recovers to the identical state.
  static Result<PSkipList> recover(pm::PmDevice& dev, pm::PmPool& pool,
                                   std::string_view name, Options opts = Options());

  /// Insert or update; durable iff it returned ok. Ordering contract
  /// (see file header): the node is fully persisted before the level-0
  /// predecessor link publishes it with one atomic 8-byte store, so a
  /// mid-put crash exposes the old state or the new one, never a torn
  /// node; upper tower links are unfenced hints recovery rebuilds.
  /// On update only the 8-byte payload is republished and, when
  /// `old_payload` is non-null, the replaced value is reported (so
  /// callers can reclaim what it referenced without a second traversal).
  /// Resurrected (previously erased) keys report no old value.
  Status put(std::string_view key, u64 payload, u64* old_payload = nullptr);

  [[nodiscard]] Result<u64> get(std::string_view key) const;

  /// Logically then physically removes the key; the node's PM block is
  /// returned to the pool. Returns true if the key was present.
  /// Linearizes at the persisted dead flag: a crash before it leaves the
  /// key intact, after it the key is gone (recovery drops dead nodes and
  /// reclaims their blocks; the unlink itself is a rebuildable hint).
  bool erase(std::string_view key);

  // fn(key, payload) over keys in [from, to) (to empty = unbounded);
  // stops early when fn returns false.
  template <typename Fn>
  void scan(std::string_view from, std::string_view to, Fn&& fn) const {
    u64 n = find_greater_or_equal(from, nullptr);
    while (n != 0) {
      const std::string_view k = node_key(n);
      if (!to.empty() && k >= to) return;
      if (!is_dead(n) && !fn(k, node_payload(n))) return;
      n = next_of(n, 0);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] u64 last_visits() const noexcept { return last_visits_; }
  // Searches from the head (get, put, erase, scan start) since creation.
  [[nodiscard]] u64 walks() const noexcept { return walks_; }

  // Back-to-back traversal hint: while set, the cold-miss fraction is
  // scaled by the cost model's batched_warm_scale (upper index levels
  // stay cache-resident between consecutive operations).
  void set_warm(bool warm) noexcept { warm_ = warm; }

  // Group-commit routing. Every flush, fence and publication goes through
  // the batcher (the device's pass-through one until another is
  // attached). While it is batching: publications into *durable* nodes
  // are withheld (FlushBatcher publish_u64), mutations of nodes born in
  // the open epoch stay ordinary content (re-flushed, covered by the
  // epoch's first fence), node frees are quarantined past the epoch
  // close, and the level-0 unlink — not the dead flag — is an erase's
  // linearization point.
  void set_batcher(pm::FlushBatcher& b) noexcept { batcher_ = &b; }

  // Recovery cost split of the last recover(): the level-0 backbone scan
  // (including dead-node repair) vs. relinking the upper towers.
  struct RecoverStats {
    SimTime scan_ns = 0;
    SimTime tower_ns = 0;
  };
  [[nodiscard]] const RecoverStats& recover_stats() const noexcept {
    return recover_stats_;
  }

  // Structural check: level-0 strictly sorted, towers point forward and
  // land on live reachable nodes. For tests.
  [[nodiscard]] Status validate() const;

 private:
  PSkipList(pm::PmDevice& dev, pm::PmPool& pool, u64 head, Options opts)
      : dev_(&dev), pool_(&pool), head_(head), opts_(opts) {}

  static constexpr u16 kDead = 1;
  static constexpr u64 node_bytes(int height, u32 key_len) noexcept {
    return 16 + 8 * static_cast<u64>(height) + key_len;
  }

  [[nodiscard]] u16 node_height(u64 n) const;
  [[nodiscard]] bool is_dead(u64 n) const;
  [[nodiscard]] u64 node_payload(u64 n) const { return dev_->load_u64(n + 8); }
  [[nodiscard]] std::string_view node_key(u64 n) const;
  [[nodiscard]] u64 next_of(u64 n, int level) const {
    return dev_->load_u64(n + 16 + 8 * static_cast<u64>(level));
  }
  void set_next(u64 n, int level, u64 to) {
    dev_->store_u64(n + 16 + 8 * static_cast<u64>(level), to);
  }
  // DRAM-shadow tower write: a volatile store, no dirty tracking — the
  // word can never drain to PM on its own, and it can never un-pend a
  // content line that is in flight toward an epoch fence.
  void set_next_volatile(u64 n, int level, u64 to) {
    dev_->store_volatile(n + 16 + 8 * static_cast<u64>(level),
                         std::span<const u8>(reinterpret_cast<const u8*>(&to), 8));
  }
  // Publish one link durably (store + clwb + sfence).
  void publish_next(u64 n, int level, u64 to);
  // Routes an 8-byte publication: plain re-flushed content for nodes
  // born in the open epoch, the batcher's publish_u64 otherwise.
  void publish_word(u64 off, u64 value, bool fresh);
  [[nodiscard]] bool batching() const noexcept { return batcher_->batching(); }
  // Nodes allocated in the still-open commit epoch (their content lines
  // have not passed a fence yet). Lazily reset when the epoch changes.
  bool is_fresh(u64 n);
  void note_fresh(u64 n);

  int random_height();
  void charge_visits(u64 visits) const;

  // First node (offset) with key >= `key`; 0 if none. Fills prev[] with
  // per-level predecessors when non-null. Counts visits for charging.
  u64 find_greater_or_equal(std::string_view key, u64* prev) const;

  void rebuild_towers();  // recovery: relink all levels from level 0

  pm::PmDevice* dev_;
  pm::PmPool* pool_;
  u64 head_;
  Options opts_;
  int height_ = 1;  // volatile hint; recomputed on recover
  std::size_t size_ = 0;
  mutable u64 last_visits_ = 0;
  mutable u64 walks_ = 0;
  bool warm_ = false;
  pm::FlushBatcher* batcher_ = &dev_->passthrough();
  std::unordered_set<u64> fresh_;  // epoch-born nodes (volatile)
  u64 fresh_serial_ = 0;
  RecoverStats recover_stats_;
};

}  // namespace papm::container
