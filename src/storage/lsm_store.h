// LSM key-value store over PM — the NoveLSM-like baseline of §3.
//
// A mutable PM memtable absorbs writes; when it exceeds the rotation
// threshold it is frozen and a new one starts (NoveLSM's immutable
// memtables). Per the paper's methodology, *compaction is off* during
// experiments ("we configure NoveLSM to not move the data to disks");
// compact() exists for the ablation benches. Reads consult the mutable
// table first, then frozen tables newest-first; deletes write tombstones.
//
// Optional write-ahead log models classic LevelDB-on-PM (NoveLSM's design
// point is precisely dropping it — ablation A-wal shows what it costs).
//
// An LsmStore instance is single-threaded by construction: on a
// scaled-out host (DESIGN.md §7) the KvServer creates one store per
// datapath shard over that shard's private PmPool slice, writes on the
// ingress shard and reads from the shard that wrote the key last — there
// is no cross-core sharing inside a store.
#pragma once

#include <deque>
#include <optional>
#include <string>

#include "storage/kv_store.h"
#include "storage/memtable.h"
#include "storage/wal.h"

namespace papm::storage {

struct LsmOptions {
  StoreKnobs knobs;
  bool use_wal = false;
  u64 memtable_limit_bytes = 0;  // 0 = never rotate
  u64 wal_bytes = 1 << 20;       // WAL span (when use_wal)
};

class LsmStore final : public KvStore {
 public:
  /// Creates a fresh store; PM structures are registered under roots
  /// "<name>.cnt", "<name>.t<N>.idx" and (optionally) "<name>.wal", all
  /// durable before returning.
  static LsmStore create(pm::PmDevice& dev, pm::PmPool& pool,
                         std::string_view name, LsmOptions opts = LsmOptions());

  /// Reattaches after a crash: recovers every table and replays the WAL
  /// tail into the mutable memtable (the replay re-runs normal puts, so a
  /// crash *during* recovery is itself recoverable). `opts` must match
  /// the options the store was created with.
  static Result<LsmStore> recover(pm::PmDevice& dev, pm::PmPool& pool,
                                  std::string_view name,
                                  LsmOptions opts = LsmOptions());

  /// Durable iff it returned ok (the memtable's record-then-publish
  /// ordering; with use_wal the WAL append persists first, so the value
  /// additionally survives even if the memtable publish was cut short).
  /// May rotate the memtable first when the limit is configured.
  Status put(std::string_view key, std::span<const u8> value,
             OpBreakdown* bd = nullptr);
  Status put_bytes(std::string_view key, std::span<const u8> value,
                   OpBreakdown* bd = nullptr) override {
    return put(key, value, bd);
  }
  /// The request's value gathered out of its packets (read owner-routed,
  /// so segments from another shard's pool need no copy), then put():
  /// the store's own copy is the Table 1 copy row.
  Status put_pkts(std::string_view key, std::span<net::PktBuf*> pkts,
                  std::span<const u32> offs, std::span<const u32> lens,
                  OpBreakdown* bd = nullptr) override;
  /// Tombstone (or physical erase in the single-table configuration);
  /// durable iff ok, same ordering contract as put(). Errc::not_found
  /// (and no write at all) when no table holds a live value for `key`.
  Status erase(std::string_view key) override;

  /// Copy-out read across all tables, newest first; verifies checksums
  /// (Errc::corrupted surfaces torn records instead of returning them).
  [[nodiscard]] Result<std::vector<u8>> get(std::string_view key) const;
  /// get() under the request's batched hint, taken before the read (the
  /// memtable charges traversal by it). A copying hit: no handle.
  [[nodiscard]] Result<Hit> lookup(std::string_view key, bool batched) override;

  // Ordered range scan across all tables (newest value wins, tombstones
  // hide older entries). fn(key, value_view); stops early on false.
  void scan(std::string_view from, std::string_view to,
            const std::function<bool(std::string_view, std::span<const u8>)>& fn)
      const;
  void scan_keys(std::string_view from, std::string_view to,
                 const std::function<bool(std::string_view, u64)>& fn)
      const override {
    scan(from, to, [&](std::string_view k, std::span<const u8> v) {
      return fn(k, v.size());
    });
  }

  /// Freezes the mutable memtable (no-op when empty). The new table's
  /// roots are created and persisted before the table count is published
  /// with one atomic 8-byte overwrite — a mid-rotation crash recovers to
  /// either the old or the new table set, never a mix.
  Status rotate();

  // Merges every frozen table into the mutable one and drops them —
  // the compaction the paper's experiments disable.
  Status compact();

  [[nodiscard]] std::size_t table_count() const noexcept {
    return 1 + frozen_.size();
  }
  [[nodiscard]] std::size_t entries() const noexcept;
  [[nodiscard]] bool has_wal() const noexcept { return wal_.has_value(); }

  // Back-to-back hint for the active memtable (group commit regime).
  void set_batched(bool b) noexcept override {
    if (active_.has_value()) active_->set_batched(b);
  }

  // Group-commit routing for the active memtable and the WAL; survives
  // rotation/compaction (fresh tables are re-attached). Frozen tables
  // keep the batcher they were written under.
  void set_batcher(pm::FlushBatcher& b) noexcept {
    batcher_ = &b;
    if (active_.has_value()) active_->set_batcher(b);
    if (wal_.has_value()) wal_->set_batcher(b);
  }

  // Mirrors op counts into a (per-shard) registry: store.puts /
  // store.gets / store.erases / store.rotations, plus the WAL's
  // wal.* counters when the log is enabled.
  void set_metrics(obs::MetricRegistry* r) {
    m_puts_ = r != nullptr ? &r->counter("store.puts") : nullptr;
    m_gets_ = r != nullptr ? &r->counter("store.gets") : nullptr;
    m_erases_ = r != nullptr ? &r->counter("store.erases") : nullptr;
    m_rotations_ = r != nullptr ? &r->counter("store.rotations") : nullptr;
    if (wal_.has_value()) wal_->set_metrics(r);
  }

 private:
  LsmStore(pm::PmDevice& dev, pm::PmPool& pool, std::string name,
           LsmOptions opts)
      : dev_(&dev), pool_(&pool), name_(std::move(name)), opts_(opts) {}

  // Table numbers map onto 8 recycled root-name slots: the live range
  // [first, next) never exceeds 8 tables, so slots never collide and the
  // device root table stays bounded.
  [[nodiscard]] std::string table_name(u64 n) const {
    return name_ + ".t" + std::to_string(n % 8);
  }
  void persist_count();
  Status maybe_rotate();
  // True when the newest entry for `key` across all tables is a value,
  // not a tombstone.
  [[nodiscard]] bool live(std::string_view key) const;

  pm::PmDevice* dev_;
  pm::PmPool* pool_;
  std::string name_;
  LsmOptions opts_;
  pm::FlushBatcher* batcher_ = &dev_->passthrough();
  std::optional<Wal> wal_;
  std::optional<PmMemtable> active_;
  std::deque<PmMemtable> frozen_;  // newest at back
  u64 next_table_ = 1;             // next table number to allocate
  u64 bytes_in_active_ = 0;
  obs::Counter* m_puts_ = nullptr;
  obs::Counter* m_gets_ = nullptr;
  obs::Counter* m_erases_ = nullptr;
  obs::Counter* m_rotations_ = nullptr;
};

}  // namespace papm::storage
