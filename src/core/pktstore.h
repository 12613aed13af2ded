// PktStore — the paper's proposed key-value store (§4.2), built.
//
// "Packets as persistent in-memory data structures": received packets are
// retained in the PM-backed packet pool, described by persistent packet
// metadata (PPktMeta), indexed by a persistent skip list whose nodes come
// from the same pool. The storage properties are implemented by
// *repurposed networking features*:
//
//   integrity    — the NIC-verified TCP checksum, narrowed to the value
//                  slice in ones'-complement arithmetic (no CPU pass over
//                  the value bytes);
//   timestamps   — NIC hardware timestamps carried in the metadata;
//   search       — the skip list of packet metadata ("implementable using
//                  packet metadata, although some additional list entries
//                  may be needed" — the index node is that extra entry);
//   allocation   — the network buffer allocator serves data, metadata and
//                  index nodes (freelist pops, not a general PM malloc);
//   zero copy    — values stay in the DMA'd packet buffer; reads for
//                  transmission emit frag-backed packets (TSO-style).
//
// Every reuse is individually toggleable for the ablation benches.
#pragma once

#include <string_view>

#include "container/pskiplist.h"
#include "core/ppktmeta.h"
#include "obs/metrics.h"
#include "storage/kv_store.h"

namespace papm::core {

// Who executes the skip-list level-0 append for a sliced PUT: the host
// CPU, the NIC's index engine (CARGO-style near-data insert, doorbell +
// completion), or an automatic size-based choice. The engine's fixed
// command cost beats the host only once the host-side per-byte work it
// displaces (cold-line persists, per-segment appends) is large enough —
// auto_ offloads values of at least kNicInsertMinBytes, the measured
// crossover (DESIGN.md §11.2, EXPERIMENTS.md "Slicer").
enum class InsertPolicy : u8 { host = 0, nic = 1, auto_ = 2 };
constexpr u64 kNicInsertMinBytes = 2048;

// The §3 reuse knobs (reuse_checksum, reuse_timestamp, zero_copy,
// persistence) are PChain's ingest flags, inherited.
struct PktStoreOptions : PChain::IngestOptions {
  // Charge the paper's lighter request handling (no LevelDB WriteBatch);
  // off = charge the baseline's full request-preparation cost.
  bool light_prep = true;
  // NIC index-engine offload policy. Only sliced, zero-copy PUTs are
  // eligible (the engine operates on NIC-placed slots); ineligible PUTs
  // fall back to the host path regardless of policy.
  InsertPolicy insert = InsertPolicy::host;
  // Index policy (selective persistence: shadow_towers keeps upper skip
  // list towers DRAM-only and rebuilds them at recovery). recover() must
  // be called with the same options the store was created with.
  container::PSkipListOptions index;
};

class PktStore final : public storage::KvStore {
 public:
  // `pktpool` must be backed by a PmArena (packet buffers in PM — the
  // PASTE substrate); its PmPool provides all persistent allocations.
  static PktStore create(net::PktBufPool& pktpool, std::string_view name,
                         PktStoreOptions opts = PktStoreOptions());

  // Reattaches after a crash and re-registers every live data buffer
  // with the fresh (volatile) packet pool.
  static Result<PktStore> recover(net::PktBufPool& pktpool,
                                  std::string_view name,
                                  PktStoreOptions opts = PktStoreOptions());

  // §4.2 ingest: the value for `key` is the byte range
  // [val_off, val_off + val_len) of `pb`'s buffer (val_off is absolute
  // within the buffer, e.g. past TCP + HTTP headers). The store takes its
  // own reference on the packet data; the caller still frees `pb`.
  Status put_pkt(std::string_view key, net::PktBuf& pb, u32 val_off,
                 u32 val_len, storage::OpBreakdown* bd = nullptr);

  // Multi-segment values: one packet per chain element, same ranges. The
  // chain adopts data into this store's own packet pool, so a segment
  // from another pool (a request that spanned a flow migration) is first
  // re-homed: copied into this pool, swapped into `pkts`, the original
  // released.
  Status put_pkts(std::string_view key, std::span<net::PktBuf*> pkts,
                  std::span<const u32> offs, std::span<const u32> lens,
                  storage::OpBreakdown* bd = nullptr) override;

  // Application-originated put (no carrying packet).
  Status put_bytes(std::string_view key, std::span<const u8> value,
                   storage::OpBreakdown* bd = nullptr) override;

  // Copy-out read, checksum-verified.
  [[nodiscard]] Result<std::vector<u8>> get(std::string_view key) const;

  // GET probe: one index walk to the chain head, no value read. The hit
  // carries the head as its handle, so emit_pkts() transmits the value
  // without a second walk. Only a hit takes `batched`.
  [[nodiscard]] Result<Hit> lookup(std::string_view key,
                                   bool batched) override;

  // Zero-copy read for transmission: the packets PChain::emit_pkts builds
  // over the chain a lookup() hit names — `prefix` (the HTTP head) in the
  // first packet's linear buffer, the value as frags, packed to kMss
  // payload bytes each, so a head of H bytes and a value of N leave in
  // ceil((H + N) / kMss) segments. Ready for TcpConn::send_pkt.
  [[nodiscard]] Result<std::vector<net::PktBuf*>> emit_pkts(
      const Hit& hit, std::span<const u8> prefix) const override;

  // The same packets for `key`, with no prefix: one index walk, then
  // emit_pkts().
  [[nodiscard]] Result<std::vector<net::PktBuf*>> get_as_pkts(
      std::string_view key) const;

  struct ValueMeta {
    u64 len;
    CsumKind csum_kind;
    i64 hw_tstamp;  // of the first segment
    u32 segments;
  };
  [[nodiscard]] Result<ValueMeta> stat(std::string_view key) const;

  // Integrity scrub of one key (recompute vs stored checksum).
  [[nodiscard]] Status verify(std::string_view key) const;

  Status erase(std::string_view key) override;

  // fn(key, meta); ordered by key; early-stop on false.
  template <typename Fn>
  void scan(std::string_view from, std::string_view to, Fn&& fn) const {
    index_.scan(from, to, [&](std::string_view k, u64 head) {
      return fn(k, stat_of(head));
    });
  }
  void scan_keys(std::string_view from, std::string_view to,
                 const std::function<bool(std::string_view, u64)>& fn)
      const override {
    scan(from, to,
         [&](std::string_view k, const ValueMeta& m) { return fn(k, m.len); });
  }

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  // Index walks since creation (PSkipList::walks).
  [[nodiscard]] u64 index_walks() const noexcept { return index_.walks(); }
  [[nodiscard]] Status validate() const { return index_.validate(); }

  // Recovery cost split of the index rebuild (backbone scan vs. tower
  // relink) from the last recover() — see PSkipList::RecoverStats.
  [[nodiscard]] const container::PSkipList::RecoverStats& index_recover_stats()
      const noexcept {
    return index_.recover_stats();
  }

  // Back-to-back hint: warms the index traversal charging (the same
  // batching effect the baseline enjoys; keeps comparisons fair).
  void set_batched(bool b) noexcept override { index_.set_warm(b); }

  // Group-commit routing: value/metadata flushes and index publications
  // ride the per-shard epoch fences; chain frees of durably-referenced
  // heads are quarantined until their epoch retires.
  void set_batcher(pm::FlushBatcher& b) noexcept {
    chain_.set_batcher(b);
    index_.set_batcher(b);
  }

  // Mirrors op counts into a (per-shard) registry: store.puts /
  // store.gets / store.erases.
  void set_metrics(obs::MetricRegistry* r) {
    m_puts_ = r != nullptr ? &r->counter("store.puts") : nullptr;
    m_gets_ = r != nullptr ? &r->counter("store.gets") : nullptr;
    m_erases_ = r != nullptr ? &r->counter("store.erases") : nullptr;
    m_nic_inserts_ =
        r != nullptr ? &r->counter("nic.inserts_offloaded") : nullptr;
  }

 private:
  PktStore(net::PktBufPool& pktpool, net::PmArena& arena,
           container::PSkipList index, PktStoreOptions opts)
      : pktpool_(&pktpool),
        chain_(arena.device(), arena.pool(), pktpool),
        index_(std::move(index)),
        opts_(opts) {}

  [[nodiscard]] ValueMeta stat_of(u64 head) const;
  void retire_chain(u64 head);
  void charge_prep(storage::OpBreakdown* bd) const;
  // NIC index-engine variant of put_pkts: host pays doorbell + completion
  // (and, un-batched, waits out the engine); ingest + insert execute with
  // their charges diverted off the host clock.
  Status put_pkts_offloaded(std::string_view key,
                            std::span<net::PktBuf* const> pkts,
                            std::span<const u32> offs,
                            std::span<const u32> lens,
                            storage::OpBreakdown* bd);

  // Copies each segment of `pkts` that another pool allocated into
  // pktpool_ (see put_pkts).
  Status rehome(std::span<net::PktBuf*> pkts);

  net::PktBufPool* pktpool_;
  mutable PChain chain_;
  container::PSkipList index_;
  PktStoreOptions opts_;
  obs::Counter* m_puts_ = nullptr;
  obs::Counter* m_gets_ = nullptr;
  obs::Counter* m_erases_ = nullptr;
  obs::Counter* m_nic_inserts_ = nullptr;
};

}  // namespace papm::core
