// Packet metadata and buffer pools — the sk_buff analogue (paper Fig. 3).
//
// A PktBuf carries exactly the metadata the paper argues storage stacks
// should reuse:
//   * next/prev linkage and an rbtree hook (socket queues, the TCP
//     out-of-order tree);
//   * software and NIC-hardware timestamps;
//   * the wire TCP checksum and a derived payload-only checksum
//     (NIC checksum-complete offload, §4.2 checksum reuse);
//   * head/data offsets locating the protocol headers and payload in the
//     linear buffer;
//   * metadata and data reference counts with kernel-style clone
//     semantics: a clone shares the immutable packet data (retransmission
//     queues hold clones; the paper relies on this to share data between
//     the network and storage stacks);
//   * frags: additional data areas letting one metadata describe data
//     larger than the MTU (GSO/TSO, §4.2 file-system sketch).
//
// Buffers come from a BufArena. HeapArena models ordinary kernel packet
// memory (DRAM); PmArena places packet data in a PM device — the PASTE
// property that makes received payloads persistable in place.
#pragma once

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "container/rbtree.h"
#include "net/headers.h"
#include "pm/pm_device.h"
#include "pm/pm_pool.h"
#include "sim/env.h"

namespace papm::net {

// --- Buffer arenas ------------------------------------------------------

class BufArena {
 public:
  virtual ~BufArena() = default;

  // Allocates `size` bytes; returns an opaque handle.
  [[nodiscard]] virtual Result<u64> alloc(u64 size) = 0;
  virtual void free(u64 handle, u64 size) = 0;

  // Resolves a handle to memory for writing. Raw pointers must not be
  // held across a PM crash; on a PM arena a write through one must also
  // land before the next fence over its lines (PmDevice::at).
  [[nodiscard]] virtual u8* data(u64 handle, u64 len) = 0;
  // Resolves a handle to memory for reading: the checksum, parse and
  // gather paths, which on a PM arena must not take pre-images.
  [[nodiscard]] virtual const u8* view(u64 handle, u64 len) const = 0;

  // True when buffers live in persistent memory (PASTE-style).
  [[nodiscard]] virtual bool persistent() const noexcept = 0;

  // Persistence hooks; no-ops for DRAM arenas.
  virtual void mark_dirty(u64 /*handle*/, u64 /*len*/) {}
  virtual void persist(u64 /*handle*/, u64 /*len*/) {}

  // Device-DMA store into the block: on a PM arena the bytes are durable
  // on return (PmDevice::store_dma); on DRAM it is a plain copy. Used by
  // the NIC slicer to place payloads in their final slot.
  virtual void store_dma(u64 handle, std::span<const u8> data) = 0;
};

// DRAM-backed arena: the ordinary kernel packet allocator.
//
// A slab of recycled blocks: a freed block goes on the free list of its
// size class (four classes per power of two, so at most 25% slack) and
// the next alloc of that class takes it back, zero-filled again like a
// fresh block. A handle is {generation, slot + 1}; freeing bumps the
// slot's generation, so a stale handle still throws in data() after its
// slot is reused.
class HeapArena final : public BufArena {
 public:
  explicit HeapArena(sim::Env& env) : env_(&env) {}

  [[nodiscard]] Result<u64> alloc(u64 size) override;
  void free(u64 handle, u64 size) override;
  [[nodiscard]] u8* data(u64 handle, u64 len) override;
  [[nodiscard]] const u8* view(u64 handle, u64 len) const override;
  [[nodiscard]] bool persistent() const noexcept override { return false; }
  void store_dma(u64 handle, std::span<const u8> data) override;

  // Introspection for tests: blocks currently allocated.
  [[nodiscard]] std::size_t live_blocks() const noexcept { return live_; }

 private:
  struct Block {
    std::unique_ptr<u8[]> mem;  // capacity: class_bytes(cls)
    u64 size = 0;               // bytes of the current allocation
    u32 gen = 1;
    u8 cls = 0;
    bool live = false;
  };
  // Null when the handle is not a live block's current handle.
  [[nodiscard]] const Block* find(u64 handle) const noexcept;
  // The live block, or out_of_range for a stale handle or a `len` past
  // its end.
  [[nodiscard]] const Block& resolve(u64 handle, u64 len) const;

  sim::Env* env_;
  std::vector<Block> blocks_;
  std::vector<std::vector<u32>> free_;  // per size class: free slots
  std::size_t live_ = 0;
};

// PM-backed arena: packet data (and, in pktstore, metadata) allocated
// from a persistent pool. Handles are PM byte offsets, stable across
// crashes.
class PmArena final : public BufArena {
 public:
  PmArena(pm::PmDevice& dev, pm::PmPool& pool) : dev_(&dev), pool_(&pool) {}

  [[nodiscard]] Result<u64> alloc(u64 size) override { return pool_->alloc(size); }
  void free(u64 handle, u64 size) override { pool_->free(handle, size); }
  [[nodiscard]] u8* data(u64 handle, u64 len) override {
    return dev_->at(handle, len);
  }
  [[nodiscard]] const u8* view(u64 handle, u64 len) const override {
    return std::as_const(*dev_).at(handle, len);
  }
  [[nodiscard]] bool persistent() const noexcept override { return true; }
  void mark_dirty(u64 handle, u64 len) override { dev_->mark_dirty(handle, len); }
  void persist(u64 handle, u64 len) override { dev_->persist(handle, len); }
  void store_dma(u64 handle, std::span<const u8> data) override {
    dev_->store_dma(handle, data);
  }

  [[nodiscard]] pm::PmDevice& device() noexcept { return *dev_; }
  [[nodiscard]] pm::PmPool& pool() noexcept { return *pool_; }

 private:
  pm::PmDevice* dev_;
  pm::PmPool* pool_;
};

// --- Packet metadata ------------------------------------------------------

struct PktBuf {
  static constexpr int kMaxFrags = 4;

  struct Frag {
    u64 data_h = 0;
    u32 off = 0;  // start of the fragment's bytes within the block
    u32 len = 0;
    u32 cap = 0;  // allocation size of the block (for freeing)
  };

  // Linkage.
  PktBuf* next = nullptr;
  PktBuf* prev = nullptr;
  container::RbHook rb{};  // TCP out-of-order tree hook
  u32 rb_key = 0;          // tree key (TCP sequence number)

  // Timestamps.
  SimTime tstamp = 0;     // stack (software) timestamp
  SimTime hw_tstamp = 0;  // NIC hardware timestamp (0 = none)

  // Checksums.
  u16 wire_csum = 0;       // TCP checksum as carried on the wire
  u16 payload_csum = 0;    // payload-only Internet checksum (derived)
  bool csum_verified = false;

  // RSS (multi-queue NICs): Toeplitz hash of the 4-tuple and the RX/TX
  // descriptor queue this packet travelled through. On RX the NIC fills
  // both; on TX the stack marks its queue for per-queue accounting.
  u32 rss_hash = 0;
  u16 rss_queue = 0;

  // Parsed header views: offsets into the linear buffer, plus decoded
  // copies for cheap access. For UDP datagrams `tcp` carries only the
  // port and checksum fields (the L4 view); l4_proto disambiguates.
  u16 l2_off = 0;
  u16 l3_off = 0;
  u16 l4_off = 0;
  u16 payload_off = 0;
  u8 l4_proto = kIpProtoTcp;
  IpHeader ip{};
  TcpHeader tcp{};

  // Linear data area. For a *sliced* packet (NIC payload slicer, see
  // sliced() below) the linear buffer holds only the headers
  // [0, payload_off) and `len` still counts headers + payload, so TCP
  // sequence arithmetic and payload_len() are representation-blind.
  u64 data_h = 0;
  u32 cap = 0;  // allocation size
  u32 len = 0;  // used bytes

  // Payload slice (NIC slicer): the payload bytes were DMA'd by the NIC
  // into a separately allocated arena block — on a PM arena, their final
  // durable slot. Bytes live at [slice_h + slice_off, + payload_len()).
  // The slice is refcounted exactly like data_h (clones share it).
  u64 slice_h = 0;
  u32 slice_cap = 0;
  u32 slice_off = 0;

  [[nodiscard]] bool sliced() const noexcept {
    return slice_h != 0;
  }

  // Drop the first `n` payload bytes (TCP partial-overlap trim): for a
  // sliced packet the slice window advances in step with payload_off.
  void trim_payload(u32 n) noexcept {
    payload_off = static_cast<u16>(payload_off + n);
    if (sliced()) slice_off += n;
  }

  // Fragments (GSO super-packets).
  Frag frags[kMaxFrags]{};
  u8 nr_frags = 0;

  [[nodiscard]] u32 payload_len() const noexcept { return len - payload_off; }
  // Payload including frag bytes (TX scatter-gather packets).
  [[nodiscard]] u64 payload_total() const noexcept {
    return total_len() - payload_off;
  }
  [[nodiscard]] u64 total_len() const noexcept {
    u64 t = len;
    for (int i = 0; i < nr_frags; i++) t += frags[i].len;
    return t;
  }

  // Pool bookkeeping (private to PktBufPool). `owner` is the pool that
  // allocated this metadata: with per-core pool shards (multi-queue RSS
  // datapath) a packet can cross shards — e.g. a zero-copy GET response
  // built by the shard holding the key and transmitted by the
  // connection's core — and every ref/unref/free must route to the
  // owning pool.
  class PktBufPool* owner = nullptr;
  bool in_use = false;
};

// --- Metadata pool with clone semantics -----------------------------------

class PktBufPool {
 public:
  PktBufPool(sim::Env& env, BufArena& arena) : env_(&env), arena_(&arena) {}

  PktBufPool(const PktBufPool&) = delete;
  PktBufPool& operator=(const PktBufPool&) = delete;

  // Allocates metadata plus a linear buffer of `data_cap` bytes.
  // Returns nullptr when the arena is exhausted or the metadata pool is
  // at its configured limit.
  [[nodiscard]] PktBuf* alloc(u32 data_cap);

  // Kernel-style clone: new metadata sharing the same (refcounted) data.
  // The TCP retransmission queue holds clones so lower layers may release
  // their metadata while the data stays intact (paper §4.1). Returns
  // nullptr when the metadata pool is at its configured limit.
  [[nodiscard]] PktBuf* clone(const PktBuf& pb);

  // Caps live metadata at `n` descriptors (0 = unlimited, the default).
  // Models a real driver's fixed descriptor pool: at the cap, alloc() and
  // clone() fail (nullptr) instead of growing the slab — best-effort
  // consumers such as a capture tap drop their copy rather than stall RX.
  void set_meta_limit(std::size_t n) noexcept { meta_limit_ = n; }
  [[nodiscard]] std::size_t meta_limit() const noexcept { return meta_limit_; }

  // Releases metadata; the linear buffer and frags are freed when their
  // last reference (clone or adopted handle) drops. Must be called on the
  // pool that allocated `pb` — call release() when that is not certain.
  void free(PktBuf* pb);

  // Owner-routed free: releases `pb` into whichever pool allocated it.
  // The safe default wherever a packet may have crossed pool shards.
  static void release(PktBuf* pb) {
    if (pb != nullptr) pb->owner->free(pb);
  }

  // Adopt the packet's linear data: takes an extra reference on the data
  // so it outlives all metadata. Used by pktstore to keep payload bytes
  // in place (§4.2 zero-copy ingest). Pair with unref_data().
  [[nodiscard]] u64 adopt_data(PktBuf& pb);
  void unref_data(u64 data_h, u32 cap);

  // NIC slicer support: allocates a `len`-byte arena block as the
  // packet's payload slice (refcounted; freed with the last metadata or
  // adopter reference). Returns false when the arena is exhausted.
  [[nodiscard]] bool attach_slice(PktBuf& pb, u32 len);
  // Adopt the payload slice (zero-copy ingest of a sliced packet): extra
  // reference, like adopt_data. Pair with unref_data(slice_h, slice_cap).
  [[nodiscard]] u64 adopt_slice(PktBuf& pb);

  // Attaches an arena block as a refcounted frag of `pb` (super-packets,
  // zero-copy emission of stored data). `off` selects a byte range within
  // the block.
  Status add_frag(PktBuf& pb, u64 data_h, u32 len, u32 off = 0,
                  u32 cap = 0 /* 0 = off + len */);

  // Re-registers a data handle that survived a crash (PM blocks owned by
  // a recovered store): gives it one reference so unref_data() works
  // uniformly afterwards.
  void restore_ref(u64 data_h) { ref_data(data_h); }

  // Resolves the linear buffer for reading.
  [[nodiscard]] const u8* data(const PktBuf& pb) const {
    return arena_->view(pb.data_h, pb.len);
  }
  // The first `len` bytes of the linear buffer, for writing.
  [[nodiscard]] std::span<u8> writable(PktBuf& pb, u32 len) {
    return {arena_->data(pb.data_h, len), len};
  }
  [[nodiscard]] std::span<const u8> payload(const PktBuf& pb) const {
    if (pb.sliced()) {
      return {arena_->view(pb.slice_h, pb.slice_off + pb.payload_len()) +
                  pb.slice_off,
              pb.payload_len()};
    }
    return {arena_->view(pb.data_h, pb.len) + pb.payload_off, pb.payload_len()};
  }

  [[nodiscard]] BufArena& arena() noexcept { return *arena_; }
  [[nodiscard]] sim::Env& env() noexcept { return *env_; }

  // Introspection for tests/benches.
  [[nodiscard]] std::size_t live_metadata() const noexcept { return live_meta_; }
  [[nodiscard]] std::size_t live_data_blocks() const noexcept {
    return data_refs_.size();
  }

 private:
  void ref_data(u64 handle);
  bool unref(u64 handle);  // returns true when the count hit zero

  sim::Env* env_;
  BufArena* arena_;
  std::deque<PktBuf> slab_;
  std::vector<PktBuf*> free_meta_;
  FlatMap<u32> data_refs_;  // data handle -> references (never 0)
  std::size_t live_meta_ = 0;
  std::size_t meta_limit_ = 0;  // 0 = unlimited
};

}  // namespace papm::net
