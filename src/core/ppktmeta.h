// Persistent packet metadata (PPktMeta) and value chains.
//
// The heart of the paper's proposal (§4.2, §5.1): packet metadata,
// re-designed to be *persistent* — compact (one cache line, "designed to
// be compact and cache friendly"), addressed by PM offsets rather than
// virtual pointers, and carrying the fields the storage stack would
// otherwise recompute:
//   * the value's Internet checksum, inherited from the NIC-verified TCP
//     checksum (or a CRC32C when checksum reuse is off);
//   * the NIC hardware timestamp;
//   * the location of the value bytes inside the retained packet buffer;
//   * a chain link, so values larger than one segment are a linked list
//     of packet metadata (the network-stack pattern of representing
//     "data that spans across multiple packets").
//
// PktStore indexes chains of these.
#pragma once

#include <span>
#include <vector>

#include "common/crc32c.h"
#include "common/inet_csum.h"
#include "net/pktbuf.h"
#include "storage/knobs.h"

namespace papm::core {

enum class CsumKind : u16 {
  none = 0,
  inet16 = 1,   // reused from the NIC (§4.2)
  crc32c = 2,   // recomputed in software (baseline-equivalent ablation)
};

struct PPktMeta {
  u32 magic;       // kMagic when valid
  u16 csum_kind;   // CsumKind
  u16 csum16;      // value checksum when kind == inet16
  u32 csum32;      // value checksum when kind == crc32c
  u32 data_cap;    // allocation size of the retained packet buffer
  u64 data_off;    // PM offset of the packet buffer (0 = none)
  u32 val_off;     // value offset within the buffer
  u32 val_len;     // value bytes described by this metadata
  i64 hw_tstamp;   // NIC hardware timestamp of the carrying packet
  u64 next;        // PM offset of the next metadata in the chain (0 = end)
  u64 total_len;   // whole-value length (meaningful on the chain head)

  static constexpr u32 kMagic = 0x504b4d31;  // "PKM1"
};
static_assert(sizeof(PPktMeta) <= kCacheLine,
              "persistent packet metadata must stay within one cache line");

// Chain operations behind PktStore. All take the PM-backed
// packet pool: metadata and any copied data come from the same allocator
// the network stack uses (§4.2 allocator unification).
class PChain {
 public:
  PChain(pm::PmDevice& dev, pm::PmPool& pmpool, net::PktBufPool& pktpool)
      : dev_(&dev), pmpool_(&pmpool), pktpool_(&pktpool) {}

  struct IngestOptions {
    bool reuse_checksum = true;   // inherit the NIC checksum vs CRC32C
    bool reuse_timestamp = true;  // inherit hw timestamps vs none
    bool zero_copy = true;        // adopt packet buffers vs copy out
    bool persistence = true;      // flush value bytes (Table 1 knob)
  };

  // Builds a persistent chain from received packets. Each packet
  // contributes payload bytes [offs[i], offs[i] + lens[i]). Returns the
  // head metadata offset. `bd` receives the phase breakdown.
  Result<u64> ingest_pkts(std::span<net::PktBuf* const> pkts,
                          std::span<const u32> offs, std::span<const u32> lens,
                          const IngestOptions& opts,
                          storage::OpBreakdown* bd = nullptr);

  // Builds a chain from application-originated bytes (write(2) path):
  // data is chunked into MSS-sized packet buffers with header room, ready
  // for later zero-copy transmission.
  Result<u64> ingest_bytes(std::span<const u8> data, const IngestOptions& opts,
                           storage::OpBreakdown* bd = nullptr);

  // Reads the whole value (copy-out, charged).
  [[nodiscard]] Result<std::vector<u8>> read(u64 head) const;

  // Verifies the stored checksum against the bytes; corrupted on
  // mismatch, ok when no checksum was stored.
  [[nodiscard]] Status verify(u64 head) const;

  // Builds TX-ready packets over the chain, zero copy (TSO-style
  // emission): each has linear header room, the first one followed by
  // `prefix` (an HTTP response head, at most kMss bytes: the only bytes
  // copied, charged copy_cost), and the value bytes ride as frags
  // pointing at the stored buffers. Packets are filled to kMss payload
  // bytes in stream order, splitting a chain element across two packets
  // where needed, so prefix plus value leave in ceil((prefix + len) /
  // kMss) packets — one more only where a packet runs out of its kMaxFrags
  // frag slots first (elements shorter than kMss / kMaxFrags). An empty
  // value with an empty prefix is one packet with no payload.
  [[nodiscard]] Result<std::vector<net::PktBuf*>> emit_pkts(
      u64 head, std::span<const u8> prefix) const;

  // Frees every metadata block and drops the data references.
  void free_chain(u64 head);

  // Post-crash: walks the chain, validates magic, and re-registers each
  // data handle with the (fresh) packet pool.
  Status restore(u64 head) const;

  // Metadata is written once (alloc_meta's store) and only read after.
  [[nodiscard]] const PPktMeta* meta(u64 off) const;

  [[nodiscard]] pm::PmDevice& device() noexcept { return *dev_; }
  [[nodiscard]] const pm::PmDevice& device() const noexcept { return *dev_; }
  [[nodiscard]] pm::PmPool& pmpool() noexcept { return *pmpool_; }

  // Group-commit routing: value-byte and metadata flushes ride the epoch
  // fences while the batcher is batching.
  void set_batcher(pm::FlushBatcher& b) noexcept { batcher_ = &b; }
  [[nodiscard]] pm::FlushBatcher& batcher() const noexcept { return *batcher_; }

 private:
  Result<u64> alloc_meta(const PPktMeta& m);

  pm::PmDevice* dev_;
  pm::PmPool* pmpool_;
  net::PktBufPool* pktpool_;
  pm::FlushBatcher* batcher_ = &dev_->passthrough();
};

}  // namespace papm::core
