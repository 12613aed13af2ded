#include "core/ppktmeta.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace papm::core {

namespace {
using Phase = struct PhaseTimer {
  PhaseTimer(sim::Env& env, SimTime* out) : env_(env), out_(out), t0_(env.now()) {}
  ~PhaseTimer() {
    if (out_ != nullptr) *out_ += env_.now() - t0_;
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  sim::Env& env_;
  SimTime* out_;
  SimTime t0_;
};
}  // namespace

const PPktMeta* PChain::meta(u64 off) const {
  return reinterpret_cast<const PPktMeta*>(
      std::as_const(*dev_).at(off, sizeof(PPktMeta)));
}

Result<u64> PChain::alloc_meta(const PPktMeta& m) {
  auto off = pmpool_->alloc(sizeof(PPktMeta));
  if (!off.ok()) return off.errc();
  dev_->store(off.value(),
              std::span<const u8>(reinterpret_cast<const u8*>(&m), sizeof(m)));
  batcher_->persist(off.value(), sizeof(m));
  return off.value();
}

Result<u64> PChain::ingest_pkts(std::span<net::PktBuf* const> pkts,
                                std::span<const u32> offs,
                                std::span<const u32> lens,
                                const IngestOptions& opts,
                                storage::OpBreakdown* bd) {
  if (pkts.empty() || pkts.size() != offs.size() || pkts.size() != lens.size()) {
    return Errc::invalid_argument;
  }
  auto& env = dev_->env();
  u64 total = 0;
  for (const u32 l : lens) total += l;

  // Build metadata back-to-front so each element can point at its
  // successor before being persisted (no fix-up writes).
  u64 next = 0;
  std::vector<u64> metas(pkts.size(), 0);
  for (std::size_t idx = pkts.size(); idx-- > 0;) {
    net::PktBuf& pb = *pkts[idx];
    PPktMeta m{};
    m.magic = PPktMeta::kMagic;
    m.val_len = lens[idx];
    m.next = next;
    m.total_len = idx == 0 ? total : 0;

    // Payload view and the value's offset within it. For a sliced packet
    // the span resolves into the NIC-placed slice block; for a contiguous
    // packet it is the same pointer math as before the slicer.
    const std::span<const u8> payload = pktpool_->payload(pb);
    const u32 lead = offs[idx] - pb.payload_off;

    // Checksum: inherit the NIC word or recompute like the baseline.
    {
      Phase p(env, bd != nullptr ? &bd->checksum_ns : nullptr);
      if (opts.reuse_checksum && pb.csum_verified) {
        // Narrow the NIC-provided payload checksum to the value slice,
        // touching only the bytes outside the value (§4.2).
        const u32 trail =
            static_cast<u32>(payload.size()) - lead - lens[idx];
        env.clock().advance(env.cost.inet_csum_cost(lead + trail));
        m.csum_kind = static_cast<u16>(CsumKind::inet16);
        m.csum16 = inet_csum_slice(payload, pb.payload_csum, lead, lead + lens[idx]);
      } else {
        env.clock().advance(env.cost.crc32c_cost(lens[idx]));
        m.csum_kind = static_cast<u16>(CsumKind::crc32c);
        m.csum32 = crc32c(payload.subspan(lead, lens[idx]));
      }
    }

    // Timestamp: the NIC already stamped the packet.
    if (opts.reuse_timestamp) {
      m.hw_tstamp = pb.hw_tstamp;
    }

    // Sliced descriptor: completion bookkeeping + slot adoption cost.
    if (pb.sliced()) {
      Phase p(env, bd != nullptr ? &bd->slice_ns : nullptr);
      env.clock().advance(env.cost.nic_slice_host_ns);
    }

    // Data: adopt in place, or copy out like the baseline. A sliced
    // packet's value already sits in its final slot — adopt the slice.
    const bool dma_durable = opts.zero_copy && pb.sliced();
    {
      Phase p(env, bd != nullptr ? &bd->copy_ns : nullptr);
      if (opts.zero_copy && pb.sliced()) {
        m.data_off = pktpool_->adopt_slice(pb);
        m.data_cap = pb.slice_cap;
        m.val_off = pb.slice_off + lead;
      } else if (opts.zero_copy) {
        m.data_off = pktpool_->adopt_data(pb);
        m.data_cap = pb.cap;
        m.val_off = offs[idx];
      } else {
        auto buf = pmpool_->alloc(lens[idx]);
        if (!buf.ok()) return buf.errc();
        env.clock().advance(env.cost.copy_cost(lens[idx]));
        dev_->store(buf.value(), payload.subspan(lead, lens[idx]));
        m.data_off = buf.value();
        m.data_cap = lens[idx];
        m.val_off = 0;
        // Register with the pool's refcounting so free_chain is uniform.
        pktpool_->restore_ref(buf.value());
      }
    }

    // Persist the value bytes (DMA left them dirty in PM) — unless the
    // NIC's slicing DMA already made exactly these bytes durable on
    // placement (dma_durable: adopted slice, nothing dirty to flush).
    {
      Phase p(env, bd != nullptr ? &bd->persist_ns : nullptr);
      if (opts.persistence && !dma_durable) {
        batcher_->persist(m.data_off + m.val_off, m.val_len);
      }
    }

    // Metadata block: one line, allocated from the packet pool.
    {
      Phase p(env, bd != nullptr ? &bd->alloc_insert_ns : nullptr);
      auto off = alloc_meta(m);
      if (!off.ok()) return off.errc();
      metas[idx] = off.value();
      next = off.value();
    }
  }
  return metas[0];
}

Result<u64> PChain::ingest_bytes(std::span<const u8> data,
                                 const IngestOptions& opts,
                                 storage::OpBreakdown* bd) {
  auto& env = dev_->env();
  // Chunk into MSS-sized packet buffers with TX header room, so the data
  // can later leave the host without another allocation or copy (§4.2:
  // "it can avoid memory deallocation in its own allocator and memory
  // allocation inside the network stack").
  const u32 chunk_max = static_cast<u32>(net::kMss);
  u64 next = 0;
  u64 head = 0;
  const std::size_t n_chunks =
      data.empty() ? 1 : (data.size() + chunk_max - 1) / chunk_max;

  for (std::size_t idx = n_chunks; idx-- > 0;) {
    const u64 at = static_cast<u64>(idx) * chunk_max;
    const u32 len = static_cast<u32>(
        std::min<std::size_t>(chunk_max, data.size() - at));
    const u32 cap = static_cast<u32>(net::kAllHdrLen) + len;
    auto buf = pmpool_->alloc(cap);
    if (!buf.ok()) return buf.errc();
    {
      Phase p(env, bd != nullptr ? &bd->copy_ns : nullptr);
      env.clock().advance(env.cost.copy_cost(len));
      if (len > 0) {
        dev_->store(buf.value() + net::kAllHdrLen,
                    std::span<const u8>(data.data() + at, len));
      }
    }
    PPktMeta m{};
    m.magic = PPktMeta::kMagic;
    m.data_off = buf.value();
    m.data_cap = cap;
    m.val_off = static_cast<u32>(net::kAllHdrLen);
    m.val_len = len;
    m.next = next;
    m.total_len = idx == 0 ? data.size() : 0;
    {
      Phase p(env, bd != nullptr ? &bd->checksum_ns : nullptr);
      env.clock().advance(env.cost.inet_csum_cost(len));
      m.csum_kind = static_cast<u16>(CsumKind::inet16);
      m.csum16 = inet_checksum(std::span<const u8>(data.data() + at, len));
    }
    m.hw_tstamp = opts.reuse_timestamp ? env.now() : 0;
    {
      Phase p(env, bd != nullptr ? &bd->persist_ns : nullptr);
      if (opts.persistence) batcher_->persist(m.data_off + m.val_off, m.val_len);
    }
    {
      Phase p(env, bd != nullptr ? &bd->alloc_insert_ns : nullptr);
      auto off = alloc_meta(m);
      if (!off.ok()) return off.errc();
      next = off.value();
      head = off.value();
    }
    // Register the fresh block with the packet pool's refcounting so the
    // free path is uniform with adopted packets.
    pktpool_->restore_ref(buf.value());
  }
  return head;
}

Result<std::vector<u8>> PChain::read(u64 head) const {
  auto& env = dev_->env();
  std::vector<u8> out;
  const PPktMeta* h = meta(head);
  if (h->magic != PPktMeta::kMagic) return Errc::corrupted;
  out.reserve(h->total_len);
  for (u64 at = head; at != 0;) {
    const PPktMeta* m = meta(at);
    if (m->magic != PPktMeta::kMagic) return Errc::corrupted;
    const u8* p = std::as_const(*dev_).at(m->data_off + m->val_off, m->val_len);
    env.clock().advance(env.cost.copy_cost(m->val_len));
    out.insert(out.end(), p, p + m->val_len);
    at = m->next;
  }
  if (out.size() != h->total_len) return Errc::corrupted;
  return out;
}

Status PChain::verify(u64 head) const {
  auto& env = dev_->env();
  for (u64 at = head; at != 0;) {
    const PPktMeta* m = meta(at);
    if (m->magic != PPktMeta::kMagic) return Errc::corrupted;
    const std::span<const u8> bytes(
        std::as_const(*dev_).at(m->data_off + m->val_off, m->val_len), m->val_len);
    switch (static_cast<CsumKind>(m->csum_kind)) {
      case CsumKind::inet16: {
        env.clock().advance(env.cost.inet_csum_cost(bytes.size()));
        if (inet_csum_canon(inet_checksum(bytes)) != inet_csum_canon(m->csum16)) {
          return Errc::corrupted;
        }
        break;
      }
      case CsumKind::crc32c: {
        env.clock().advance(env.cost.crc32c_cost(bytes.size()));
        if (crc32c(bytes) != m->csum32) return Errc::corrupted;
        break;
      }
      case CsumKind::none:
        break;
      default:
        return Errc::corrupted;
    }
    at = m->next;
  }
  return Errc::ok;
}

Result<std::vector<net::PktBuf*>> PChain::emit_pkts(
    u64 head, std::span<const u8> prefix) const {
  if (prefix.size() > net::kMss) return Errc::invalid_argument;
  auto& env = dev_->env();
  std::vector<net::PktBuf*> out;
  net::PktBuf* pb = nullptr;
  const auto fail = [&](Errc e) {
    if (pb != nullptr) pktpool_->free(pb);
    for (auto* p : out) pktpool_->free(p);
    return e;
  };
  // A packet with header room and `extra` linear bytes after it.
  const auto start = [&](std::size_t extra) {
    const auto len = static_cast<u32>(net::kAllHdrLen + extra);
    pb = pktpool_->alloc(len);
    if (pb == nullptr) return false;
    pb->len = len;
    pb->payload_off = static_cast<u16>(net::kAllHdrLen);
    return true;
  };
  // The prefix (the HTTP response head) rides in the first packet's
  // linear buffer behind the header room: the one copy, charged like the
  // socket write it replaces, and left dirty like the TCP headers.
  if (!start(prefix.size())) return Errc::out_of_space;
  if (!prefix.empty()) {
    env.clock().advance(env.cost.copy_cost(prefix.size()));
    std::memcpy(pktpool_->writable(*pb, pb->len).data() + net::kAllHdrLen,
                prefix.data(), prefix.size());
    pktpool_->arena().mark_dirty(pb->data_h + net::kAllHdrLen, prefix.size());
  }
  // Value bytes ride as frags, packed greedily into MSS-payload packets:
  // a packet ends when full or out of frag slots, so a segment may be
  // split across two packets and a packet may span several segments.
  u64 room = net::kMss - prefix.size();
  for (u64 at = head; at != 0;) {
    const PPktMeta* m = meta(at);
    if (m->magic != PPktMeta::kMagic) return fail(Errc::corrupted);
    for (u32 used = 0; used < m->val_len;) {
      if (room == 0 || pb->nr_frags == net::PktBuf::kMaxFrags) {
        out.push_back(pb);
        pb = nullptr;
        if (!start(0)) return fail(Errc::out_of_space);
        room = net::kMss;
      }
      if (pb->nr_frags == 0) pb->hw_tstamp = m->hw_tstamp;  // first segment's
      const auto take = static_cast<u32>(std::min<u64>(room, m->val_len - used));
      const Status st = pktpool_->add_frag(*pb, m->data_off, take,
                                           m->val_off + used, m->data_cap);
      if (!st.ok()) return fail(st.errc());
      used += take;
      room -= take;
    }
    at = m->next;
  }
  out.push_back(pb);
  return out;
}

void PChain::free_chain(u64 head) {
  for (u64 at = head; at != 0;) {
    const PPktMeta m = *meta(at);
    if (m.magic != PPktMeta::kMagic) return;
    if (m.data_off != 0) pktpool_->unref_data(m.data_off, m.data_cap);
    pmpool_->free(at, sizeof(PPktMeta));
    at = m.next;
  }
}

Status PChain::restore(u64 head) const {
  for (u64 at = head; at != 0;) {
    const PPktMeta* m = meta(at);
    if (m->magic != PPktMeta::kMagic) return Errc::corrupted;
    if (m->data_off != 0) pktpool_->restore_ref(m->data_off);
    at = m->next;
  }
  return Errc::ok;
}

}  // namespace papm::core
