#include "net/gso.h"

#include <cstring>

namespace papm::net {

PktBuf* make_super(PktBufPool& pool, std::span<const u8> payload, u32 headroom) {
  if (payload.size() > static_cast<u64>(PktBuf::kMaxFrags) * kFragPage) {
    return nullptr;
  }
  PktBuf* pb = pool.alloc(headroom);
  if (pb == nullptr) return nullptr;
  pb->len = headroom;
  pb->payload_off = static_cast<u16>(headroom);

  std::size_t off = 0;
  while (off < payload.size()) {
    const u32 take = static_cast<u32>(std::min<std::size_t>(
        kFragPage, payload.size() - off));
    auto h = pool.arena().alloc(take);
    if (!h.ok()) {
      pool.free(pb);
      return nullptr;
    }
    std::memcpy(pool.arena().data(h.value(), take), payload.data() + off, take);
    pool.arena().mark_dirty(h.value(), take);
    if (!pool.add_frag(*pb, h.value(), take).ok()) {
      pool.arena().free(h.value(), take);
      pool.free(pb);
      return nullptr;
    }
    off += take;
  }
  return pb;
}

std::vector<u8> super_payload(PktBufPool& pool, PktBuf& super) {
  std::vector<u8> out;
  out.reserve(super.total_len() - super.payload_off);
  if (super.len > super.payload_off) {
    const u8* base = pool.data(super);
    out.insert(out.end(), base + super.payload_off, base + super.len);
  }
  for (int i = 0; i < super.nr_frags; i++) {
    const auto& fr = super.frags[i];
    const u8* f = pool.arena().view(fr.data_h, fr.off + fr.len) + fr.off;
    out.insert(out.end(), f, f + fr.len);
  }
  return out;
}

std::vector<PktBuf*> gso_segment(PktBufPool& pool, PktBuf& super,
                                 bool charge_copy) {
  const std::vector<u8> payload = super_payload(pool, super);
  auto& env = pool.env();
  if (charge_copy) {
    env.clock().advance(env.cost.copy_cost(payload.size()));
  }
  std::vector<PktBuf*> segs;
  std::size_t off = 0;
  while (off < payload.size()) {
    const u32 take =
        static_cast<u32>(std::min<std::size_t>(kMss, payload.size() - off));
    PktBuf* seg = pool.alloc(static_cast<u32>(kAllHdrLen) + take);
    if (seg == nullptr) {
      for (PktBuf* s : segs) pool.free(s);
      return {};
    }
    seg->len = static_cast<u32>(kAllHdrLen) + take;
    seg->payload_off = kAllHdrLen;
    std::memcpy(pool.writable(*seg, seg->len).data() + kAllHdrLen,
                payload.data() + off, take);
    pool.arena().mark_dirty(seg->data_h + kAllHdrLen, take);
    segs.push_back(seg);
    off += take;
  }
  return segs;
}

}  // namespace papm::net
