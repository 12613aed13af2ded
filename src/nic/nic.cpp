#include "nic/nic.h"

#include <algorithm>
#include <cstring>

#include "net/udp.h"

namespace papm::nic {

using net::kAllHdrLen;
using net::kEthHdrLen;
using net::kIpHdrLen;
using net::kTcpHdrLen;

namespace {

// The Microsoft RSS verification-suite key (the default programmed by
// most drivers, e.g. ixgbe/i40e).
constexpr u8 kRssKey[40] = {
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
    0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
    0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
    0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa};

// The Toeplitz hash is linear over GF(2): input bit j contributes the
// 32-bit key window starting at key bit j. So the hash of a 12-byte
// tuple is the XOR of one precomputed entry per input byte — entry
// [i][b] is the XOR of the windows of the set bits of byte value b at
// input byte i. Exact, and 12 loads instead of 96 conditional XORs.
struct ToeplitzTable {
  u32 t[12][256];
};

constexpr ToeplitzTable make_toeplitz_table() {
  ToeplitzTable tab{};
  for (int i = 0; i < 12; i++) {
    u32 window[8] = {};  // window of bit 7 - k of byte i (MSB first)
    for (int k = 0; k < 8; k++) {
      const int bit = 8 * i + k;  // key bit the window starts at
      u32 w = 0;
      for (int j = 0; j < 32; j++) {
        const int kb = bit + j;
        w = (w << 1) | ((kRssKey[kb / 8] >> (7 - kb % 8)) & 1u);
      }
      window[k] = w;
    }
    for (int b = 0; b < 256; b++) {
      u32 h = 0;
      for (int k = 0; k < 8; k++) {
        if (((b >> (7 - k)) & 1) != 0) h ^= window[k];
      }
      tab.t[i][b] = h;
    }
  }
  return tab;
}

constexpr ToeplitzTable kToeplitz = make_toeplitz_table();

}  // namespace

u32 rss_toeplitz(u32 src_ip, u32 dst_ip, u16 src_port,
                 u16 dst_port) noexcept {
  const auto& t = kToeplitz.t;
  return t[0][src_ip >> 24] ^ t[1][(src_ip >> 16) & 0xff] ^
         t[2][(src_ip >> 8) & 0xff] ^ t[3][src_ip & 0xff] ^
         t[4][dst_ip >> 24] ^ t[5][(dst_ip >> 16) & 0xff] ^
         t[6][(dst_ip >> 8) & 0xff] ^ t[7][dst_ip & 0xff] ^
         t[8][src_port >> 8] ^ t[9][src_port & 0xff] ^
         t[10][dst_port >> 8] ^ t[11][dst_port & 0xff];
}

Nic::Nic(sim::Env& env, Fabric& fabric, u32 ip, net::PktBufPool& pool,
         Options opts)
    : env_(env), fabric_(fabric), ip_(ip), opts_(opts) {
  mac_.b[0] = 0x02;
  mac_.b[2] = static_cast<u8>(ip >> 24);
  mac_.b[3] = static_cast<u8>(ip >> 16);
  mac_.b[4] = static_cast<u8>(ip >> 8);
  mac_.b[5] = static_cast<u8>(ip);
  queues_.push_back(Queue{&pool, nullptr});
  reset_indirection();
  fabric_.attach(ip, [this](const WireFrame& f) { on_frame(f); });
}

u32 Nic::add_queue(net::PktBufPool& pool) {
  queues_.push_back(Queue{&pool, nullptr});
  reset_indirection();
  return static_cast<u32>(queues_.size() - 1);
}

void Nic::reset_indirection() noexcept {
  // Even spread. For power-of-two queue counts (every bench
  // configuration) entry[h % 128] == h % queues, so the default table is
  // bit-identical to the pre-table modulo steering.
  for (u32 i = 0; i < kIndirEntries; i++) {
    indir_[i] = static_cast<u16>(i % queues_.size());
  }
}

void Nic::set_indirection(u32 bucket, u32 queue) {
  const u32 b = bucket % kIndirEntries;
  const u16 q = static_cast<u16>(
      std::min<u32>(queue, static_cast<u32>(queues_.size()) - 1));
  if (indir_[b] == q) return;
  indir_[b] = q;
  indir_remaps_++;
  obs::inc(m_indir_remaps_);
}

void Nic::set_queue_sink(u32 queue, std::function<void(net::PktBuf*)> sink) {
  queues_.at(queue).sink = std::move(sink);
}

void Nic::transmit(net::PktBuf* pb) {
  if (!link_up_) {
    pb->owner->free(pb);  // dead host: the frame goes nowhere
    return;
  }
  // Driver work: descriptor + doorbell (CPU, charged to the caller's
  // core — each core rings its own TX queue's doorbell).
  env_.clock().advance(env_.cost.scaled(env_.cost.nic_tx_ns));
  const u32 txq = std::min<u32>(pb->rss_queue, num_queues() - 1);
  queues_[txq].tx_frames++;
  obs::inc(queues_[txq].m_tx_frames);

  // Resolve data through the packet's owning pool: a cross-shard
  // zero-copy response carries buffers of another core's arena.
  net::PktBufPool& pool = *pb->owner;
  WireFrame frame{fabric_.take_buffer()};
  const u8* base = pool.data(*pb);
  frame.bytes.assign(base, base + pb->len);  // DMA read; not CPU time
  for (int i = 0; i < pb->nr_frags; i++) {
    // Scatter-gather DMA: frag bytes join the frame without CPU copies.
    const auto& fr = pb->frags[i];
    const u8* f = pool.arena().view(fr.data_h, fr.off + fr.len) + fr.off;
    frame.bytes.insert(frame.bytes.end(), f, f + fr.len);
  }

  if (opts_.csum_offload_tx) {
    // Checksum engine on the TX path: covers the L4 header + payload with
    // the IPv4 pseudo-header. Free of CPU cost.
    env_.clock().advance(env_.cost.nic_csum_offload_ns);
    const std::size_t l4_len = frame.bytes.size() - pb->l4_off;
    const u32 pseudo =
        net::l4_pseudo_sum(pb->ip.src, pb->ip.dst, pb->l4_proto, l4_len);
    if (pb->l4_proto == net::kIpProtoTcp && pb->tcp.checksum == 0) {
      const u32 sum = pseudo + inet_sum(std::span<const u8>(
                                   frame.bytes.data() + pb->l4_off, l4_len));
      const u16 csum = static_cast<u16>(~inet_fold(sum));
      frame.bytes[pb->l4_off + 16] = static_cast<u8>(csum >> 8);
      frame.bytes[pb->l4_off + 17] = static_cast<u8>(csum & 0xff);
    } else if (pb->l4_proto == net::kIpProtoUdp &&
               frame.bytes[pb->l4_off + 6] == 0 &&
               frame.bytes[pb->l4_off + 7] == 0) {
      const u32 sum = pseudo + inet_sum(std::span<const u8>(
                                   frame.bytes.data() + pb->l4_off, l4_len));
      u16 csum = static_cast<u16>(~inet_fold(sum));
      if (csum == 0) csum = 0xffff;  // UDP: 0 means "no checksum"
      frame.bytes[pb->l4_off + 6] = static_cast<u8>(csum >> 8);
      frame.bytes[pb->l4_off + 7] = static_cast<u8>(csum & 0xff);
    }
  }

  // Link serialization: frames from every TX queue share the one wire.
  const SimTime ready = env_.now();
  const SimTime start = std::max(ready, link_free_at_);
  const SimTime depart = start + env_.cost.wire_cost(frame.bytes.size());
  link_free_at_ = depart;

  frame.tx_hw_tstamp = depart;
  tx_frames_++;
  const u32 dst_ip = pb->ip.dst;
  pool.free(pb);  // clones in the rtx queue keep the data alive
  fabric_.inject(dst_ip, std::move(frame), depart);
}

void Nic::on_frame(const WireFrame& frame) {
  if (!link_up_) return;  // dead host: in-flight frames hit a dark port
  // Parse L2-L4 from the wire bytes first: the RSS engine hashes the
  // 4-tuple *before* DMA so the frame lands in the right queue's
  // pre-posted buffer (header parsing is NIC hardware, not CPU time).
  const std::span<const u8> bytes(frame.bytes);
  const auto eth = net::decode_eth(bytes);
  if (!eth || eth->ethertype != net::kEtherTypeIpv4) {
    rx_drops_++;
    obs::inc(m_rx_drops_);
    return;
  }
  const auto ip = net::decode_ip(bytes.subspan(kEthHdrLen));
  if (!ip || (ip->protocol != net::kIpProtoTcp &&
              ip->protocol != net::kIpProtoUdp)) {
    rx_drops_++;
    obs::inc(m_rx_drops_);
    return;
  }

  net::TcpHeader l4{};  // L4 view: ports + checksum (+ full TCP fields)
  u16 payload_off;
  std::size_t l4_hdr_len;
  if (ip->protocol == net::kIpProtoTcp) {
    const auto tcp = net::decode_tcp(bytes.subspan(kEthHdrLen + kIpHdrLen));
    if (!tcp) {
      rx_drops_++;
      obs::inc(m_rx_drops_);
      return;
    }
    l4 = *tcp;
    payload_off = kAllHdrLen;
    l4_hdr_len = kTcpHdrLen;
  } else {
    const auto udp = net::decode_udp(bytes.subspan(kEthHdrLen + kIpHdrLen));
    if (!udp) {
      rx_drops_++;
      obs::inc(m_rx_drops_);
      return;
    }
    l4.src_port = udp->src_port;
    l4.dst_port = udp->dst_port;
    l4.checksum = udp->checksum;
    payload_off = static_cast<u16>(net::kUdpAllHdrLen);
    l4_hdr_len = net::kUdpHdrLen;
  }

  // RSS steering: hash -> indirection table -> queue. Same flow -> same
  // queue -> same core until the table entry is remapped (and the remap
  // migrates the flow group's TCP + store state with it). Only the TCP
  // hash type is enabled (like the testbed's default RSS config);
  // datagrams land on queue 0, where the UDP stack polls.
  const u32 hash = rss_toeplitz(ip->src, ip->dst, l4.src_port, l4.dst_port);
  u32 q = 0;
  if (ip->protocol == net::kIpProtoTcp) {
    const u32 bucket = rss_bucket_of(hash);
    bucket_rx_[bucket]++;
    q = indir_[bucket];
  }
  Queue& queue = queues_[q];

  // --- Sliced RX path (payload slicer engine, §5.2) --------------------
  // The slicer splits the DMA: headers land in a (small) pre-posted
  // descriptor buffer, the payload lands in a separately allocated arena
  // slot — on a PM-backed queue, its final durable resting place. Like
  // the checksum engine it sits on the store-and-forward path and adds no
  // latency of its own. Gated to TCP frames with payload on PM-pooled
  // queues (DRAM clients keep the contiguous path) and requires the RX
  // checksum engine: verification must precede the split DMA, and the
  // payload integrity word narrows from the same complete sum.
  if (opts_.payload_slicing && opts_.csum_offload_rx &&
      ip->protocol == net::kIpProtoTcp && frame.bytes.size() > payload_off &&
      queue.pool->arena().persistent()) {
    const std::span<const u8> l4_seg = bytes.subspan(kEthHdrLen + kIpHdrLen);
    const u32 full_sum = inet_sum(l4_seg);
    const u32 pseudo =
        net::l4_pseudo_sum(ip->src, ip->dst, ip->protocol, l4_seg.size());
    if (inet_fold(full_sum + pseudo) != 0xffff) {
      rx_csum_errors_++;
      obs::inc(m_rx_csum_err_);
      return;
    }
    const u32 plen = static_cast<u32>(frame.bytes.size()) - payload_off;
    net::PktBuf* pb = queue.pool->alloc(payload_off);  // headers only
    if (pb == nullptr) {
      rx_drops_++;
      obs::inc(m_rx_drops_);
      return;
    }
    if (!queue.pool->attach_slice(*pb, plen)) {
      queue.pool->free(pb);
      rx_drops_++;
      obs::inc(m_rx_drops_);
      return;
    }
    std::memcpy(queue.pool->writable(*pb, payload_off).data(),
                frame.bytes.data(), payload_off);
    queue.pool->arena().mark_dirty(pb->data_h, payload_off);
    // Payload DMA straight into the slice slot: a PCIe non-allocating
    // write — durable on placement, no flush owed (PmDevice::store_dma).
    queue.pool->arena().store_dma(pb->slice_h,
                                  bytes.subspan(payload_off, plen));
    pb->len = static_cast<u32>(frame.bytes.size());
    pb->hw_tstamp = env_.now();
    pb->l2_off = 0;
    pb->l3_off = kEthHdrLen;
    pb->l4_off = kEthHdrLen + kIpHdrLen;
    pb->l4_proto = ip->protocol;
    pb->ip = *ip;
    pb->tcp = l4;
    pb->payload_off = payload_off;
    pb->rss_hash = hash;
    pb->rss_queue = static_cast<u16>(q);
    pb->wire_csum = pb->tcp.checksum;
    pb->csum_verified = true;
    pb->payload_csum = net::payload_csum_from_complete(
        full_sum, bytes.subspan(pb->l4_off, l4_hdr_len));
    rx_frames_++;
    queue.rx_frames++;
    queue.sliced_frames++;
    obs::inc(queue.m_rx_frames);
    obs::inc(queue.m_sliced_frames);
    if (queue.sink) {
      queue.sink(pb);
    } else {
      queue.pool->free(pb);
    }
    return;
  }

  // DMA into a pre-posted RX buffer of the chosen queue.
  net::PktBuf* pb = queue.pool->alloc(static_cast<u32>(frame.bytes.size()));
  if (pb == nullptr) {
    rx_drops_++;
    obs::inc(m_rx_drops_);
    return;
  }
  std::memcpy(
      queue.pool->writable(*pb, static_cast<u32>(frame.bytes.size())).data(),
      frame.bytes.data(), frame.bytes.size());
  queue.pool->arena().mark_dirty(pb->data_h, frame.bytes.size());
  pb->len = static_cast<u32>(frame.bytes.size());
  pb->hw_tstamp = env_.now();

  pb->l2_off = 0;
  pb->l3_off = kEthHdrLen;
  pb->l4_off = kEthHdrLen + kIpHdrLen;
  pb->l4_proto = ip->protocol;
  pb->ip = *ip;
  pb->tcp = l4;
  pb->payload_off = payload_off;
  pb->rss_hash = hash;
  pb->rss_queue = static_cast<u16>(q);

  const bool udp_csum_absent =
      ip->protocol == net::kIpProtoUdp && pb->tcp.checksum == 0;
  if (opts_.csum_offload_rx && !udp_csum_absent) {
    // Hardware verification + checksum-complete. No CPU cost.
    const std::span<const u8> l4_seg = bytes.subspan(pb->l4_off);
    const u32 full_sum = inet_sum(l4_seg);
    const u32 pseudo =
        net::l4_pseudo_sum(ip->src, ip->dst, ip->protocol, l4_seg.size());
    if (inet_fold(full_sum + pseudo) != 0xffff) {
      rx_csum_errors_++;
      obs::inc(m_rx_csum_err_);
      queue.pool->free(pb);
      return;
    }
    pb->wire_csum = pb->tcp.checksum;
    pb->csum_verified = true;
    // Derive the payload-only checksum from the complete sum — the §4.2
    // reuse: the store gets its integrity word without touching payload
    // bytes on the CPU.
    pb->payload_csum = net::payload_csum_from_complete(
        full_sum, bytes.subspan(pb->l4_off, l4_hdr_len));
  }

  rx_frames_++;
  queue.rx_frames++;
  obs::inc(queue.m_rx_frames);
  if (queue.sink) {
    queue.sink(pb);
  } else {
    queue.pool->free(pb);
  }
}

}  // namespace papm::nic
