#include "net/homa.h"

#include <cstring>

namespace papm::net {

namespace {

constexpr u64 kUnscheduledSegs = 2;  // sent before any grant (RTT-bytes)
constexpr u64 kGrantWindowSegs = 4;  // receiver-granted in-flight limit
constexpr SimTime kResendTimeoutNs = 1 * kNsPerMs;

constexpr u64 rx_key(u64 msg_id, u32 src_ip, u16 src_port) {
  return (msg_id << 24) ^ (static_cast<u64>(src_ip) << 8) ^ src_port;
}

struct WireHomaHdr {
  u8 type;
  u64 msg_id;
  u32 offset;
  u32 total_len;
  u32 grant;
};

void encode_homa(const WireHomaHdr& h, std::span<u8> out) {
  std::memset(out.data(), 0, kHomaHdrLen);
  out[0] = h.type;
  std::memcpy(out.data() + 4, &h.msg_id, 8);
  std::memcpy(out.data() + 12, &h.offset, 4);
  std::memcpy(out.data() + 16, &h.total_len, 4);
  std::memcpy(out.data() + 20, &h.grant, 4);
}

std::optional<WireHomaHdr> decode_homa(std::span<const u8> in) {
  if (in.size() < kHomaHdrLen) return std::nullopt;
  WireHomaHdr h;
  h.type = in[0];
  std::memcpy(&h.msg_id, in.data() + 4, 8);
  std::memcpy(&h.offset, in.data() + 12, 4);
  std::memcpy(&h.total_len, in.data() + 16, 4);
  std::memcpy(&h.grant, in.data() + 20, 4);
  return h;
}

}  // namespace

std::vector<u8> HomaDelivery::bytes(PktBufPool& pool) const {
  std::vector<u8> out;
  out.reserve(total_len);
  for (std::size_t i = 0; i < pkts.size(); i++) {
    const u8* base = pool.data(*pkts[i]);
    out.insert(out.end(), base + offs[i], base + offs[i] + lens[i]);
  }
  return out;
}

HomaEndpoint::HomaEndpoint(UdpStack& udp, u16 port, Options opts)
    : udp_(udp), port_(port), opts_(opts) {
  const Status st = udp_.bind(
      port, [this](u32 ip, u16 sport, PktBuf* pb) { rx(ip, sport, pb); });
  if (!st.ok()) throw std::runtime_error("HomaEndpoint: port taken");
}

void HomaEndpoint::charge_proc() {
  udp_.env().clock().advance(udp_.env().cost.homa_proc_ns);
}

u64 HomaEndpoint::send_msg(u32 dst_ip, u16 dst_port, std::span<const u8> data) {
  const u64 id = next_msg_id_++;
  TxMsg m;
  m.dst_ip = dst_ip;
  m.dst_port = dst_port;
  m.data.assign(data.begin(), data.end());
  m.granted = std::min<u64>(data.size(), kUnscheduledSegs * kHomaSegPayload);
  m.sent = 0;
  m.done = false;
  m.retries = 0;
  m.timer_gen = 0;
  auto [it, inserted] = tx_.emplace(id, std::move(m));
  tx_from(it->second, id, it->second.granted);
  arm_tx_timer(id, it->second);
  msgs_tx_++;
  return id;
}

u64 HomaEndpoint::send_msg_gather(u32 dst_ip, u16 dst_port,
                                  std::span<const u8> header,
                                  std::span<const GatherSeg> segs,
                                  PktBufPool& pool) {
  const u64 id = next_msg_id_++;
  TxMsg m;
  m.dst_ip = dst_ip;
  m.dst_port = dst_port;
  m.data.assign(header.begin(), header.end());
  m.gather.assign(segs.begin(), segs.end());
  m.gather_pool = &pool;
  for (const GatherSeg& g : m.gather) {
    pool.restore_ref(g.data_h);  // held until ack or give-up
    m.gather_len += g.len;
  }
  m.granted =
      std::min<u64>(m.total_len(), kUnscheduledSegs * kHomaSegPayload);
  m.sent = 0;
  m.done = false;
  m.retries = 0;
  m.timer_gen = 0;
  auto [it, inserted] = tx_.emplace(id, std::move(m));
  tx_from(it->second, id, it->second.granted);
  arm_tx_timer(id, it->second);
  msgs_tx_++;
  return id;
}

void HomaEndpoint::release_gather(TxMsg& m) {
  if (m.gather_pool == nullptr) return;
  for (const GatherSeg& g : m.gather) m.gather_pool->unref_data(g.data_h, g.cap);
  m.gather.clear();
  m.gather_pool = nullptr;
}

void HomaEndpoint::abandon() {
  // No pool traffic: the owning host is power-cut and its pools are dead
  // objects. Leaked volatile metadata is exactly what a real power cut
  // leaves behind. Bump every timer generation so in-flight timer events
  // find nothing to do.
  tx_.clear();
  rx_.clear();
  delivered_.clear();
}

// Builds and sends one wire segment of a gather message starting at
// message offset `off`: Homa header + any header-region bytes in the
// linear part, payload ranges attached as refcounted frags (the NIC's
// scatter-gather DMA reads them in place — no CPU copy, PR 8's idiom).
// May send less than `want` when the frag slots run out; reassembly is
// offset-based so variable segment lengths are fine.
void HomaEndpoint::tx_gather_seg(TxMsg& m, u64 msg_id, u64 off, u64 want) {
  const u64 hdr_len = m.data.size();
  const u64 lin =
      off < hdr_len ? std::min<u64>(want, hdr_len - off) : 0;
  PktBufPool& pool = *m.gather_pool;
  PktBuf* pb =
      pool.alloc(static_cast<u32>(kUdpAllHdrLen + kHomaHdrLen + lin));
  if (pb == nullptr) return;  // pool exhausted: the sender timer retries
  pb->len = static_cast<u32>(kUdpAllHdrLen + kHomaHdrLen + lin);
  pb->payload_off = static_cast<u16>(kUdpAllHdrLen);
  u8* base = pool.writable(*pb, pb->len).data();
  WireHomaHdr h{static_cast<u8>(HomaPktType::data), msg_id,
                static_cast<u32>(off), static_cast<u32>(m.total_len()), 0};
  encode_homa(h, {base + kUdpAllHdrLen, kHomaHdrLen});
  if (lin > 0) {
    std::memcpy(base + kUdpAllHdrLen + kHomaHdrLen, m.data.data() + off, lin);
    udp_.env().clock().advance(udp_.env().cost.copy_cost(lin));
  }
  pool.arena().mark_dirty(pb->data_h, pb->len);

  u64 filled = lin;
  // Bytes of gather space before this segment's first payload byte.
  u64 skip = off + lin >= hdr_len ? off + lin - hdr_len : 0;
  for (const GatherSeg& g : m.gather) {
    if (filled >= want || pb->nr_frags >= PktBuf::kMaxFrags) break;
    if (skip >= g.len) {
      skip -= g.len;
      continue;
    }
    const u32 take =
        static_cast<u32>(std::min<u64>(g.len - skip, want - filled));
    (void)pool.add_frag(*pb, g.data_h, take, g.off + static_cast<u32>(skip),
                        g.cap);
    filled += take;
    skip = 0;
  }
  (void)udp_.send_pkt_to(m.dst_ip, m.dst_port, port_, pb);
  m.sent = off + filled;
}

void HomaEndpoint::tx_from(TxMsg& m, u64 msg_id, u64 upto) {
  const u64 total = m.total_len();
  upto = std::min<u64>(upto, total);
  while (m.sent < upto || (total == 0 && m.sent == 0)) {
    const u64 off = m.sent;
    const u64 len = std::min<u64>(kHomaSegPayload, total - off);
    charge_proc();
    if (m.gather_pool != nullptr) {
      tx_gather_seg(m, msg_id, off, len);
      if (m.sent == off) break;  // pool exhausted; retry from the timer
      continue;
    }
    std::vector<u8> payload(kHomaHdrLen + len);
    WireHomaHdr h{static_cast<u8>(HomaPktType::data), msg_id,
                  static_cast<u32>(off), static_cast<u32>(total), 0};
    encode_homa(h, payload);
    if (len > 0) std::memcpy(payload.data() + kHomaHdrLen, m.data.data() + off, len);
    (void)udp_.send_to(m.dst_ip, m.dst_port, port_, payload);
    m.sent += len;
    if (total == 0) break;  // zero-length message: one bare segment
  }
}

void HomaEndpoint::send_ctl(u32 dst_ip, u16 dst_port, HomaPktType type,
                            u64 msg_id, u32 offset, u32 total, u32 grant) {
  charge_proc();
  std::vector<u8> payload(kHomaHdrLen);
  encode_homa({static_cast<u8>(type), msg_id, offset, total, grant}, payload);
  (void)udp_.send_to(dst_ip, dst_port, port_, payload);
}

void HomaEndpoint::arm_tx_timer(u64 msg_id, TxMsg& m) {
  const u64 gen = ++m.timer_gen;
  // Exponential backoff: each consecutive timeout stretches the wait by
  // backoff_mult (1.0 = the legacy fixed interval).
  SimTime wait = opts_.sender_timeout_ns;
  for (int i = 0; i < m.retries; i++) {
    wait = static_cast<SimTime>(static_cast<double>(wait) * opts_.backoff_mult);
  }
  udp_.env().engine.schedule_in(wait, [this, msg_id, gen] {
    auto it = tx_.find(msg_id);
    if (it == tx_.end() || it->second.timer_gen != gen || it->second.done) {
      return;
    }
    TxMsg& m2 = it->second;
    if (++m2.retries > opts_.max_retries) {
      release_gather(m2);
      tx_.erase(it);  // give up; the message is lost
      give_ups_++;
      if (on_give_up) on_give_up(msg_id);
      return;
    }
    // No grant/ack progress: replay everything granted so far.
    timeouts_++;
    resends_++;
    m2.sent = 0;
    tx_from(m2, msg_id, m2.granted);
    arm_tx_timer(msg_id, m2);
  });
}

void HomaEndpoint::arm_rx_timer(u64 key, RxMsg& m) {
  const u64 gen = ++m.timer_gen;
  udp_.env().engine.schedule_in(kResendTimeoutNs, [this, key, gen] {
    auto it = rx_.find(key);
    if (it == rx_.end() || it->second.timer_gen != gen) return;
    RxMsg& m2 = it->second;
    if (++m2.nudges > opts_.max_retries) {
      for (auto& [off, pb] : m2.segs) udp_.pool().free(pb);
      rx_.erase(it);
      return;
    }
    // Find the first gap and ask for it again.
    u32 expect = 0;
    for (const auto& [off, pb] : m2.segs) {
      if (off != expect) break;
      expect = off + static_cast<u32>(pb->payload_len() - kHomaHdrLen);
    }
    resends_++;
    send_ctl(m2.src_ip, m2.src_port, HomaPktType::resend, m2.msg_id, expect,
             static_cast<u32>(m2.total_len),
             static_cast<u32>(m2.granted));
    arm_rx_timer(key, it->second);
  });
}

void HomaEndpoint::rx(u32 src_ip, u16 src_port, PktBuf* pb) {
  charge_proc();
  const auto payload = udp_.pool().payload(*pb);
  const auto h = decode_homa(payload);
  if (!h.has_value()) {
    udp_.pool().free(pb);
    return;
  }
  switch (static_cast<HomaPktType>(h->type)) {
    case HomaPktType::data:
      rx_data(src_ip, src_port, pb, h->msg_id, h->offset, h->total_len);
      return;

    case HomaPktType::grant: {
      auto it = tx_.find(h->msg_id);
      if (it != tx_.end() && !it->second.done) {
        TxMsg& m = it->second;
        m.granted = std::max<u64>(m.granted, h->grant);
        m.retries = 0;  // the receiver is alive and granting
        tx_from(m, h->msg_id, m.granted);
        arm_tx_timer(h->msg_id, m);
      }
      udp_.pool().free(pb);
      return;
    }

    case HomaPktType::resend: {
      auto it = tx_.find(h->msg_id);
      if (it != tx_.end() && !it->second.done) {
        TxMsg& m = it->second;
        resends_++;
        m.sent = std::min<u64>(m.sent, h->offset);  // rewind to the gap
        // A resend nudge doubles as the grant carrier: if every grant
        // frame is lost, the receiver's timer is the only way the sender
        // learns its window — and it proves the receiver alive, so the
        // abandon budget starts over.
        m.granted = std::max<u64>(m.granted, h->grant);
        m.retries = 0;
        tx_from(m, h->msg_id, m.granted);
        arm_tx_timer(h->msg_id, m);
      }
      udp_.pool().free(pb);
      return;
    }

    case HomaPktType::ack: {
      auto it = tx_.find(h->msg_id);
      if (it != tx_.end()) {
        it->second.done = true;
        it->second.timer_gen++;
        release_gather(it->second);
        tx_.erase(it);
        if (on_sent) on_sent(h->msg_id);
      }
      udp_.pool().free(pb);
      return;
    }
  }
  udp_.pool().free(pb);
}

void HomaEndpoint::rx_data(u32 src_ip, u16 src_port, PktBuf* pb, u64 msg_id,
                           u32 offset, u32 total_len) {
  const u64 key = rx_key(msg_id, src_ip, src_port);
  if (delivered_.contains(key)) {
    // Already delivered; the sender missed our ACK. Re-ack, drop.
    udp_.pool().free(pb);
    send_ctl(src_ip, src_port, HomaPktType::ack, msg_id, 0, total_len, 0);
    return;
  }
  auto [it, inserted] = rx_.try_emplace(key);
  RxMsg& m = it->second;
  if (inserted) {
    m.src_ip = src_ip;
    m.src_port = src_port;
    m.msg_id = msg_id;
    m.total_len = total_len;
    m.granted = std::min<u64>(total_len, kUnscheduledSegs * kHomaSegPayload);
  }
  const u32 seg_len = static_cast<u32>(pb->payload_len() - kHomaHdrLen);
  if (m.segs.contains(offset)) {
    udp_.pool().free(pb);  // duplicate
  } else {
    m.segs.emplace(offset, pb);
    m.received += seg_len;
    m.nudges = 0;  // data progress restarts the give-up budget
  }

  if (m.received >= m.total_len) {
    // Complete: ack the sender and deliver the packets.
    send_ctl(src_ip, src_port, HomaPktType::ack, msg_id, 0,
             static_cast<u32>(m.total_len), 0);
    m.timer_gen++;  // cancel the resend timer
    delivered_.insert(key);
    RxMsg done = std::move(m);
    rx_.erase(it);
    deliver(msg_id, std::move(done));
    return;
  }

  // Grant more: keep kGrantWindowSegs of runway past what has arrived.
  const u64 target = std::min<u64>(
      m.total_len, m.received + kGrantWindowSegs * kHomaSegPayload);
  if (target > m.granted) {
    m.granted = target;
    grants_tx_++;
    send_ctl(src_ip, src_port, HomaPktType::grant, msg_id, 0,
             static_cast<u32>(m.total_len), static_cast<u32>(target));
  }
  arm_rx_timer(key, m);
}

void HomaEndpoint::deliver(u64 msg_id, RxMsg&& m) {
  msgs_rx_++;
  HomaDelivery d;
  d.src_ip = m.src_ip;
  d.src_port = m.src_port;
  d.msg_id = msg_id;
  d.total_len = m.total_len;
  for (auto& [off, pb] : m.segs) {
    d.pkts.push_back(pb);
    d.offs.push_back(static_cast<u32>(pb->payload_off + kHomaHdrLen));
    d.lens.push_back(static_cast<u32>(pb->payload_len() - kHomaHdrLen));
  }
  if (on_message) {
    on_message(std::move(d));
  } else {
    for (auto* pb : d.pkts) udp_.pool().free(pb);
  }
}

}  // namespace papm::net
