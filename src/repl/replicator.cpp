#include "repl/replicator.h"

#include <algorithm>

#include "core/pktstore.h"

namespace papm::repl {

std::vector<u8> delivery_head(const net::HomaDelivery& d, std::size_t n) {
  std::vector<u8> out;
  out.reserve(n);
  for (std::size_t i = 0; i < d.pkts.size() && out.size() < n; i++) {
    net::PktBuf* pb = d.pkts[i];
    const u8* base = pb->owner->data(*pb);
    const std::size_t take = std::min<std::size_t>(d.lens[i], n - out.size());
    out.insert(out.end(), base + d.offs[i], base + d.offs[i] + take);
  }
  return out;
}

void release_delivery(net::HomaDelivery& d) {
  for (net::PktBuf* pb : d.pkts) net::PktBufPool::release(pb);
  d.pkts.clear();
  d.offs.clear();
  d.lens.clear();
}

std::vector<Replicator::GatherSeg> gather_from_pkts(
    std::span<net::PktBuf* const> pkts, std::span<const u32> offs,
    std::span<const u32> lens) {
  std::vector<Replicator::GatherSeg> segs;
  segs.reserve(pkts.size());
  for (std::size_t i = 0; i < pkts.size(); i++) {
    net::PktBuf* pb = pkts[i];
    if (pb->sliced() && offs[i] >= pb->payload_off) {
      // Sliced frame: the payload's physical home is the slice block;
      // translate the linear-view offset into it.
      segs.push_back({pb->slice_h, pb->slice_off + (offs[i] - pb->payload_off),
                      lens[i], pb->slice_cap});
    } else {
      segs.push_back({pb->data_h, offs[i], lens[i], pb->cap});
    }
  }
  return segs;
}

void send_snapshot(net::HomaEndpoint& homa, core::PktStore& store, u32 dst_ip,
                   u16 port, u64 cut_seq) {
  homa.send_msg(dst_ip, port, encode_ctl(MsgKind::snap_begin, cut_seq));
  std::vector<std::string> keys;
  store.scan("", "",
             [&](std::string_view k, const core::PktStore::ValueMeta&) {
               keys.emplace_back(k);
               return true;
             });
  for (const auto& k : keys) {
    auto v = store.get(k);
    if (!v.ok()) continue;
    std::vector<u8> msg(kSnapItemHdrLen + k.size() + v.value().size());
    msg[0] = static_cast<u8>(MsgKind::snap_item);
    put_u16(msg.data() + 2, static_cast<u16>(k.size()));
    put_u32(msg.data() + 4, static_cast<u32>(v.value().size()));
    std::memcpy(msg.data() + kSnapItemHdrLen, k.data(), k.size());
    std::memcpy(msg.data() + kSnapItemHdrLen + k.size(), v.value().data(),
                v.value().size());
    homa.send_msg(dst_ip, port, msg);
  }
  homa.send_msg(dst_ip, port, encode_ctl(MsgKind::snap_end, cut_seq));
}

Replicator::Replicator(sim::Env& env, net::UdpStack& udp, ReplOptions opts,
                       std::vector<u32> peer_ips)
    : env_(env), opts_(opts), homa_(udp, opts.port, opts.homa) {
  peers_.reserve(peer_ips.size());
  for (u32 ip : peer_ips) {
    Peer p;
    p.ip = ip;
    peers_.push_back(std::move(p));
  }
  homa_.on_message = [this](net::HomaDelivery d) { on_msg(std::move(d)); };
  homa_.on_give_up = [this](u64 msg_id) { on_give_up(msg_id); };
}

u64 Replicator::submit_put(std::string_view key,
                           std::span<const GatherSeg> segs, u32 val_len,
                           net::PktBufPool& pool, Done done, u64 trace) {
  Rec r;
  r.seq = next_seq_++;
  r.hdr = encode_data_hdr(OpKind::put, key, val_len, r.seq, trace);
  r.segs.assign(segs.begin(), segs.end());
  r.pool = &pool;
  r.done = std::move(done);
  // The record's own reference per gather range: retransmits (Homa's and
  // ours) replay from the original blocks until every live peer acked.
  for (const GatherSeg& g : r.segs) pool.restore_ref(g.data_h);
  return submit(std::move(r));
}

u64 Replicator::submit_erase(std::string_view key, Done done, u64 trace) {
  Rec r;
  r.seq = next_seq_++;
  r.hdr = encode_data_hdr(OpKind::erase, key, 0, r.seq, trace);
  r.done = std::move(done);
  return submit(std::move(r));
}

u64 Replicator::submit(Rec rec) {
  const u64 seq = rec.seq;
  auto [it, inserted] = records_.emplace(seq, std::move(rec));
  Rec& r = it->second;
  (void)inserted;
  for (Peer& p : peers_) {
    if (p.alive) forward_to(p, r);
  }
  if (opts_.degrade == DegradePolicy::local_ack && opts_.quorum > 1) {
    arm_degrade(seq);
  }
  check_quorum();
  retire();
  return seq;
}

void Replicator::forward_to(Peer& p, const Rec& r) {
  if (stopped_) return;
  u64 msg_id;
  if (r.segs.empty()) {
    msg_id = homa_.send_msg(p.ip, opts_.port, r.hdr);
  } else {
    msg_id = homa_.send_msg_gather(p.ip, opts_.port, r.hdr, r.segs, *r.pool);
  }
  p.inflight[msg_id] = r.seq;
  forwards_++;
  obs::inc(m_forwards_);
}

void Replicator::on_msg(net::HomaDelivery d) {
  const auto head = delivery_head(d, kCtlLen);
  release_delivery(d);
  if (stopped_ || head.size() < kCtlLen) return;
  if (static_cast<MsgKind>(head[0]) != MsgKind::ack) return;
  const u64 seq = get_u64(head.data() + 8);
  for (Peer& p : peers_) {
    if (p.ip != d.src_ip) continue;
    acks_rx_++;
    obs::inc(m_acks_rx_);
    p.acked = std::max(p.acked, seq);
    p.give_ups = 0;
    std::erase_if(p.inflight,
                  [&](const auto& kv) { return kv.second <= p.acked; });
    check_quorum();
    retire();
    return;
  }
}

void Replicator::on_give_up(u64 msg_id) {
  constexpr int kMaxPeerRetries = 6;  // then the peer is declared dead
  if (stopped_) return;
  for (Peer& p : peers_) {
    auto it = p.inflight.find(msg_id);
    if (it == p.inflight.end()) continue;  // heartbeats are not tracked
    p.inflight.erase(it);
    if (!p.alive) return;
    p.give_ups++;
    if (p.give_ups > kMaxPeerRetries) {
      p.alive = false;  // revive_peer() after a resync brings it back
      retire();
      return;
    }
    arm_retry(p);
    return;
  }
}

void Replicator::arm_retry(Peer& p) {
  if (p.retry_armed) return;
  p.retry_armed = true;
  const int shift = std::min(p.give_ups - 1, 20);
  const SimTime delay = opts_.retry_backoff_ns << shift;
  const std::size_t idx = static_cast<std::size_t>(&p - peers_.data());
  env_.engine.schedule_in(delay, [this, idx] {
    Peer& peer = peers_[idx];
    peer.retry_armed = false;
    if (stopped_ || !peer.alive) return;
    for (auto& [seq, r] : records_) {
      if (seq <= peer.acked) continue;
      forward_to(peer, r);
      retransmits_++;
      obs::inc(m_retransmits_);
    }
  });
}

void Replicator::arm_degrade(u64 seq) {
  env_.engine.schedule_in(opts_.degrade_after_ns, [this, seq] {
    if (stopped_) return;
    auto it = records_.find(seq);
    if (it == records_.end() || it->second.done_fired) return;
    Rec& r = it->second;
    r.done_fired = true;
    r.degraded = true;
    degraded_acks_++;
    obs::inc(m_degraded_);
    if (r.done) r.done(true);
    retire();  // the record may be fully acked-but-held; re-check
  });
}

void Replicator::check_quorum() {
  const u32 needed = opts_.quorum > 0 ? opts_.quorum - 1 : 0;
  for (auto& [seq, r] : records_) {
    if (r.done_fired) continue;
    u32 have = 0;
    // Dead peers' acks still count: what they persisted is durable on
    // their DIMMs and survives into their rejoin snapshot.
    for (const Peer& p : peers_) {
      if (p.acked >= seq) have++;
    }
    if (have >= needed) {
      r.done_fired = true;
      if (r.done) r.done(false);
    }
  }
}

void Replicator::retire() {
  u64 min_acked = ~0ULL;
  for (const Peer& p : peers_) {
    if (p.alive) min_acked = std::min(min_acked, p.acked);
  }
  for (auto it = records_.begin(); it != records_.end();) {
    Rec& r = it->second;
    if (r.seq <= min_acked && r.done_fired) {
      if (r.pool != nullptr) {
        for (const GatherSeg& g : r.segs) r.pool->unref_data(g.data_h, g.cap);
      }
      it = records_.erase(it);
    } else {
      ++it;
    }
  }
}

void Replicator::start_heartbeats() {
  if (hb_armed_) return;
  hb_armed_ = true;
  hb_tick();
}

void Replicator::hb_tick() {
  if (stopped_) return;
  for (Peer& p : peers_) {
    if (p.alive) {
      homa_.send_msg(p.ip, opts_.port,
                     encode_ctl(MsgKind::heartbeat, last_seq()));
    }
  }
  env_.engine.schedule_in(opts_.hb_interval_ns, [this] { hb_tick(); });
}

void Replicator::stop() {
  stopped_ = true;
  homa_.abandon();
}

void Replicator::revive_peer(u32 ip, u64 acked_seq) {
  for (Peer& p : peers_) {
    if (p.ip != ip) continue;
    p.alive = true;
    p.give_ups = 0;
    p.inflight.clear();
    p.acked = std::max(p.acked, acked_seq);
    check_quorum();
    retire();
    return;
  }
}

u32 Replicator::alive_peers() const noexcept {
  u32 n = 0;
  for (const Peer& p : peers_) n += p.alive ? 1 : 0;
  return n;
}

u64 Replicator::peer_acked(u32 ip) const noexcept {
  for (const Peer& p : peers_) {
    if (p.ip == ip) return p.acked;
  }
  return 0;
}

void Replicator::set_metrics(obs::MetricRegistry* r) {
  if (r == nullptr) {
    m_forwards_ = m_acks_rx_ = m_retransmits_ = m_degraded_ = nullptr;
    return;
  }
  m_forwards_ = &r->counter("repl.forwards");
  m_acks_rx_ = &r->counter("repl.acks_rx");
  m_retransmits_ = &r->counter("repl.retransmits");
  m_degraded_ = &r->counter("repl.degraded_acks");
}

}  // namespace papm::repl
