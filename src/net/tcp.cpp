#include "net/tcp.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace papm::net {

namespace {

constexpr u32 kWndShift = 5;  // fixed window scale (as if negotiated)
constexpr u32 kInitCwnd = 10 * kMss;
// Slow start grows cwnd by at most L = 2 SMSS per ACK (RFC 3465 §2.2).
constexpr u32 kAbcLimit = 2 * kMss;
constexpr u32 kInitSsthresh = 256 * 1024;

MacAddr mac_for_ip(u32 ip) {
  MacAddr m;
  m.b[0] = 0x02;  // locally administered
  m.b[1] = 0x00;
  m.b[2] = static_cast<u8>(ip >> 24);
  m.b[3] = static_cast<u8>(ip >> 16);
  m.b[4] = static_cast<u8>(ip >> 8);
  m.b[5] = static_cast<u8>(ip);
  return m;
}

// Sequence space a queued segment covers: SYN and FIN count as one
// virtual byte each.
u32 logical_len(const PktBuf& pb) noexcept {
  return static_cast<u32>(pb.payload_total()) +
         ((pb.tcp.flags & (kTcpSyn | kTcpFin)) != 0 ? 1 : 0);
}

constexpr SimTime kResent = -1;  // rtx_q_ tstamp of a retransmitted segment

}  // namespace

// --- TcpStack ---------------------------------------------------------------

TcpStack::TcpStack(sim::Env& env, NetIf& netif, PktBufPool& pool, Options opts)
    : env_(env),
      netif_(netif),
      pool_(pool),
      opts_(opts),
      own_cpu_(env, /*cores=*/0),
      cpu_(&own_cpu_),
      next_ephemeral_(opts.ephemeral_base) {
  if (opts_.metrics != nullptr) {
    m_seg_rx_ = &opts_.metrics->counter("tcp.segments_rx");
    m_seg_tx_ = &opts_.metrics->counter("tcp.segments_tx");
    m_csum_fail_ = &opts_.metrics->counter("tcp.csum_failures");
    m_rtx_ = &opts_.metrics->counter("tcp.retransmits");
  }
}

void TcpStack::charge_rx(bool pure_ack) {
  const auto& c = env_.cost;
  if (pure_ack) {
    env_.clock().advance(c.scaled(c.tcp_ack_process_ns));
  } else {
    env_.clock().advance(
        c.scaled(opts_.busy_poll ? c.server_stack_rx_ns : c.client_stack_rx_ns));
  }
}

void TcpStack::note_zc_depth(std::size_t n) {
  if (n == 0 || opts_.metrics == nullptr) return;
  // Registered on first use: a stack whose connections never queued
  // reports no gauge (and its metric dumps stay as they were).
  if (m_zc_hwm_ == nullptr) {
    m_zc_hwm_ = &opts_.metrics->gauge("tcp.zc_queue_hwm");
  }
  m_zc_hwm_->peak(n);
}

void TcpStack::note_dup_segment() {
  dup_segments_rx_++;
  if (opts_.metrics == nullptr) return;
  if (m_dup_seg_ == nullptr) {
    m_dup_seg_ = &opts_.metrics->counter("tcp.dup_segments_rx");
  }
  m_dup_seg_->add();
}

void TcpStack::note_delayed_ack() {
  delayed_acks_++;
  if (opts_.metrics == nullptr) return;
  if (m_delack_ == nullptr) {
    m_delack_ = &opts_.metrics->counter("tcp.delayed_acks");
  }
  m_delack_->add();
}

void TcpStack::charge_tx() {
  const auto& c = env_.cost;
  env_.clock().advance(
      c.scaled(opts_.busy_poll ? c.server_stack_tx_ns : c.client_stack_tx_ns));
}

TcpConn* TcpStack::connect(u32 dst_ip, u16 dst_port) {
  const u16 lport = next_ephemeral_++;
  auto conn = std::unique_ptr<TcpConn>(
      new TcpConn(*this, opts_.ip, lport, dst_ip, dst_port));
  TcpConn* c = conn.get();
  conns_[flow_key(dst_ip, dst_port, lport)] = std::move(conn);

  c->iss_ = next_iss_;
  next_iss_ += 1 << 20;
  c->snd_una_ = c->iss_;
  c->snd_nxt_ = c->iss_ + 1;
  c->cwnd_ = kInitCwnd;
  c->ssthresh_ = kInitSsthresh;
  c->state_ = TcpState::syn_sent;
  run_cpu([&] {
    charge_tx();
    c->send_segment(kTcpSyn, c->iss_, {}, /*queue_rtx=*/true);
  });
  return c;
}

Status TcpStack::listen(u16 port, std::function<void(TcpConn&)> on_accept) {
  if (listeners_.contains(port)) return Errc::already_exists;
  listeners_[port] = std::move(on_accept);
  return Errc::ok;
}

std::unique_ptr<TcpConn> TcpStack::extract(TcpConn* c) {
  if (c == nullptr) return nullptr;
  const u64 key = flow_key(c->peer_ip_, c->peer_port_, c->local_port_);
  std::unique_ptr<TcpConn>* slot = conns_.find(key);
  if (slot == nullptr || slot->get() != c) return nullptr;
  return conns_.take(key);
}

void TcpStack::adopt(std::unique_ptr<TcpConn> conn) {
  if (conn == nullptr) return;
  conn->stack_ = this;  // timers and TX resolve the new stack from here on
  std::unique_ptr<TcpConn>& slot =
      conns_[flow_key(conn->peer_ip_, conn->peer_port_, conn->local_port_)];
  if (slot == nullptr) slot = std::move(conn);
}

bool verify_l4_csum(sim::Env& env, PktBufPool& pool, PktBuf& pb) {
  const u8* base = pool.data(pb);
  const std::span<const u8> seg(base + pb.l4_off, pb.len - pb.l4_off);
  env.clock().advance(env.cost.inet_csum_cost(seg.size()));
  const u32 sum = l4_pseudo_sum(pb.ip.src, pb.ip.dst, pb.l4_proto, seg.size());
  if (inet_fold(sum + inet_sum(seg)) != 0xffff) return false;
  pb.csum_verified = true;
  pb.payload_csum = inet_checksum(
      std::span<const u8>(base + pb.payload_off, pb.payload_len()));
  return true;
}

u16 l4_tx_csum(sim::Env& env, PktBuf& pb, const IpHeader& ip) {
  const std::size_t l4_len = pb.total_len() - pb.l4_off;
  env.clock().advance(env.cost.inet_csum_cost(l4_len));
  PktBufPool& pool = *pb.owner;
  std::size_t at = pb.len - pb.l4_off;
  u32 sum = inet_sum_at(l4_pseudo_sum(ip.src, ip.dst, ip.protocol, l4_len), 0,
                        {pool.data(pb) + pb.l4_off, at});
  for (int i = 0; i < pb.nr_frags; i++) {
    const auto& fr = pb.frags[i];
    sum = inet_sum_at(
        sum, at,
        {pool.arena().view(fr.data_h, fr.off + fr.len) + fr.off, fr.len});
    at += fr.len;
  }
  return static_cast<u16>(~inet_fold(sum));
}

void TcpStack::rx(PktBuf* pb) {
  run_cpu([&] { rx_locked(pb); });
}

void TcpStack::rx_locked(PktBuf* pb) {
  segments_rx_++;
  obs::inc(m_seg_rx_);

  if (!pb->csum_verified && !verify_l4_csum(env_, pool_, *pb)) {
    csum_failures_++;
    obs::inc(m_csum_fail_);
    pool_.free(pb);
    return;
  }

  const TcpHeader& h = pb->tcp;
  const bool pure_ack = pb->payload_len() == 0 &&
                        (h.flags & (kTcpSyn | kTcpFin | kTcpRst)) == 0;
  charge_rx(pure_ack);

  const u64 key = flow_key(pb->ip.src, h.src_port, h.dst_port);
  if (std::unique_ptr<TcpConn>* c = conns_.find(key)) {
    (*c)->rx(pb);
    return;
  }
  // New flow: a SYN for a listening port?
  auto lit = listeners_.find(h.dst_port);
  if ((h.flags & kTcpSyn) != 0 && (h.flags & kTcpAck) == 0 &&
      lit != listeners_.end()) {
    auto conn = std::unique_ptr<TcpConn>(
        new TcpConn(*this, opts_.ip, h.dst_port, pb->ip.src, h.src_port));
    TcpConn* c = conn.get();
    c->acceptor_cb_ = lit->second;
    conns_[key] = std::move(conn);
    c->rx_listen_syn(pb);
    return;
  }
  pool_.free(pb);  // no RST generation for unknown flows; just drop
}

PktBuf* TcpStack::copy_pkt(std::span<const u8> payload) {
  const auto len = static_cast<u32>(kAllHdrLen + payload.size());
  PktBuf* pb = pool_.alloc(len);
  if (pb == nullptr) return nullptr;
  pb->payload_off = kAllHdrLen;
  pb->len = len;
  if (!payload.empty()) {
    std::memcpy(pool_.writable(*pb, len).data() + kAllHdrLen, payload.data(),
                payload.size());
    pool_.arena().mark_dirty(pb->data_h + kAllHdrLen, payload.size());
  }
  return pb;
}

void TcpStack::output(TcpConn& c, u8 flags, u32 seq, u32 ack,
                      std::span<const u8> payload, PktBuf** rtx_clone) {
  PktBuf* pb = copy_pkt(payload);
  if (pb == nullptr) return;  // arena exhausted; RTO will recover
  output_pkt(c, pb, flags, seq, ack, rtx_clone);
}

void TcpStack::output_pkt(TcpConn& c, PktBuf* pb, u8 flags, u32 seq, u32 ack,
                          PktBuf** rtx_clone) {
  assert(pb->payload_off == kAllHdrLen && "need full header room");
  pb->l2_off = 0;
  pb->l3_off = kEthHdrLen;
  pb->l4_off = kEthHdrLen + kIpHdrLen;
  // Mark the TX queue (per-core doorbell) and resolve data through the
  // owning pool: zero-copy responses may carry another shard's buffers.
  pb->rss_queue = static_cast<u16>(opts_.core >= 0 ? opts_.core : 0);
  // Only the header room is written (a zero-copy response's payload stays
  // untouched in its stored packet).
  u8* base = pb->owner->writable(*pb, kAllHdrLen).data();
  const std::size_t payload_len = pb->total_len() - kAllHdrLen;

  EthHeader eth;
  eth.src = netif_.mac();
  eth.dst = mac_for_ip(c.peer_ip_);
  encode_eth(eth, {base, kEthHdrLen});

  IpHeader ip;
  ip.src = opts_.ip;
  ip.dst = c.peer_ip_;
  ip.total_len = static_cast<u16>(kIpHdrLen + kTcpHdrLen + payload_len);
  encode_ip(ip, {base + kEthHdrLen, kIpHdrLen});

  const std::size_t adv_bytes =
      opts_.rcv_buf > c.rcv_queued_ ? opts_.rcv_buf - c.rcv_queued_ : 0;
  TcpHeader tcp;
  tcp.src_port = c.local_port_;
  tcp.dst_port = c.peer_port_;
  tcp.seq = seq;
  tcp.ack = ack;
  tcp.flags = flags;
  tcp.window = static_cast<u16>(std::min<std::size_t>(adv_bytes >> kWndShift, 0xffff));
  tcp.checksum = 0;
  encode_tcp(tcp, {base + kEthHdrLen + kIpHdrLen, kTcpHdrLen});

  if (!opts_.csum_offload_tx) {
    const u16 csum = l4_tx_csum(env_, *pb, ip);
    base[pb->l4_off + 16] = static_cast<u8>(csum >> 8);
    base[pb->l4_off + 17] = static_cast<u8>(csum & 0xff);
    tcp.checksum = csum;
  }
  pb->owner->arena().mark_dirty(pb->data_h, kAllHdrLen);

  pb->ip = ip;
  pb->tcp = tcp;
  pb->tstamp = std::max(env_.now(), c.tx_ready_);

  if (rtx_clone != nullptr) *rtx_clone = pb->owner->clone(*pb);

  // Every segment carries the current ack: an ACK owed rides it.
  c.ack_due_ = TcpConn::AckDue::none;
  c.rcv_acked_ = ack;
  c.disarm_delack();
  segments_tx_++;
  obs::inc(m_seg_tx_);
  netif_.transmit(pb);
  // The NIC charged its TX work to this scope: the frame is ready now,
  // or at the previous frame's time if that is later.
  c.tx_ready_ = std::max(c.tx_ready_, env_.now());
}

// --- TcpConn -----------------------------------------------------------------

TcpConn::TcpConn(TcpStack& stack, u32 local_ip, u16 local_port, u32 peer_ip,
                 u16 peer_port)
    : stack_(&stack),
      local_ip_(local_ip),
      peer_ip_(peer_ip),
      local_port_(local_port),
      peer_port_(peer_port) {}

void TcpConn::rx_listen_syn(PktBuf* pb) {
  const TcpHeader& h = pb->tcp;
  irs_ = h.seq;
  rcv_nxt_ = h.seq + 1;
  snd_wnd_ = static_cast<u32>(h.window) << kWndShift;

  iss_ = stack_->next_iss_;
  stack_->next_iss_ += 1 << 20;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  cwnd_ = kInitCwnd;
  ssthresh_ = kInitSsthresh;
  state_ = TcpState::syn_rcvd;

  stack_->charge_tx();
  send_segment(kTcpSyn | kTcpAck, iss_, {}, /*queue_rtx=*/true);
  PktBufPool::release(pb);
}

void TcpConn::rx(PktBuf* pb) {
  const TcpHeader h = pb->tcp;

  if ((h.flags & kTcpRst) != 0) {
    PktBufPool::release(pb);
    become_closed();
    return;
  }

  switch (state_) {
    case TcpState::syn_sent:
      if ((h.flags & (kTcpSyn | kTcpAck)) == (kTcpSyn | kTcpAck) &&
          h.ack == iss_ + 1) {
        irs_ = h.seq;
        rcv_nxt_ = h.seq + 1;
        snd_wnd_ = static_cast<u32>(h.window) << kWndShift;
        process_ack(h);
        enter_established();
        ack_due_ = AckDue::now;
        send_due_ack();
      }
      PktBufPool::release(pb);
      return;

    case TcpState::syn_rcvd:
      if ((h.flags & kTcpAck) != 0 && seq_ge(h.ack, iss_ + 1)) {
        process_ack(h);
        enter_established();
        if (pb->payload_len() > 0) {
          rx_data(pb);  // takes ownership
          send_due_ack();
          return;
        }
      }
      PktBufPool::release(pb);
      return;

    case TcpState::closed:
      PktBufPool::release(pb);
      return;

    default:
      break;
  }

  // Established and closing states.
  process_ack(h);

  if (pb->payload_len() > 0 &&
      (state_ == TcpState::fin_wait_1 || state_ == TcpState::fin_wait_2) &&
      seq_gt(h.seq + pb->payload_len(), rcv_nxt_)) {
    // New data for a connection the application closed: nobody will read
    // it, so reset rather than buffer it (RFC 1122 §4.2.2.13).
    PktBufPool::release(pb);
    stack_->charge_tx();
    send_ctl(kTcpRst | kTcpAck);
    become_closed();
    return;
  }
  if (pb->payload_len() > 0) {
    rx_data(pb);  // takes ownership of pb
  } else {
    if ((h.flags & kTcpFin) != 0) {
      fin_received_ = true;
      fin_seq_ = h.seq;
    }
    PktBufPool::release(pb);
  }

  // Consume an in-order FIN once all data before it is delivered.
  if (fin_received_ && rcv_nxt_ == fin_seq_) {
    rcv_nxt_ = fin_seq_ + 1;
    ack_due_ = AckDue::now;
    if (state_ == TcpState::established) {
      state_ = TcpState::close_wait;
      if (on_readable) on_readable(*this);  // EOF signal
    } else if (state_ == TcpState::fin_wait_1 || state_ == TcpState::fin_wait_2) {
      // Simultaneous/normal close; skip TIME_WAIT in simulation.
      send_due_ack();
      become_closed();
      return;
    }
  }

  try_send();
  send_due_ack();
}

void TcpConn::process_ack(const TcpHeader& h) {
  if ((h.flags & kTcpAck) == 0) return;
  snd_wnd_ = static_cast<u32>(h.window) << kWndShift;
  const u32 ack = h.ack;
  if (seq_gt(ack, snd_nxt_)) return;  // acks data we never sent

  if (seq_gt(ack, snd_una_)) {
    dup_acks_ = 0;
    // One RTT sample per ACK, from the oldest segment it covers, and none
    // if it covers a retransmitted one (Karn's rule, RFC 6298 §3): the
    // segments behind a repaired hole were held up by the repair, not by
    // the path, and one ACK for two segments is one round trip.
    SimTime sent_at = kResent;
    bool covers_resent = false;
    while (!rtx_q_.empty()) {
      const PktBuf& e = *rtx_q_.front();
      if (!seq_ge(ack, e.tcp.seq + logical_len(e))) break;
      if (e.tstamp == kResent) {
        covers_resent = true;
      } else if (sent_at == kResent) {
        sent_at = e.tstamp;
      }
      PktBufPool::release(rtx_q_.pop_front());
    }
    if (!covers_resent && sent_at != kResent) {
      update_rtt(stack_->env().now() - sent_at);
    }
    // Window growth by bytes acked (RFC 3465), so one ACK for two
    // segments grows it as two ACKs would: slow start adds the bytes (at
    // most L per ACK), congestion avoidance about one MSS per cwnd acked.
    const u32 acked = ack - snd_una_;
    if (cwnd_ < ssthresh_) {
      cwnd_ += std::min(acked, kAbcLimit);
    } else {
      cwnd_ += std::max<u32>(
          1, static_cast<u32>(u64{kMss} * std::min(acked, cwnd_) / cwnd_));
    }
    snd_una_ = ack;
    if (rtx_q_.empty()) {
      disarm_rto();
    } else {
      arm_rto();
    }
    // FIN acked?
    if (fin_sent_ && seq_ge(ack, snd_nxt_)) {
      if (state_ == TcpState::fin_wait_1) {
        state_ = TcpState::fin_wait_2;
      } else if (state_ == TcpState::last_ack) {
        become_closed();
        return;
      }
    }
    try_send();
  } else if (ack == snd_una_ && !rtx_q_.empty()) {
    if (++dup_acks_ == 3) {
      // Fast retransmit.
      PktBuf& e = *rtx_q_.front();
      const u32 inflight = snd_nxt_ - snd_una_;
      ssthresh_ = std::max(inflight / 2, static_cast<u32>(2 * kMss));
      cwnd_ = ssthresh_ + 3 * kMss;
      retransmits_++;
      obs::inc(stack_->m_rtx_);
      e.tstamp = kResent;
      PktBuf* copy = e.owner->clone(e);
      stack_->charge_tx();
      stack_->output_pkt(*this, copy, e.tcp.flags, e.tcp.seq, rcv_nxt_,
                         nullptr);
      arm_rto();
    }
  }
}

void TcpConn::rx_data(PktBuf* pb) {
  const u32 seq = pb->tcp.seq;
  const u32 len = pb->payload_len();
  // Anything but new in-order data within the window is ACKed at once
  // (RFC 5681 §4.2): a duplicate, a segment out of order or past the
  // window, one that fills a hole. The sender's loss recovery counts on
  // those ACKs.
  ack_due_ = AckDue::now;

  if (seq_le(seq + len, rcv_nxt_)) {
    stack_->note_dup_segment();
    PktBufPool::release(pb);  // complete duplicate
    return;
  }
  // Receive window (RFC 9293 §3.10.7.4): only bytes the buffer has room
  // for are acceptable. Trim the rest, or drop a segment that lies wholly
  // past the window (a zero-window probe); the ACK reports the window.
  // The edge is never left of one advertised earlier: in-order arrivals
  // move rcv_nxt_ and rcv_queued_ together, and reads only widen it.
  const std::size_t rcv_buf = stack_->options().rcv_buf;
  const u32 room = static_cast<u32>(
      rcv_queued_ < rcv_buf ? rcv_buf - rcv_queued_ : 0);
  const u32 edge = rcv_nxt_ + room;
  if (!seq_lt(seq, edge)) {
    PktBufPool::release(pb);
    return;
  }
  const bool trimmed = seq_gt(seq + len, edge);
  if (trimmed) pb->len -= seq + len - edge;
  if (seq_lt(seq, rcv_nxt_)) {
    // Partial overlap: trim the already-received prefix.
    const u32 trim = rcv_nxt_ - seq;
    pb->trim_payload(trim);
    pb->tcp.seq = rcv_nxt_;
  }
  if (pb->tcp.seq == rcv_nxt_) {
    // New in-order data: its ACK waits for a segment to carry it, up to
    // kDelAckNs, unless more than one full-sized segment is now
    // unacknowledged (every second segment of a bulk stream, RFC 1122
    // §4.2.3.2).
    const bool fresh = seq == rcv_nxt_ && !trimmed && ooo_tree_.size() == 0;
    rcv_nxt_ += pb->payload_len();
    rcv_q_.push_back(pb);
    rcv_queued_ += pb->payload_len();
    deliver_in_order();
    if (fresh && rcv_nxt_ - rcv_acked_ <= kMss) ack_due_ = AckDue::delayed;
    if (on_readable) on_readable(*this);
    return;
  }
  // Out of order: stash in the rbtree (the §4.1 structure). Exact
  // duplicates are dropped.
  pb->rb_key = pb->tcp.seq;
  if (ooo_tree_.find(pb->rb_key) != nullptr) {
    stack_->note_dup_segment();
    PktBufPool::release(pb);
    return;
  }
  if (rcv_queued_ + ooo_tree_.size() * kMss > stack_->options().rcv_buf) {
    PktBufPool::release(pb);  // no buffer space; sender will retransmit
    return;
  }
  ooo_tree_.insert(*pb);
}

void TcpConn::deliver_in_order() {
  while (PktBuf* first = ooo_tree_.first()) {
    if (seq_gt(first->rb_key, rcv_nxt_)) break;
    ooo_tree_.erase(*first);
    if (seq_le(first->rb_key + first->payload_len(), rcv_nxt_)) {
      PktBufPool::release(first);  // fully duplicate by now
      continue;
    }
    if (seq_lt(first->rb_key, rcv_nxt_)) {
      const u32 trim = rcv_nxt_ - first->rb_key;
      first->trim_payload(trim);
      first->tcp.seq = rcv_nxt_;
    }
    rcv_nxt_ += first->payload_len();
    rcv_q_.push_back(first);
    rcv_queued_ += first->payload_len();
  }
}

Status TcpConn::send(std::span<const u8> data) {
  if (state_ != TcpState::established && state_ != TcpState::close_wait) {
    return Errc::not_connected;
  }
  if (fin_queued_) return Errc::invalid_argument;
  // User-to-kernel copy.
  stack_->env().clock().advance(stack_->env().cost.copy_cost(data.size()));
  if (!zc_q_.empty()) {
    // Behind queued zero-copy packets: the bytes queue as packets too, so
    // they keep their place in the stream.
    for (std::size_t at = 0; at < data.size(); at += kMss) {
      PktBuf* pb = stack_->copy_pkt(
          data.subspan(at, std::min<std::size_t>(kMss, data.size() - at)));
      if (pb == nullptr) return Errc::out_of_space;
      zc_q_.push_back(pb);
    }
    try_send();
    stack_->note_zc_depth(zc_q_.size());
    return Errc::ok;
  }
  if (snd_head_ == snd_buf_.size()) {
    snd_buf_.clear();
    snd_head_ = 0;
  } else if (snd_head_ >= 4096 && snd_head_ * 2 >= snd_buf_.size()) {
    snd_buf_.erase(snd_buf_.begin(),
                   snd_buf_.begin() + static_cast<long>(snd_head_));
    snd_head_ = 0;
  }
  snd_buf_.insert(snd_buf_.end(), data.begin(), data.end());
  try_send();
  return Errc::ok;
}

Status TcpConn::send_pkt(PktBuf* pb) {
  if (state_ != TcpState::established && state_ != TcpState::close_wait) {
    PktBufPool::release(pb);
    return Errc::not_connected;
  }
  if (fin_queued_) {
    PktBufPool::release(pb);
    return Errc::invalid_argument;
  }
  if (pb->payload_total() > kMss) {
    PktBufPool::release(pb);
    return Errc::too_large;  // caller segments via gso first
  }
  zc_q_.push_back(pb);
  try_send();
  stack_->note_zc_depth(zc_q_.size());
  return Errc::ok;
}

void TcpConn::send_zc(PktBuf* pb, u32 len) {
  const u32 seq = snd_nxt_;
  snd_nxt_ += len;
  PktBuf* clone = nullptr;
  stack_->charge_tx();
  stack_->output_pkt(*this, pb, kTcpAck | kTcpPsh, seq, rcv_nxt_, &clone);
  push_rtx(clone);
}

void TcpConn::push_rtx(PktBuf* clone) {
  if (clone != nullptr) {
    clone->tstamp = stack_->env().now();
    rtx_q_.push_back(clone);
  }
  arm_rto();
}

bool TcpConn::window_stalled() const noexcept {
  if (!rtx_q_.empty()) return false;
  if (unsent() != 0) return snd_wnd_ == 0;
  return !zc_q_.empty() &&
         zc_q_.front()->payload_total() > std::min(cwnd_, snd_wnd_);
}

void TcpConn::try_send() {
  if (state_ != TcpState::established && state_ != TcpState::close_wait &&
      state_ != TcpState::fin_wait_1 && state_ != TcpState::last_ack) {
    return;
  }
  const u32 wnd = std::min(cwnd_, snd_wnd_);
  while (unsent() != 0) {
    const u32 inflight = snd_nxt_ - snd_una_;
    if (inflight >= wnd) break;
    const u32 room = wnd - inflight;
    const u32 take = std::min<u32>(
        {static_cast<u32>(kMss), static_cast<u32>(unsent()), room});
    if (take == 0) break;
    const std::span<const u8> payload(snd_buf_.data() + snd_head_, take);
    snd_head_ += take;
    const u32 seq = snd_nxt_;
    snd_nxt_ += take;
    stack_->charge_tx();
    // output() copies the payload into the segment before anything can
    // append to snd_buf_.
    send_segment(kTcpAck | kTcpPsh, seq, payload, /*queue_rtx=*/true);
  }
  // Zero-copy packets follow the buffered bytes; each leaves whole.
  while (unsent() == 0 && !zc_q_.empty()) {
    const auto len = static_cast<u32>(zc_q_.front()->payload_total());
    if (snd_nxt_ - snd_una_ + len > wnd) break;
    send_zc(zc_q_.pop_front(), len);
  }
  // Queue the FIN once the send buffer and the zero-copy queue drain.
  if (fin_queued_ && !fin_sent_ && unsent() == 0 && zc_q_.empty()) {
    const u32 inflight = snd_nxt_ - snd_una_;
    if (inflight < wnd || rtx_q_.empty()) {
      fin_sent_ = true;
      const u32 seq = snd_nxt_;
      snd_nxt_ += 1;
      stack_->charge_tx();
      send_segment(kTcpFin | kTcpAck, seq, {}, /*queue_rtx=*/true);
    }
  }
  // Zero-window probing (persist timer, RFC 9293 §3.8.6.1): send one
  // byte, or the next queued zero-copy packet whole, beyond the window;
  // the ACK it elicits reports the reopened window. (A pending FIN with
  // an empty buffer probes via the FIN branch above, which fires when
  // nothing is in flight.)
  if (window_stalled()) {
    disarm_rto();
    rto_timer_ = stack_->env().engine.schedule_in(rto_, [this] {
      rto_timer_ = 0;
      stack_->run_cpu([this] {
        if (!window_stalled() || state_ == TcpState::closed) {
          try_send();
          return;
        }
        if (unsent() == 0) {
          PktBuf* pb = zc_q_.pop_front();
          send_zc(pb, static_cast<u32>(pb->payload_total()));
          return;
        }
        const u8 byte = snd_buf_[snd_head_++];
        const u32 seq = snd_nxt_;
        snd_nxt_ += 1;
        stack_->charge_tx();
        send_segment(kTcpAck | kTcpPsh, seq, {&byte, 1}, /*queue_rtx=*/true);
      });
    });
  }
}

void TcpConn::send_segment(u8 flags, u32 seq, std::span<const u8> payload,
                           bool queue_rtx) {
  PktBuf* clone = nullptr;
  stack_->output(*this, flags, seq, rcv_nxt_, payload,
                queue_rtx ? &clone : nullptr);
  if (queue_rtx && clone != nullptr) push_rtx(clone);
}

void TcpConn::send_ctl(u8 flags) {
  stack_->output(*this, flags, snd_nxt_, rcv_nxt_, {}, nullptr);
}

void TcpConn::enter_established() {
  if (state_ == TcpState::established) return;
  const TcpState prev = state_;
  state_ = TcpState::established;
  if (prev == TcpState::syn_rcvd && acceptor_cb_) acceptor_cb_(*this);
  if (on_established) on_established(*this);
}

std::size_t TcpConn::read(std::span<u8> out) {
  std::size_t copied = 0;
  auto& env = stack_->env();
  while (copied < out.size() && !rcv_q_.empty()) {
    PktBuf* pb = rcv_q_.front();
    const auto payload = pb->owner->payload(*pb);
    const std::size_t avail = payload.size() - rcv_consumed_front_;
    const std::size_t take = std::min(avail, out.size() - copied);
    std::memcpy(out.data() + copied, payload.data() + rcv_consumed_front_, take);
    copied += take;
    rcv_consumed_front_ += take;
    if (rcv_consumed_front_ == payload.size()) {
      rcv_consumed_front_ = 0;
      PktBufPool::release(rcv_q_.pop_front());
    }
  }
  rcv_queued_ -= copied;
  env.clock().advance(env.cost.copy_cost(copied));
  return copied;
}

std::vector<PktBuf*> TcpConn::read_pkts() {
  std::vector<PktBuf*> out;
  read_pkts(out);
  return out;
}

void TcpConn::read_pkts(std::vector<PktBuf*>& out) {
  // Partial copying reads and zero-copy reads do not mix.
  assert(rcv_consumed_front_ == 0);
  while (!rcv_q_.empty()) out.push_back(rcv_q_.pop_front());
  rcv_queued_ = 0;
}

void TcpConn::close() {
  switch (state_) {
    case TcpState::established:
      state_ = TcpState::fin_wait_1;
      fin_queued_ = true;
      try_send();
      break;
    case TcpState::close_wait:
      state_ = TcpState::last_ack;
      fin_queued_ = true;
      try_send();
      break;
    case TcpState::syn_sent:
    case TcpState::syn_rcvd:
      become_closed();
      break;
    default:
      break;
  }
}

void TcpConn::become_closed() {
  if (state_ == TcpState::closed) return;
  state_ = TcpState::closed;
  disarm_rto();
  disarm_delack();
  while (!rtx_q_.empty()) PktBufPool::release(rtx_q_.pop_front());
  zc_dropped_ += zc_q_.size();
  while (!zc_q_.empty()) PktBufPool::release(zc_q_.pop_front());
  // Nobody reads a closed connection: its received bytes go too.
  while (!rcv_q_.empty()) PktBufPool::release(rcv_q_.pop_front());
  rcv_queued_ = 0;
  rcv_consumed_front_ = 0;
  while (PktBuf* p = ooo_tree_.first()) {
    ooo_tree_.erase(*p);
    PktBufPool::release(p);
  }
  if (on_closed) on_closed(*this);
}

void TcpConn::arm_rto() {
  disarm_rto();
  rto_timer_ = stack_->env().engine.schedule_in(rto_, [this] {
    rto_timer_ = 0;
    stack_->run_cpu([this] { on_rto(); });
  });
}

void TcpConn::disarm_rto() noexcept {
  stack_->env().engine.cancel(rto_timer_);
  rto_timer_ = 0;
}

void TcpConn::disarm_delack() noexcept {
  stack_->env().engine.cancel(delack_timer_);
  delack_timer_ = 0;
}

void TcpConn::on_rto() {
  if (rtx_q_.empty() || state_ == TcpState::closed) return;
  PktBuf& e = *rtx_q_.front();
  retransmits_++;
  obs::inc(stack_->m_rtx_);
  e.tstamp = kResent;
  // Timeout: collapse the window, back off the timer (RFC 6298 5.5).
  const u32 inflight = snd_nxt_ - snd_una_;
  ssthresh_ = std::max(inflight / 2, static_cast<u32>(2 * kMss));
  cwnd_ = static_cast<u32>(kMss);
  dup_acks_ = 0;
  rto_ = std::min(rto_ * 2, kMaxRto);
  PktBuf* copy = e.owner->clone(e);
  stack_->charge_tx();
  stack_->output_pkt(*this, copy, e.tcp.flags, e.tcp.seq, rcv_nxt_, nullptr);
  arm_rto();
}

void TcpConn::update_rtt(SimTime sample) {
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const SimTime err = srtt_ > sample ? srtt_ - sample : sample - srtt_;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  rto_ = std::clamp(srtt_ + std::max(kMinRto, 4 * rttvar_), kMinRto, kMaxRto);
}

void TcpConn::send_due_ack() {
  if (ack_due_ == AckDue::none || state_ == TcpState::closed) return;
  if (ack_due_ == AckDue::now) {
    stack_->charge_tx();
    send_ctl(kTcpAck);
    return;
  }
  if (delack_timer_ != 0) return;  // the first unacked segment's deadline
  delack_timer_ = stack_->env().engine.schedule_in(kDelAckNs, [this] {
    delack_timer_ = 0;
    stack_->run_cpu([this] {
      // Any segment sent since cancelled the timer; only a close (which
      // cancels it too) leaves nothing owed.
      stack_->note_delayed_ack();
      stack_->charge_tx();
      send_ctl(kTcpAck);
    });
  });
}

}  // namespace papm::net
