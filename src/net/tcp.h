// From-scratch TCP over PktBuf metadata.
//
// Implements the stack features the paper's argument rests on (§4.1):
//   * reliable delivery with cumulative, delayed ACKs (RFC 1122
//     §4.2.3.2, RFC 5681 §4.2), RTO (RFC 6298 estimation, one sample
//     per ACK under Karn's rule, with Linux's floor) and fast retransmit
//     on three duplicate ACKs;
//   * slow start and congestion avoidance by bytes acked (RFC 3465);
//   * a retransmission queue of *clones* — data stays intact until
//     acknowledged while lower layers release their metadata;
//   * out-of-order reassembly in an intrusive red-black tree of PktBufs,
//     the very structure §4.1 points to;
//   * checksum production/verification, offloadable to the NIC, with the
//     payload-only checksum preserved in the packet metadata;
//   * a zero-copy receive path (read_pkts) handing whole PktBufs —
//     metadata, checksums, timestamps — to the application, the PASTE
//     interface the proposal builds on; plus the classic copying read();
//   * its transmit twin (send_pkt): frag-backed packets leave without a
//     copy, waiting in order in a TX queue while the window is full;
//   * a receive window that holds: bytes past the buffer are trimmed, and
//     data reaching a connection the application closed resets it;
//   * connection migration between stacks (extract/adopt): on a
//     multi-queue host every shard pins its own TcpStack, and RSS
//     rebalancing re-steers a flow group to another queue — the flow's
//     whole connection state (sequence space, rtx clones, receive and
//     out-of-order queues, congestion state, armed timers) moves to the
//     destination shard's stack in one step, so no in-flight segment is
//     dropped or reordered across the handoff.
//
// Connections run over a NetIf (implemented by nic::Nic) and consume
// host CPU through the cost model's per-segment stack charges.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "common/flat_map.h"
#include "common/types.h"
#include "container/rbtree.h"
#include "net/headers.h"
#include "net/pktbuf.h"
#include "obs/metrics.h"
#include "sim/cpu.h"

namespace papm::net {

// Lower-layer interface the stack transmits through (the NIC).
class NetIf {
 public:
  virtual ~NetIf() = default;
  // Takes ownership of the packet (frees it after serialization). The
  // frame is ready for the wire at pb->tstamp, the time the stack handed
  // it down (never before now).
  virtual void transmit(PktBuf* pb) = 0;
  [[nodiscard]] virtual MacAddr mac() const noexcept = 0;
};

// Software L4 checksum check (TCP or UDP, per pb.l4_proto) for a packet
// the NIC did not verify: charges the pass over the segment and, when it
// holds, marks the packet verified and derives its payload checksum.
// False = corrupt.
[[nodiscard]] bool verify_l4_csum(sim::Env& env, PktBufPool& pool, PktBuf& pb);

// Software L4 checksum (TCP or UDP) of an outgoing packet under IP
// header `ip`: charges the pass over the segment and returns the
// checksum, folded and inverted. The linear part from pb.l4_off and then
// each frag are summed at their offsets in the segment, so a piece of odd
// length (an HTTP head, a replication header carrying a key) shifts the
// ones after it by a byte.
[[nodiscard]] u16 l4_tx_csum(sim::Env& env, PktBuf& pb, const IpHeader& ip);

// Retransmit timer bounds (RFC 6298's 1 s floor and 60 s ceiling, scaled
// to datacenter RTTs).
inline constexpr SimTime kMinRto = 400 * kNsPerUs;
inline constexpr SimTime kMaxRto = 20 * kNsPerMs;
// How long an ACK may wait for a segment to carry it: a quarter of the
// RTO floor, Linux's ratio (40 ms delayed ACK against a 200 ms rto_min).
inline constexpr SimTime kDelAckNs = kMinRto / 4;

// Sequence-number arithmetic (wrap-safe).
[[nodiscard]] constexpr bool seq_lt(u32 a, u32 b) noexcept {
  return static_cast<i32>(a - b) < 0;
}
[[nodiscard]] constexpr bool seq_le(u32 a, u32 b) noexcept {
  return static_cast<i32>(a - b) <= 0;
}
[[nodiscard]] constexpr bool seq_gt(u32 a, u32 b) noexcept {
  return static_cast<i32>(a - b) > 0;
}
[[nodiscard]] constexpr bool seq_ge(u32 a, u32 b) noexcept {
  return static_cast<i32>(a - b) >= 0;
}

enum class TcpState {
  closed,
  listen,
  syn_sent,
  syn_rcvd,
  established,
  fin_wait_1,
  fin_wait_2,
  close_wait,
  last_ack,
};

[[nodiscard]] constexpr std::string_view to_string(TcpState s) noexcept {
  switch (s) {
    case TcpState::closed: return "closed";
    case TcpState::listen: return "listen";
    case TcpState::syn_sent: return "syn_sent";
    case TcpState::syn_rcvd: return "syn_rcvd";
    case TcpState::established: return "established";
    case TcpState::fin_wait_1: return "fin_wait_1";
    case TcpState::fin_wait_2: return "fin_wait_2";
    case TcpState::close_wait: return "close_wait";
    case TcpState::last_ack: return "last_ack";
  }
  return "?";
}

class TcpStack;

// FIFO of packets linked through PktBuf::next. It allocates nothing, so
// each of a host's thousands of connections pays 24 bytes per queue,
// most of them empty (a std::deque allocates ~0.5 KB before its first
// element).
class PktQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] PktBuf* front() const noexcept { return head_; }
  void push_back(PktBuf* pb) noexcept {
    pb->next = nullptr;
    (tail_ != nullptr ? tail_->next : head_) = pb;
    tail_ = pb;
    size_++;
  }
  PktBuf* pop_front() noexcept {
    PktBuf* pb = head_;
    head_ = pb->next;
    if (head_ == nullptr) tail_ = nullptr;
    pb->next = nullptr;
    size_--;
    return pb;
  }

 private:
  PktBuf* head_ = nullptr;
  PktBuf* tail_ = nullptr;
  std::size_t size_ = 0;
};

class TcpConn {
 public:
  // Application event hooks.
  std::function<void(TcpConn&)> on_established;
  std::function<void(TcpConn&)> on_readable;
  std::function<void(TcpConn&)> on_closed;

  [[nodiscard]] TcpState state() const noexcept { return state_; }
  [[nodiscard]] u32 peer_ip() const noexcept { return peer_ip_; }
  [[nodiscard]] u16 peer_port() const noexcept { return peer_port_; }
  [[nodiscard]] u16 local_port() const noexcept { return local_port_; }

  // Queues application bytes for transmission (copies into the send
  // buffer, charging the copy — the classic socket write path).
  Status send(std::span<const u8> data);

  // Zero-copy transmit: the stack takes ownership of a fully payload-
  // bearing PktBuf (at most kMss payload bytes, linear part plus frags)
  // whose data is already in the host arena (PASTE-style TX; pktstore
  // uses this to emit stored packets without copies). It leaves at once
  // when the window has room for all of it and waits in the zero-copy TX
  // queue otherwise, behind any unsent send() bytes; later send() bytes
  // queue behind it in turn. The queue drains as ACKs open the window
  // and is released, unsent, when the connection closes.
  Status send_pkt(PktBuf* pb);

  // Copying read: drains up to out.size() in-order payload bytes.
  std::size_t read(std::span<u8> out);

  // Zero-copy read: transfers ownership of the queued payload-bearing
  // packets (payload via pool().payload(*pb)). Caller frees them.
  std::vector<PktBuf*> read_pkts();
  // The same, appending to `out` (no allocation once `out` has grown).
  void read_pkts(std::vector<PktBuf*>& out);

  [[nodiscard]] std::size_t readable_bytes() const noexcept { return rcv_queued_; }

  // Graceful close (FIN). on_closed fires when the conn reaches closed.
  void close();

  // Introspection for tests.
  [[nodiscard]] std::size_t ooo_queued() const noexcept { return ooo_tree_.size(); }
  [[nodiscard]] std::size_t rtx_queued() const noexcept { return rtx_q_.size(); }
  // Zero-copy packets waiting for window, and those a close released
  // unsent.
  [[nodiscard]] std::size_t zc_queued() const noexcept { return zc_q_.size(); }
  [[nodiscard]] u64 zc_dropped() const noexcept { return zc_dropped_; }
  [[nodiscard]] u64 retransmits() const noexcept { return retransmits_; }
  [[nodiscard]] u32 cwnd() const noexcept { return cwnd_; }
  [[nodiscard]] SimTime srtt() const noexcept { return srtt_; }
  [[nodiscard]] SimTime rto() const noexcept { return rto_; }

 private:
  friend class TcpStack;

  TcpConn(TcpStack& stack, u32 local_ip, u16 local_port, u32 peer_ip,
          u16 peer_port);

  // Segment arrival (stack already charged per-segment RX cost).
  void rx(PktBuf* pb);

  void rx_listen_syn(PktBuf* pb);
  void process_ack(const TcpHeader& h);
  // Queues an in-order or out-of-order data segment and notes the ACK it
  // owes (see ack_due_).
  void rx_data(PktBuf* pb);
  void deliver_in_order();
  void try_send();
  // Transmits a queued zero-copy packet of `len` payload bytes at snd_nxt.
  void send_zc(PktBuf* pb, u32 len);
  // Stamps a sent segment's clone and queues it for retransmit (a null
  // clone, from an exhausted pool, only arms the timer).
  void push_rtx(PktBuf* clone);
  // Nothing in flight and the window too small for the next unsent byte
  // or queued packet: only a persist-timer probe can reopen it.
  [[nodiscard]] bool window_stalled() const noexcept;
  void send_segment(u8 flags, u32 seq, std::span<const u8> payload,
                    bool queue_rtx);
  void send_ctl(u8 flags);  // pure control segment at snd_nxt
  void enter_established();
  void arm_rto();
  // Cancels the pending RTO or zero-window-probe timer, if any.
  void disarm_rto() noexcept;
  void disarm_delack() noexcept;
  void on_rto();
  void update_rtt(SimTime sample);
  // Sends the ACK owed at once, or arms the delayed-ACK timer for one
  // that may wait (end of a received segment's processing).
  void send_due_ack();
  void become_closed();

  // Owning stack; reseated by TcpStack::adopt when the connection
  // migrates to another shard's stack (RSS rebalancing).
  TcpStack* stack_;
  TcpState state_ = TcpState::closed;
  u32 local_ip_, peer_ip_;
  u16 local_port_, peer_port_;
  std::function<void(TcpConn&)> acceptor_cb_;  // listener's accept hook

  // Send state.
  u32 iss_ = 0;
  u32 snd_una_ = 0;
  u32 snd_nxt_ = 0;
  u32 snd_wnd_ = 0;   // peer-advertised
  u32 cwnd_ = 0;
  u32 ssthresh_ = 0;
  u32 dup_acks_ = 0;
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  // Unsent bytes are snd_buf_[snd_head_, size); snd_nxt_ marks the
  // boundary. The consumed prefix is dropped once it dominates.
  std::vector<u8> snd_buf_;
  std::size_t snd_head_ = 0;
  [[nodiscard]] std::size_t unsent() const noexcept {
    return snd_buf_.size() - snd_head_;
  }

  // Sent, unacked segments in send order: clones of what went out (they
  // hold the data alive until acked). A clone's ->tcp carries the
  // segment's seq and flags, its ->tstamp the send time, or kResent once
  // retransmitted (Karn's rule: no RTT sample).
  PktQueue rtx_q_;
  // Zero-copy TX queue (send_pkt): packets not yet sent, in stream order
  // after the unsent snd_buf_ bytes. While it is non-empty, send() bytes
  // are packed into packets of their own and queued here too.
  PktQueue zc_q_;
  u64 zc_dropped_ = 0;

  // Receive state.
  u32 irs_ = 0;
  u32 rcv_nxt_ = 0;
  bool fin_received_ = false;
  u32 fin_seq_ = 0;
  PktQueue rcv_q_;  // in-order payload-bearing packets
  std::size_t rcv_queued_ = 0;
  std::size_t rcv_consumed_front_ = 0;  // partially read() bytes of front pkt
  container::RbTree<PktBuf, u32, &PktBuf::rb, &PktBuf::rb_key> ooo_tree_;

  // RTT / RTO (RFC 6298).
  SimTime srtt_ = 0;
  SimTime rttvar_ = 0;
  // Initial RTO: 1 ms (RFC 6298's 1 s, scaled to datacenter RTTs). Once
  // sampled it is srtt + max(kMinRto, 4·rttvar), within [kMinRto,
  // kMaxRto] — Linux's floor: a closed loop's steady RTTs drive rttvar
  // toward zero, and an RTO of srtt plus a microsecond fires on every
  // queueing hiccup (a spurious retransmit each time).
  SimTime rto_ = 1 * kNsPerMs;
  // The one pending RTO or zero-window-probe timer (0 = none); arming a
  // new one cancels the one it supersedes.
  sim::EventId rto_timer_ = 0;

  // ACK owed to the peer. `delayed` waits for the next outgoing segment
  // to carry it, or for the delayed-ACK timer; `now` goes at the end of
  // the received segment's processing.
  enum class AckDue : u8 { none, delayed, now };
  AckDue ack_due_ = AckDue::none;
  // rcv_nxt_ as last acknowledged: more than one full-sized segment past
  // it and the ACK goes at once (every second segment of a bulk stream).
  u32 rcv_acked_ = 0;
  sim::EventId delack_timer_ = 0;  // 0 = none
  // When the last segment sent became ready for the wire. Work items of
  // a host with unlimited cores can overlap in time on one connection
  // (the socket lock a kernel takes is not modelled); the next segment
  // is handed down no earlier, so the wire keeps sequence order.
  SimTime tx_ready_ = 0;
  u64 retransmits_ = 0;
};

class TcpStack {
 public:
  struct Options {
    u32 ip = 0;
    // Busy-polling PASTE-style host (server) vs interrupt-driven kernel
    // host (client): selects the per-segment stack charges.
    bool busy_poll = false;
    // NIC fills the TCP checksum. Verification needs no option: a
    // segment the NIC did not verify (PktBuf::csum_verified) is checked
    // in software.
    bool csum_offload_tx = true;
    u32 rcv_buf = 1 << 20;        // receive buffer bytes (window basis)
    u16 ephemeral_base = 33000;
    // Multi-queue datapath: pin all of this stack's work (RX processing,
    // timers, TX) to one HostCpu core — the core busy-polling the NIC
    // queue this stack serves. -1 = classic earliest-free scheduling.
    int core = -1;
    // Mirrors segment/checksum/retransmit counters into a (per-shard)
    // registry: tcp.segments_rx / tcp.segments_tx / tcp.csum_failures /
    // tcp.retransmits; and, registered on first use, tcp.dup_segments_rx,
    // tcp.delayed_acks and the deepest zero-copy TX queue of any of its
    // connections as the gauge tcp.zc_queue_hwm. Null = the plain member
    // counters only.
    obs::MetricRegistry* metrics = nullptr;
  };

  TcpStack(sim::Env& env, NetIf& netif, PktBufPool& pool, Options opts);

  // Active open. The returned connection is owned by the stack.
  TcpConn* connect(u32 dst_ip, u16 dst_port);

  // Passive open: on_accept fires with each new established connection.
  Status listen(u16 port, std::function<void(TcpConn&)> on_accept);

  // Entry from the NIC. Takes ownership of the packet. Wraps all
  // processing (stack + application callbacks) in the host CPU.
  void rx(PktBuf* pb);

  // --- Flow-group migration (RSS rebalancing) --------------------------
  // Removes the connection from this stack and returns its full state —
  // sequence space, retransmission clones, receive/out-of-order queues,
  // congestion state — for adoption by another stack. Armed timers ride
  // along: their callbacks resolve the owning stack at fire time.
  // Returns null when the connection is not this stack's.
  std::unique_ptr<TcpConn> extract(TcpConn* c);
  // Installs a connection extracted from another stack: from here on its
  // segments are found by this stack's demux, its timers charge this
  // stack's pinned core and its transmissions ring this queue's
  // doorbell. Queued packet buffers keep their original owner pool
  // (every free in the connection is owner-routed).
  void adopt(std::unique_ptr<TcpConn> conn);
  // Iterates live connections (migration-group selection), in no
  // particular order.
  template <typename Fn>
  void each_conn(Fn&& fn) {
    conns_.for_each([&](u64, std::unique_ptr<TcpConn>& c) { fn(*c); });
  }
  [[nodiscard]] std::size_t conn_count() const noexcept {
    return conns_.size();
  }

  // Host CPU used for timer callbacks and rx processing; defaults to an
  // unlimited-cores CPU owned by the stack.
  void attach_cpu(sim::HostCpu& cpu) noexcept { cpu_ = &cpu; }
  [[nodiscard]] sim::HostCpu& cpu() noexcept { return *cpu_; }

  // Charges `fn` to this stack's core: pinned when Options::core is set
  // (one stack per NIC queue per core), earliest-free otherwise.
  template <typename F>
  SimTime run_cpu(F&& fn) {
    if (opts_.core >= 0) {
      return cpu_->run_on(static_cast<std::size_t>(opts_.core),
                          std::forward<F>(fn));
    }
    return cpu_->run(std::forward<F>(fn));
  }

  [[nodiscard]] PktBufPool& pool() noexcept { return pool_; }
  [[nodiscard]] sim::Env& env() noexcept { return env_; }
  [[nodiscard]] const Options& options() const noexcept { return opts_; }
  [[nodiscard]] u32 ip() const noexcept { return opts_.ip; }

  // Stats.
  [[nodiscard]] u64 segments_rx() const noexcept { return segments_rx_; }
  [[nodiscard]] u64 segments_tx() const noexcept { return segments_tx_; }
  [[nodiscard]] u64 csum_failures() const noexcept { return csum_failures_; }
  // Data segments that brought no new byte (all before rcv_nxt, or a copy
  // of one already held out of order): a retransmit the first copy made
  // needless, or a replayed frame.
  [[nodiscard]] u64 dup_segments_rx() const noexcept { return dup_segments_rx_; }
  // Pure ACKs the delayed-ACK timer sent (no segment came to carry them).
  [[nodiscard]] u64 delayed_acks() const noexcept { return delayed_acks_; }

 private:
  friend class TcpConn;

  // Flow-table key: the 4-tuple minus our own (fixed) address.
  [[nodiscard]] static constexpr u64 flow_key(u32 peer_ip, u16 peer_port,
                                              u16 local_port) noexcept {
    return static_cast<u64>(peer_ip) << 32 |
           static_cast<u64>(peer_port) << 16 | local_port;
  }

  // A packet holding a copy of `payload` after the header room (no copy
  // charge: the caller's send path pays it); null when the arena is
  // exhausted.
  PktBuf* copy_pkt(std::span<const u8> payload);
  // Builds and transmits a segment on behalf of a connection.
  void output(TcpConn& c, u8 flags, u32 seq, u32 ack,
              std::span<const u8> payload, PktBuf** rtx_clone);
  // Zero-copy variant: `pb` already carries the payload at payload_off.
  void output_pkt(TcpConn& c, PktBuf* pb, u8 flags, u32 seq, u32 ack,
                  PktBuf** rtx_clone);
  void charge_rx(bool pure_ack);
  void charge_tx();
  // Raises tcp.zc_queue_hwm to a connection's zero-copy queue depth.
  void note_zc_depth(std::size_t n);
  void note_dup_segment();
  void note_delayed_ack();

  void rx_locked(PktBuf* pb);  // runs under the host CPU scope

  sim::Env& env_;
  NetIf& netif_;
  PktBufPool& pool_;
  Options opts_;
  sim::HostCpu own_cpu_;
  sim::HostCpu* cpu_;

  FlatMap<std::unique_ptr<TcpConn>> conns_;  // flow_key -> connection
  std::unordered_map<u16, std::function<void(TcpConn&)>> listeners_;
  u16 next_ephemeral_;
  u32 next_iss_ = 1000;

  u64 segments_rx_ = 0;
  u64 segments_tx_ = 0;
  u64 csum_failures_ = 0;
  u64 dup_segments_rx_ = 0;
  u64 delayed_acks_ = 0;

  obs::Counter* m_seg_rx_ = nullptr;
  obs::Counter* m_seg_tx_ = nullptr;
  obs::Counter* m_csum_fail_ = nullptr;
  obs::Counter* m_rtx_ = nullptr;
  obs::Gauge* m_zc_hwm_ = nullptr;
  obs::Counter* m_dup_seg_ = nullptr;
  obs::Counter* m_delack_ = nullptr;
};

}  // namespace papm::net
