// Homa-like message transport (§5.2).
//
// "The Linux kernel implementation of Homa, a new reliable transport
// protocol specifically designed for data center networking, uses
// regular Linux packet metadata ... This implies that the approach of
// repurposing the networking features is feasible not only for TCP but
// also future transport protocols."
//
// This is a deliberately simplified Homa: message-oriented,
// receiver-driven. A sender transmits the first kUnscheduledSegs
// segments unscheduled; the receiver GRANTs further segments as data
// arrives (a fixed in-flight window, no SRPT priorities), requests
// RESENDs for gaps after a timeout, and ACKs completed messages.
// Completed messages are delivered as the *received packets themselves*
// (plus per-packet payload ranges), so a storage stack can adopt them
// zero-copy exactly as it does with TCP segments — the §5.2 point.
//
// Framing rides over UDP datagrams (one Homa packet per datagram):
//   u8 type  u8 pad[3]  u64 msg_id  u32 offset  u32 total_len  u32 grant
#pragma once

#include <map>
#include <unordered_map>
#include <unordered_set>

#include "net/udp.h"

namespace papm::net {

constexpr std::size_t kHomaHdrLen = 24;
constexpr std::size_t kHomaSegPayload = kMaxUdpPayload - kHomaHdrLen;

enum class HomaPktType : u8 { data = 1, grant = 2, resend = 3, ack = 4 };

struct HomaDelivery {
  u32 src_ip;
  u16 src_port;
  u64 msg_id;
  u64 total_len;
  // The message's packets in offset order, with the payload byte range
  // of each (past the Homa header). Receiver owns them; free via pool.
  std::vector<PktBuf*> pkts;
  std::vector<u32> offs;
  std::vector<u32> lens;

  // Convenience: flatten to contiguous bytes (copies).
  [[nodiscard]] std::vector<u8> bytes(PktBufPool& pool) const;
};

struct HomaOptions {
  SimTime sender_timeout_ns = 2 * kNsPerMs;
  // Sender-timeout growth per retry (1.0 = fixed interval, the legacy
  // behaviour). The replication layer runs 2.0 so a dead replica's
  // retransmits thin out instead of hammering the fabric.
  double backoff_mult = 1.0;
  int max_retries = 10;
};

class HomaEndpoint {
 public:
  using Options = HomaOptions;

  // Message arrival hook. The handler owns the delivered packets.
  std::function<void(HomaDelivery)> on_message;
  // Completion hook for sent messages (acknowledged by the receiver).
  std::function<void(u64 msg_id)> on_sent;
  // Fires when a sent message exhausts max_retries and is abandoned —
  // the peer-suspect signal the replication layer keys off.
  std::function<void(u64 msg_id)> on_give_up;

  HomaEndpoint(UdpStack& udp, u16 port, Options opts = Options());

  // Sends a message (copies the bytes into per-segment packets).
  // Returns the message id.
  u64 send_msg(u32 dst_ip, u16 dst_port, std::span<const u8> data);

  // One refcounted byte range of packet data (a gather-send element).
  struct GatherSeg {
    u64 data_h;
    u32 off;
    u32 len;
    u32 cap;  // allocation size of the block (for unref)
  };

  // Zero-copy send: `header` bytes (copied — it is a few tens of bytes
  // of protocol header) followed by the gather ranges, which are
  // refcounted out of `pool` and attached to the wire segments as frags
  // — no payload byte is touched by the CPU (the PR 8 slicing idiom
  // applied to replication forwarding). The refs are held for the
  // message lifetime, so retransmits replay from the original blocks,
  // and dropped on ack or give-up. `pool` must own the gather blocks
  // (its arena resolves them); it also provides the segment metadata.
  u64 send_msg_gather(u32 dst_ip, u16 dst_port, std::span<const u8> header,
                      std::span<const GatherSeg> segs, PktBufPool& pool);

  // Abandon all endpoint state without touching the buffer pool: used
  // when the owning host is power-cut. Stale timers find empty maps and
  // no-op instead of dereferencing a dead pool.
  void abandon();

  [[nodiscard]] u64 messages_sent() const noexcept { return msgs_tx_; }
  [[nodiscard]] u64 messages_received() const noexcept { return msgs_rx_; }
  [[nodiscard]] u64 resends() const noexcept { return resends_; }
  [[nodiscard]] u64 timeouts() const noexcept { return timeouts_; }
  [[nodiscard]] u64 give_ups() const noexcept { return give_ups_; }
  [[nodiscard]] u64 grants_sent() const noexcept { return grants_tx_; }
  [[nodiscard]] u16 port() const noexcept { return port_; }

 private:
  struct TxMsg {
    u32 dst_ip;
    u16 dst_port;
    std::vector<u8> data;  // header bytes only, for a gather message
    std::vector<GatherSeg> gather;  // payload ranges after `data`
    PktBufPool* gather_pool = nullptr;  // holds one ref per gather range
    u64 gather_len = 0;
    u64 granted;   // bytes the receiver has allowed
    u64 sent;      // bytes transmitted so far (first pass)
    bool done;
    int retries;
    u64 timer_gen;

    [[nodiscard]] u64 total_len() const noexcept {
      return data.size() + gather_len;
    }
  };
  struct RxMsg {
    u32 src_ip;
    u16 src_port;
    u64 msg_id = 0;  // sender-scoped id (rx_ is keyed by a peer hash)
    u64 total_len = 0;
    u64 received = 0;
    u64 granted = 0;
    std::map<u32, PktBuf*> segs;  // offset -> packet
    u64 timer_gen = 0;
    int nudges = 0;
  };

  void rx(u32 src_ip, u16 src_port, PktBuf* pb);
  void rx_data(u32 src_ip, u16 src_port, PktBuf* pb, u64 msg_id, u32 offset,
               u32 total_len);
  void tx_from(TxMsg& m, u64 msg_id, u64 upto);
  void tx_gather_seg(TxMsg& m, u64 msg_id, u64 off, u64 want);
  void release_gather(TxMsg& m);
  void send_ctl(u32 dst_ip, u16 dst_port, HomaPktType type, u64 msg_id,
                u32 offset, u32 total, u32 grant);
  void arm_rx_timer(u64 key, RxMsg& m);
  void arm_tx_timer(u64 msg_id, TxMsg& m);
  void deliver(u64 key, RxMsg&& m);
  void charge_proc();

  UdpStack& udp_;
  u16 port_;
  Options opts_;
  u64 next_msg_id_ = 1;
  std::unordered_map<u64, TxMsg> tx_;              // msg_id -> state
  std::unordered_map<u64, RxMsg> rx_;              // (peer-unique key)
  // Exactly-once delivery: data for an already-delivered message (lost
  // ACK, sender replay) is re-acked and dropped.
  std::unordered_set<u64> delivered_;
  u64 msgs_tx_ = 0;
  u64 msgs_rx_ = 0;
  u64 resends_ = 0;
  u64 timeouts_ = 0;
  u64 give_ups_ = 0;
  u64 grants_tx_ = 0;
};

}  // namespace papm::net
