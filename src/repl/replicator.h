// Primary-side replication: forwards each locally-applied mutation to R
// backup hosts over Homa and reports quorum.
//
// The forward is zero-copy (the PR-8 idiom): the value leaves as
// refcounted gather ranges over the very packet buffers the client's TCP
// segments DMA'd into — only the 16-byte replication header plus the key
// is ever copied. The Replicator holds one reference per gather range
// until every live peer has cumulatively acked past the record, so
// repl-layer retransmits replay from the original blocks.
//
// Reliability ladder: Homa retries a message with exponential sender
// backoff; when it gives up, the repl layer schedules its own retransmit
// of everything the peer has not acked (again backing off); after
// kMaxPeerRetries (6) the peer is declared dead. A dead or partitioned
// quorum either stalls client acks (strict) or releases them after
// degrade_after_ns as *degraded* local-only acks — counted, never silent.
#pragma once

#include <map>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "repl/repl.h"

namespace papm::core {
class PktStore;
}

namespace papm::repl {

class Replicator {
 public:
  using GatherSeg = net::HomaEndpoint::GatherSeg;
  // done(degraded): quorum reached (false) or released by the degrade
  // deadline without quorum (true). Fires exactly once per submission.
  using Done = std::function<void(bool degraded)>;

  Replicator(sim::Env& env, net::UdpStack& udp, ReplOptions opts,
             std::vector<u32> peer_ips);

  // Forwards one PUT. `segs` are refcounted ranges over `pool`'s blocks
  // (see repl::gather_from_pkts); the Replicator takes its own reference
  // per range for the record's lifetime. Returns the record's seq.
  // `trace` is the primary's trace id for the client op (0 = untraced);
  // it travels in the kData header so the replica's apply span lands in
  // the same stitched trace.
  u64 submit_put(std::string_view key, std::span<const GatherSeg> segs,
                 u32 val_len, net::PktBufPool& pool, Done done,
                 u64 trace = 0);
  u64 submit_erase(std::string_view key, Done done, u64 trace = 0);

  // Periodic liveness beacons to the peers (kHeartbeat, high-water seq).
  void start_heartbeats();
  // Whole-host cut: neutralize endpoint + timers (the primary died).
  void stop();

  // Rejoin: the peer is alive again with everything up to `acked_seq`
  // durable (it just resynced); future records forward to it again.
  void revive_peer(u32 ip, u64 acked_seq);

  [[nodiscard]] u64 last_seq() const noexcept { return next_seq_ - 1; }
  [[nodiscard]] u32 alive_peers() const noexcept;
  [[nodiscard]] u64 peer_acked(u32 ip) const noexcept;
  [[nodiscard]] std::size_t inflight_records() const noexcept {
    return records_.size();
  }

  [[nodiscard]] u64 forwards() const noexcept { return forwards_; }
  [[nodiscard]] u64 acks_rx() const noexcept { return acks_rx_; }
  [[nodiscard]] u64 retransmits() const noexcept { return retransmits_; }
  [[nodiscard]] u64 degraded_acks() const noexcept { return degraded_acks_; }

  void set_metrics(obs::MetricRegistry* r);
  [[nodiscard]] net::HomaEndpoint& homa() noexcept { return homa_; }

 private:
  struct Peer {
    u32 ip;
    u64 acked = 0;      // cumulative durable seq the peer reported
    bool alive = true;
    int give_ups = 0;   // consecutive Homa give-ups (reset by any ack)
    bool retry_armed = false;
    std::unordered_map<u64, u64> inflight;  // msg_id -> seq
  };
  struct Rec {
    u64 seq;
    std::vector<u8> hdr;  // repl header + key (copied, it is tiny)
    std::vector<GatherSeg> segs;
    net::PktBufPool* pool = nullptr;  // holds one ref per seg
    Done done;
    bool done_fired = false;
    bool degraded = false;
  };

  u64 submit(Rec rec);
  void forward_to(Peer& p, const Rec& r);
  void on_msg(net::HomaDelivery d);
  void on_give_up(u64 msg_id);
  void arm_retry(Peer& p);
  void arm_degrade(u64 seq);
  void check_quorum();
  void retire();
  void hb_tick();

  sim::Env& env_;
  ReplOptions opts_;
  net::HomaEndpoint homa_;
  std::vector<Peer> peers_;
  std::map<u64, Rec> records_;
  u64 next_seq_ = 1;
  bool stopped_ = false;
  bool hb_armed_ = false;

  u64 forwards_ = 0;
  u64 acks_rx_ = 0;
  u64 retransmits_ = 0;
  u64 degraded_acks_ = 0;
  obs::Counter* m_forwards_ = nullptr;
  obs::Counter* m_acks_rx_ = nullptr;
  obs::Counter* m_retransmits_ = nullptr;
  obs::Counter* m_degraded_ = nullptr;
};

// Gather ranges for the value byte ranges (pkts[i], offs[i], lens[i]) as
// the server's dispatch path holds them — offs absolute within each
// packet's linear buffer view. Resolves sliced packets to their slice
// blocks (the bytes' physical home) so the refs pin the right blocks.
std::vector<Replicator::GatherSeg> gather_from_pkts(
    std::span<net::PktBuf* const> pkts, std::span<const u32> offs,
    std::span<const u32> lens);

// Shared delivery helpers (replica + replicator message parsing).
std::vector<u8> delivery_head(const net::HomaDelivery& d, std::size_t n);
void release_delivery(net::HomaDelivery& d);

// Snapshot re-sync source side (cold path, copied bytes): streams every
// key/value of `store` to dst_ip as kSnapBegin / kSnapItem* / kSnapEnd
// with `cut_seq` as the cut. Used by the primary to re-sync a rejoining
// replica, and by a promoted replica to seed a fresh peer.
void send_snapshot(net::HomaEndpoint& homa, core::PktStore& store, u32 dst_ip,
                   u16 port, u64 cut_seq);

}  // namespace papm::repl
