// Simulated NIC (models the testbed's Intel XXV710 25 GbE adapters).
//
// Offload engines the paper proposes to harvest for storage (§5.2):
//   * TX checksum offload: fills the TCP checksum while serializing;
//   * RX verification + "checksum complete": the full-segment sum is
//     delivered with the packet and the stack derives the payload-only
//     checksum for free (pktstore stores it as the integrity word);
//   * hardware timestamps on both directions (PktBuf::hw_tstamp).
//
// Multi-queue / RSS (scale-out datapath): the NIC owns N RX/TX
// descriptor-ring pairs. Received frames are steered by a Toeplitz hash
// over the IPv4 4-tuple — all segments of a flow land on the same queue,
// so per-queue state (buffer pool, TCP connection state, store shard)
// never crosses cores. Each queue pre-posts RX buffers from its *own*
// PktBufPool and delivers to its own sink (one busy-polling core each).
//
// RSS *indirection table* (rebalancing): steering is a two-step lookup,
// hash -> 128-entry table -> queue, exactly like real RSS engines
// (ETHTOOL_SRXFHINDIR). The table starts at the even spread (entry i ->
// i % queues — identical to hash % queues for the power-of-two queue
// counts the benches use) and individual entries can be remapped at
// runtime, moving a *flow group* (all flows hashing into that entry) to
// another queue without touching the other 127 groups. Per-entry frame
// counters feed the shard-load monitor (app::Rebalancer) that decides
// when and what to move; the TCP-state handoff that must accompany a
// remap lives in net::TcpStack::extract/adopt.
//
// Link serialization at wire_ns_per_byte models the 25 Gbit/s line rate;
// frames from all TX queues share the single wire (link_free_at_).
#pragma once

#include <functional>
#include <vector>

#include "net/pktbuf.h"
#include "net/tcp.h"
#include "nic/fabric.h"
#include "obs/metrics.h"

namespace papm::nic {

// Toeplitz RSS hash over the IPv4 4-tuple (the Microsoft RSS algorithm
// with the standard verification key). Exposed for steering tests.
[[nodiscard]] u32 rss_toeplitz(u32 src_ip, u32 dst_ip, u16 src_port,
                               u16 dst_port) noexcept;

struct NicOptions {
  bool csum_offload_tx = true;
  bool csum_offload_rx = true;
  // Payload slicer (NFSlicer-style, §5.2 "harvest the offload engines"):
  // for TCP frames landing on a PM-backed queue, the NIC DMAs the payload
  // into a separately allocated arena slot — its final, durable resting
  // place — and delivers a header-only descriptor (PktBuf::sliced()).
  // Requires csum_offload_rx (the slicer narrows from the same
  // checksum-complete word). DRAM-pooled queues (clients) fall back to
  // the contiguous path automatically.
  bool payload_slicing = false;
};

class Nic final : public net::NetIf {
 public:
  using Options = NicOptions;

  // RSS indirection-table entries. 128 matches the common hardware
  // default (i40e/ixgbe); a flow group is the set of flows whose hash
  // lands in one entry.
  static constexpr u32 kIndirEntries = 128;

  // The indirection slot a 4-tuple hash selects.
  [[nodiscard]] static constexpr u32 rss_bucket_of(u32 hash) noexcept {
    return hash % kIndirEntries;
  }

  // `pool` provides queue 0's RX buffers (pre-posted descriptors) and
  // owns TX packets handed to transmit(). Additional queues are grown
  // with add_queue() before traffic flows.
  Nic(sim::Env& env, Fabric& fabric, u32 ip, net::PktBufPool& pool,
      Options opts = Options());

  // Adds one RX/TX descriptor-ring pair whose RX buffers come from
  // `pool`. Returns the new queue's index.
  u32 add_queue(net::PktBufPool& pool);

  // Delivery target for received, parsed packets (usually TcpStack::rx).
  // set_sink() wires queue 0 (and is the single-queue interface);
  // set_queue_sink() wires one specific queue.
  void set_sink(std::function<void(net::PktBuf*)> sink) {
    set_queue_sink(0, std::move(sink));
  }
  void set_queue_sink(u32 queue, std::function<void(net::PktBuf*)> sink);

  // net::NetIf
  void transmit(net::PktBuf* pb) override;
  [[nodiscard]] net::MacAddr mac() const noexcept override { return mac_; }

  // Whole-host fault injection (HostCut): a downed link transmits
  // nothing and drops every received frame, modelling a powered-off
  // host from the fabric's point of view. Stale timers on the dead
  // host may still call transmit(); their frames are silently eaten.
  void set_link_up(bool up) noexcept { link_up_ = up; }
  [[nodiscard]] bool link_up() const noexcept { return link_up_; }

  [[nodiscard]] u32 ip() const noexcept { return ip_; }
  [[nodiscard]] u32 num_queues() const noexcept {
    return static_cast<u32>(queues_.size());
  }

  // RSS steering decision for a 4-tuple as received by this NIC: the
  // Toeplitz hash indexes the indirection table.
  [[nodiscard]] u32 rx_queue_for(u32 src_ip, u32 dst_ip, u16 src_port,
                                 u16 dst_port) const noexcept {
    return indir_[rss_bucket_of(rss_toeplitz(src_ip, dst_ip, src_port,
                                             dst_port))];
  }

  // --- Indirection table (runtime RSS rebalancing) ----------------------
  // Remaps one flow group to `queue`. Takes effect for the next received
  // frame; the caller owns migrating the flows' TCP + store state (see
  // app::Rebalancer). Out-of-range queues are clamped.
  void set_indirection(u32 bucket, u32 queue);
  [[nodiscard]] u32 indirection(u32 bucket) const noexcept {
    return indir_[bucket % kIndirEntries];
  }
  [[nodiscard]] u64 indir_remaps() const noexcept { return indir_remaps_; }

  // Per-flow-group RX frame counts (TCP only — the steered traffic):
  // the load signal the rebalancer differentiates between rounds.
  [[nodiscard]] u64 bucket_rx_frames(u32 bucket) const noexcept {
    return bucket_rx_[bucket % kIndirEntries];
  }

  // Mirrors device-level drop/error/remap counters into a (host)
  // registry: nic.rx_drops / nic.rx_csum_errors / nic.indir_remaps.
  // Null = member counters only.
  void set_metrics(obs::MetricRegistry* r) {
    m_rx_drops_ = r != nullptr ? &r->counter("nic.rx_drops") : nullptr;
    m_rx_csum_err_ = r != nullptr ? &r->counter("nic.rx_csum_errors") : nullptr;
    m_indir_remaps_ = r != nullptr ? &r->counter("nic.indir_remaps") : nullptr;
  }
  // Mirrors one queue's frame counters into that queue's shard registry
  // as nic.rx_frames / nic.tx_frames (per-shard instances merge to the
  // device totals at report time).
  void set_queue_metrics(u32 queue, obs::MetricRegistry* r) {
    Queue& q = queues_.at(queue);
    q.m_rx_frames = r != nullptr ? &r->counter("nic.rx_frames") : nullptr;
    q.m_tx_frames = r != nullptr ? &r->counter("nic.tx_frames") : nullptr;
    q.m_sliced_frames =
        r != nullptr ? &r->counter("nic.sliced_frames") : nullptr;
  }

  // Stats.
  [[nodiscard]] u64 tx_frames() const noexcept { return tx_frames_; }
  [[nodiscard]] u64 rx_frames() const noexcept { return rx_frames_; }
  [[nodiscard]] u64 rx_drops() const noexcept { return rx_drops_; }
  [[nodiscard]] u64 rx_csum_errors() const noexcept { return rx_csum_errors_; }
  [[nodiscard]] u64 queue_rx_frames(u32 q) const noexcept {
    return q < queues_.size() ? queues_[q].rx_frames : 0;
  }
  [[nodiscard]] u64 queue_tx_frames(u32 q) const noexcept {
    return q < queues_.size() ? queues_[q].tx_frames : 0;
  }
  [[nodiscard]] u64 queue_sliced_frames(u32 q) const noexcept {
    return q < queues_.size() ? queues_[q].sliced_frames : 0;
  }

 private:
  struct Queue {
    net::PktBufPool* pool;
    std::function<void(net::PktBuf*)> sink;
    u64 rx_frames = 0;
    u64 tx_frames = 0;
    u64 sliced_frames = 0;  // RX frames delivered header-only
    obs::Counter* m_rx_frames = nullptr;
    obs::Counter* m_tx_frames = nullptr;
    obs::Counter* m_sliced_frames = nullptr;
  };

  void on_frame(const WireFrame& frame);
  // Restores the even default spread (entry i -> i % queues); called when
  // the queue set grows so explicit remaps only exist once traffic flows.
  void reset_indirection() noexcept;

  sim::Env& env_;
  Fabric& fabric_;
  u32 ip_;
  net::MacAddr mac_;
  Options opts_;
  std::vector<Queue> queues_;
  u16 indir_[kIndirEntries] = {};
  u64 bucket_rx_[kIndirEntries] = {};
  u64 indir_remaps_ = 0;
  SimTime link_free_at_ = 0;
  bool link_up_ = true;

  u64 tx_frames_ = 0;
  u64 rx_frames_ = 0;
  u64 rx_drops_ = 0;
  u64 rx_csum_errors_ = 0;
  obs::Counter* m_rx_drops_ = nullptr;
  obs::Counter* m_rx_csum_err_ = nullptr;
  obs::Counter* m_indir_remaps_ = nullptr;
};

}  // namespace papm::nic
