// Shard-load monitor and flow-group migration (scale-out rebalancing).
//
// The static Toeplitz spread is only as good as the hash: with few
// connections (or a skewed port draw) whole flow groups pile onto one
// queue and the pinned-shard design turns the hottest core into the
// clock for the whole host (EXPERIMENTS.md S1 capped at 3.85x on 4
// cores). Real deployments fix this in the NIC: remap entries of the RSS
// indirection table (ETHTOOL_SRXFHINDIR) so a hot queue sheds flow
// groups to a cold one.
//
// In this stack a queue is not just a queue — it is a *shard*: a pinned
// TCP stack, a private packet pool, and a store slice. So a remap must
// carry the group's connection state across stacks (TcpStack::
// extract/adopt) and re-home its server-side residency
// (KvServer::on_flow_migrated), and it must first retire the source
// shard's open group-commit epoch (KvServer::close_epoch) so deferred
// publications and held acks drain before any request is processed on
// the new core — no in-flight request is dropped or reordered.
//
// The whole migration executes inside one simulator event: the NIC reads
// the indirection table at frame arrival and HostCpu::run_on is
// synchronous, so no packet can interleave with a half-moved group.
//
// Monitor policy: every kTickNs the rebalancer diffs the NIC's
// per-entry frame counters, sums them into per-queue loads, and — when
// max/mean exceeds trigger_ratio — greedily moves the hottest queue's
// largest bucket that fits in half the hot/cold gap (never overshoots)
// to the coldest queue, up to kMaxMovesPerRound per tick.
#pragma once

#include "app/host.h"
#include "app/server.h"

namespace papm::app {

struct RebalanceConfig {
  double trigger_ratio = 1.15;      // max/mean per-queue load to act on
  u64 min_frames_per_round = 256;   // ignore idle/noise intervals
};

class Rebalancer {
 public:
  Rebalancer(Host& host, KvServer& server, RebalanceConfig cfg = {});

  // Schedules the periodic monitor tick. stop() lets a pending tick
  // no-op; the Rebalancer must outlive the simulation run either way.
  void start();
  void stop() noexcept { running_ = false; }

  // Remaps `bucket` from queue `from` to queue `to` and migrates every
  // connection of that flow group. Exposed for targeted tests; tick()
  // calls this with monitor-chosen buckets.
  void migrate_bucket(u32 bucket, u32 from, u32 to);

  [[nodiscard]] u64 rounds() const noexcept { return rounds_; }
  [[nodiscard]] u64 bucket_moves() const noexcept { return bucket_moves_; }
  [[nodiscard]] u64 conns_moved() const noexcept { return conns_moved_; }

 private:
  static constexpr SimTime kTickNs = 2'000'000;  // monitor tick (2 ms)
  static constexpr u32 kMaxMovesPerRound = 4;
  // EWMA smoothing of per-bucket loads across ticks. Poisson arrivals
  // make a single 2 ms interval noisy (at 100 kreq/s a 4-queue spread
  // jitters past trigger_ratio constantly); acting on the smoothed load
  // means only persistent skew — not one interval's draw — triggers a
  // migration. 1.0 = no smoothing (act on the raw interval).
  static constexpr double kEwmaAlpha = 0.25;
  // Modeled per-connection handoff cost, charged once to the source core
  // (detach, cache handoff) and once to the destination (adopt).
  static constexpr SimTime kPerConnHandoffNs = 400;

  void tick();

  Host& host_;
  KvServer& server_;
  RebalanceConfig cfg_;
  bool running_ = false;
  u64 rounds_ = 0;
  u64 bucket_moves_ = 0;
  u64 conns_moved_ = 0;
  u64 last_bucket_rx_[nic::Nic::kIndirEntries] = {};
  double ewma_[nic::Nic::kIndirEntries] = {};
  bool ewma_seeded_ = false;
  obs::Counter* m_rounds_ = nullptr;
  obs::Counter* m_moves_ = nullptr;
  obs::Counter* m_conns_moved_ = nullptr;
};

}  // namespace papm::app
