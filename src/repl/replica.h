// A backup host: its own PM device, packet pool, NIC, UDP stack and Homa
// endpoint, applying the primary's replication stream into a PktStore of
// its own — zero-copy, exactly as the primary ingests client segments
// (the delivered Homa packets' payload ranges go straight to put_pkts).
//
// Ordering: kData messages carry per-stream sequence numbers and are
// applied in contiguous order; out-of-order deliveries buffer until the
// gap fills. Acks are cumulative (highest contiguously *durable* seq),
// so a duplicated or replayed forward is ignored and simply re-acked —
// idempotent replay.
//
// Durability: applies ride the same group-commit epochs the server's
// datapath uses (FlushBatcher); the applied-seq high-water mark is
// published via the batcher's deferred-publication path, and the ack is
// released by on_committed — an acked seq is a durable seq, always.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/pktstore.h"
#include "net/homa.h"
#include "net/udp.h"
#include "nic/nic.h"
#include "obs/trace.h"
#include "pm/flush_batch.h"
#include "repl/repl.h"

namespace papm::repl {

struct ReplicaConfig {
  u32 ip = 0;
  u32 primary_ip = 0;
  u32 index = 0;  // replica ordinal; trace spans land on track
                  // obs::kReplicaTrackBase + index
  u64 pm_size = 64u << 20;
  ReplOptions opts;
  core::PktStoreOptions store_opts;
  nic::Nic::Options nic{};
};

class ReplicaNode {
 public:
  // Fresh replica: formats its own PM device.
  ReplicaNode(sim::Env& env, nic::Fabric& fabric, const ReplicaConfig& cfg);
  // Rejoin: adopts a device snapshot (PmDevice::clone_persisted() of the
  // dead host — what its DIMMs held) and recovers the store + applied
  // seq from it. Call resync via ReplGroup afterwards to converge.
  ReplicaNode(sim::Env& env, nic::Fabric& fabric, const ReplicaConfig& cfg,
              std::unique_ptr<pm::PmDevice> snapshot);

  ReplicaNode(const ReplicaNode&) = delete;
  ReplicaNode& operator=(const ReplicaNode&) = delete;

  // Fires when the heartbeat monitor declares the primary suspect (the
  // failover trigger); armed by monitor_primary().
  std::function<void()> on_primary_suspect;
  void monitor_primary();

  // Whole-host cut bookkeeping for harnesses: take the NIC off the
  // fabric and neutralize endpoint state so stale timers no-op.
  void kill();
  [[nodiscard]] bool alive() const noexcept { return alive_; }

  [[nodiscard]] u64 applied_seq() const noexcept { return applied_seq_; }
  [[nodiscard]] u64 durable_seq() const noexcept { return durable_seq_; }
  [[nodiscard]] u64 applies() const noexcept { return applies_; }
  [[nodiscard]] u64 resync_items() const noexcept { return resync_items_; }
  [[nodiscard]] u32 ip() const noexcept { return cfg_.ip; }

  [[nodiscard]] core::PktStore& store() { return *store_; }
  [[nodiscard]] pm::PmDevice& device() { return *dev_; }
  [[nodiscard]] net::HomaEndpoint& homa() { return *homa_; }
  [[nodiscard]] nic::Nic& nic() { return *nic_; }
  [[nodiscard]] obs::MetricRegistry& metrics() noexcept { return metrics_; }
  // Apply-path spans (Stage::repl_apply, one per traced mutation) on the
  // replica's own track; the harness merges this into the primary's log
  // so both hosts export as one stitched Perfetto trace.
  [[nodiscard]] obs::TraceLog& trace() noexcept { return trace_; }
  [[nodiscard]] const obs::TraceLog& trace() const noexcept { return trace_; }

  // Promotion: the node keeps serving its store; the group records the
  // choice. Nothing structural changes — reads go to store().
  void promote() noexcept { promoted_ = true; }
  [[nodiscard]] bool promoted() const noexcept { return promoted_; }

  // Snapshot re-sync source side: stream every key/value to `dst_ip`
  // (kSnapBegin, kSnapItem*, kSnapEnd) with `cut_seq` as the cut. Cold
  // path: items are copied bytes over ordinary Homa sends.
  void send_snapshot(u32 dst_ip, u64 cut_seq);

 private:
  void wire_up(nic::Fabric& fabric);
  void on_msg(net::HomaDelivery d);
  void apply_data(net::HomaDelivery& d);
  void apply_one(const net::HomaDelivery& d, OpKind op, std::string_view key,
                 std::size_t val_at, u32 val_len, u64 trace_id);
  void send_ack();
  void snap_item(const net::HomaDelivery& d);
  void snap_end(u64 cut_seq);

  sim::Env& env_;
  ReplicaConfig cfg_;
  std::unique_ptr<pm::PmDevice> dev_;
  std::optional<pm::PmPool> pm_pool_;
  std::optional<net::PmArena> arena_;
  std::optional<net::PktBufPool> pool_;
  std::optional<nic::Nic> nic_;
  std::optional<net::UdpStack> udp_;
  std::optional<net::HomaEndpoint> homa_;
  std::optional<core::PktStore> store_;
  std::optional<pm::FlushBatcher> batcher_;
  u64 applied_root_ = 0;  // device offset of the durable applied-seq word

  u64 applied_seq_ = 0;  // highest contiguously applied seq (volatile view)
  u64 durable_seq_ = 0;  // highest seq whose apply epoch committed
  u64 acked_seq_ = 0;    // last cumulative ack sent
  std::map<u64, net::HomaDelivery> pending_;  // out-of-order buffer
  SimTime last_hb_ = 0;
  bool monitor_armed_ = false;
  bool alive_ = true;
  bool promoted_ = false;
  bool suspect_fired_ = false;

  // Re-sync sink state.
  bool in_resync_ = false;
  std::vector<std::string> resync_keys_;

  u64 applies_ = 0;
  u64 resync_items_ = 0;
  obs::MetricRegistry metrics_;
  obs::TraceLog trace_;
  obs::Counter* m_applies_ = nullptr;
  obs::Counter* m_acks_tx_ = nullptr;
  obs::Counter* m_resync_items_ = nullptr;
};

}  // namespace papm::repl
