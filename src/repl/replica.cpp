#include "repl/replica.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "repl/replicator.h"

namespace papm::repl {

ReplicaNode::ReplicaNode(sim::Env& env, nic::Fabric& fabric,
                         const ReplicaConfig& cfg)
    : env_(env), cfg_(cfg) {
  dev_ = std::make_unique<pm::PmDevice>(env, cfg.pm_size);
  const u64 base = dev_->data_base();
  const u64 span = (cfg.pm_size - base - kCacheLine) / kCacheLine * kCacheLine;
  pm_pool_.emplace(pm::PmPool::create(*dev_, "pkts", base, span));
  pm_pool_->set_charges(env.cost.pool_alloc_ns, env.cost.pool_alloc_ns / 2);
  wire_up(fabric);
  auto root = pm_pool_->alloc(kCacheLine);
  if (!root.ok()) throw std::runtime_error("ReplicaNode: no PM for root");
  applied_root_ = root.value();
  dev_->store_u64(applied_root_, 0);
  dev_->persist(applied_root_, 8);
  (void)dev_->set_root("repl.applied", applied_root_);
  store_.emplace(core::PktStore::create(*pool_, "repl-store", cfg.store_opts));
  store_->set_batcher(*batcher_);
}

ReplicaNode::ReplicaNode(sim::Env& env, nic::Fabric& fabric,
                         const ReplicaConfig& cfg,
                         std::unique_ptr<pm::PmDevice> snapshot)
    : env_(env), cfg_(cfg), dev_(std::move(snapshot)) {
  auto pool = pm::PmPool::recover(*dev_, "pkts");
  if (!pool.ok()) throw std::runtime_error("ReplicaNode: pool recover failed");
  pm_pool_.emplace(std::move(pool.value()));
  pm_pool_->set_charges(env.cost.pool_alloc_ns, env.cost.pool_alloc_ns / 2);
  wire_up(fabric);
  auto root = dev_->get_root("repl.applied");
  if (!root.ok()) throw std::runtime_error("ReplicaNode: no applied root");
  applied_root_ = root.value();
  applied_seq_ = durable_seq_ = acked_seq_ = dev_->load_u64(applied_root_);
  auto st = core::PktStore::recover(*pool_, "repl-store", cfg.store_opts);
  if (!st.ok()) throw std::runtime_error("ReplicaNode: store recover failed");
  store_.emplace(std::move(st.value()));
  store_->set_batcher(*batcher_);
}

void ReplicaNode::wire_up(nic::Fabric& fabric) {
  // Apply epochs close inline: a backup charges no core for them.
  batcher_.emplace(*dev_);
  batcher_->register_pool(*pm_pool_);
  arena_.emplace(*dev_, *pm_pool_);
  pool_.emplace(env_, *arena_);
  nic_.emplace(env_, fabric, cfg_.ip, *pool_, cfg_.nic);
  net::UdpStack::Options uo;
  uo.ip = cfg_.ip;
  uo.kernel_bypass = true;
  uo.csum_offload_tx = cfg_.nic.csum_offload_tx;
  udp_.emplace(env_, *nic_, *pool_, uo);
  nic_->set_sink([this](net::PktBuf* pb) { udp_->rx(pb); });
  homa_.emplace(*udp_, cfg_.opts.port, cfg_.opts.homa);
  homa_->on_message = [this](net::HomaDelivery d) { on_msg(std::move(d)); };
  m_applies_ = &metrics_.counter("repl.applies");
  m_acks_tx_ = &metrics_.counter("repl.acks_tx");
  m_resync_items_ = &metrics_.counter("repl.resync_items");
  trace_.set_track(obs::kReplicaTrackBase + cfg_.index);
}

void ReplicaNode::kill() {
  alive_ = false;
  nic_->set_link_up(false);
  homa_->abandon();
  // The open apply epoch dies with the host: none of its writes may
  // become durable after the cut.
  batcher_->abandon();
  dev_->clear_fault_plan();
  for (auto& [seq, d] : pending_) release_delivery(d);
  pending_.clear();
}

void ReplicaNode::monitor_primary() {
  last_hb_ = env_.now();
  if (monitor_armed_) return;
  monitor_armed_ = true;
  const SimTime period = cfg_.opts.hb_timeout_ns / 2;
  // Self-rescheduling liveness probe: fires until the node dies, is
  // promoted, or has declared the primary suspect.
  struct Rearm {
    ReplicaNode* n;
    SimTime period;
    void operator()() const {
      ReplicaNode* node = n;
      if (!node->alive_ || node->promoted_ || node->suspect_fired_) {
        node->monitor_armed_ = false;
        return;
      }
      if (node->env_.now() - node->last_hb_ > node->cfg_.opts.hb_timeout_ns) {
        node->suspect_fired_ = true;
        node->monitor_armed_ = false;
        if (node->on_primary_suspect) node->on_primary_suspect();
        return;
      }
      node->env_.engine.schedule_in(period, Rearm{node, period});
    }
  };
  env_.engine.schedule_in(period, Rearm{this, period});
}

void ReplicaNode::on_msg(net::HomaDelivery d) {
  if (!alive_ || d.total_len == 0) {
    release_delivery(d);
    return;
  }
  // Header parsing only — the value bytes are never flattened; they go to
  // the store zero-copy as delivered-packet byte ranges.
  const auto head = delivery_head(d, 1);
  switch (static_cast<MsgKind>(head[0])) {
    case MsgKind::data:
      apply_data(d);
      return;  // apply_data owns the delivery
    case MsgKind::heartbeat:
      last_hb_ = env_.now();
      break;
    case MsgKind::snap_begin:
      in_resync_ = true;
      resync_keys_.clear();
      break;
    case MsgKind::snap_item:
      snap_item(d);
      break;
    case MsgKind::snap_end: {
      const auto ctl = delivery_head(d, kCtlLen);
      snap_end(get_u64(ctl.data() + 8));
      break;
    }
    case MsgKind::ack:
      break;  // primary-side message; not ours
  }
  release_delivery(d);
}

void ReplicaNode::apply_data(net::HomaDelivery& d) {
  const u64 seq = get_u64(delivery_head(d, kDataHdrLen).data() + 8);
  if (seq <= applied_seq_) {
    // Idempotent replay: a duplicated or retransmitted forward for an
    // already-applied seq is dropped and the cumulative ack repeated
    // (the original ack may have been lost).
    release_delivery(d);
    acked_seq_ = 0;  // force the re-ack even at an unchanged durable seq
    send_ack();
    return;
  }
  if (seq != applied_seq_ + 1) {
    // Out of order: hold until the gap fills.
    if (!pending_.contains(seq)) {
      pending_.emplace(seq, std::move(d));
    } else {
      release_delivery(d);
    }
    return;
  }
  // Apply this delivery, then every buffered successor it made
  // contiguous.
  net::HomaDelivery next = std::move(d);
  for (;;) {
    const auto hdr = delivery_head(next, kDataHdrLen);
    const u16 key_len = get_u16(hdr.data() + 2);
    const auto full = delivery_head(next, kDataHdrLen + key_len);
    const std::string key(
        reinterpret_cast<const char*>(full.data()) + kDataHdrLen, key_len);
    apply_one(next, static_cast<OpKind>(hdr[1]), key, kDataHdrLen + key_len,
              get_u32(hdr.data() + 4), get_u64(hdr.data() + 16));
    release_delivery(next);
    const auto it = pending_.find(applied_seq_ + 1);
    if (it == pending_.end()) return;
    next = std::move(it->second);
    pending_.erase(it);
  }
}

void ReplicaNode::apply_one(const net::HomaDelivery& d, OpKind op,
                            std::string_view key, std::size_t val_at,
                            u32 val_len, u64 trace_id) {
  const u64 seq = applied_seq_ + 1;
  const SimTime t_apply = env_.now();
  batcher_->begin_op(true, static_cast<u64>(env_.now()));
  store_->set_batched(batcher_->batching());
  if (op == OpKind::put) {
    // The value's byte ranges within the delivered packets, zero-copy:
    // skip the replication header + key, take val_len bytes.
    std::vector<net::PktBuf*> pkts;
    std::vector<u32> offs, lens;
    std::size_t skip = val_at;
    u64 remaining = val_len;
    for (std::size_t i = 0; i < d.pkts.size() && remaining > 0; i++) {
      if (skip >= d.lens[i]) {
        skip -= d.lens[i];
        continue;
      }
      const u32 take = static_cast<u32>(
          std::min<u64>(d.lens[i] - skip, remaining));
      pkts.push_back(d.pkts[i]);
      offs.push_back(d.offs[i] + static_cast<u32>(skip));
      lens.push_back(take);
      remaining -= take;
      skip = 0;
    }
    (void)store_->put_pkts(key, pkts, offs, lens, nullptr);
  } else {
    (void)store_->erase(key);
  }
  applied_seq_ = seq;
  applies_++;
  obs::inc(m_applies_);
  if (trace_id != 0) {
    // Stamp the apply span with the primary's trace id: after the
    // harness merges this log into the primary's, the span renders as a
    // cross-track child of the same request in Perfetto.
    trace_.record(trace_id, obs::Stage::repl_apply, t_apply,
                  env_.now() - t_apply);
  }
  // Deferred publication: the applied-seq word can never be durable
  // before the content it covers; the ack rides the epoch's commit.
  batcher_->publish_u64(applied_root_, seq);
  batcher_->on_committed([this, seq] {
    durable_seq_ = std::max(durable_seq_, seq);
    send_ack();
  });
  batcher_->end_op();
}

void ReplicaNode::send_ack() {
  if (!alive_ || durable_seq_ == acked_seq_) return;
  acked_seq_ = durable_seq_;
  homa_->send_msg(cfg_.primary_ip, cfg_.opts.port,
                  encode_ctl(MsgKind::ack, durable_seq_));
  obs::inc(m_acks_tx_);
}

void ReplicaNode::snap_item(const net::HomaDelivery& d) {
  if (!in_resync_) return;
  const auto hdr = delivery_head(d, kSnapItemHdrLen);
  const u16 key_len = get_u16(hdr.data() + 2);
  const u32 val_len = get_u32(hdr.data() + 4);
  const auto all = delivery_head(d, kSnapItemHdrLen + key_len + val_len);
  const std::string key(reinterpret_cast<const char*>(all.data()) +
                            kSnapItemHdrLen,
                        key_len);
  const std::span<const u8> val(all.data() + kSnapItemHdrLen + key_len,
                                val_len);
  (void)store_->put_bytes(key, val, nullptr);
  resync_keys_.push_back(key);
  resync_items_++;
  obs::inc(m_resync_items_);
}

void ReplicaNode::snap_end(u64 cut_seq) {
  if (!in_resync_) return;
  in_resync_ = false;
  // Keys the snapshot did not carry were erased on the primary while we
  // were down: drop them so the stores converge.
  std::set<std::string> keep(resync_keys_.begin(), resync_keys_.end());
  std::vector<std::string> stale;
  store_->scan("", "", [&](std::string_view k, const core::PktStore::ValueMeta&) {
    if (!keep.contains(std::string(k))) stale.emplace_back(k);
    return true;
  });
  for (const auto& k : stale) store_->erase(k);
  resync_keys_.clear();
  applied_seq_ = std::max(applied_seq_, cut_seq);
  dev_->store_u64(applied_root_, applied_seq_);
  dev_->persist(applied_root_, 8);
  durable_seq_ = applied_seq_;
  acked_seq_ = 0;  // force the post-resync ack
  send_ack();
}

void ReplicaNode::send_snapshot(u32 dst_ip, u64 cut_seq) {
  repl::send_snapshot(*homa_, *store_, dst_ip, cfg_.opts.port, cut_seq);
}

}  // namespace papm::repl
