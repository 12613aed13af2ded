#include "nic/fabric.h"

namespace papm::nic {

void Fabric::attach(u32 ip, Deliver deliver) {
  ports_[ip] = std::move(deliver);
}

std::vector<u8> Fabric::take_buffer() {
  if (spare_.empty()) return {};
  std::vector<u8> bytes = std::move(spare_.back());
  spare_.pop_back();
  return bytes;
}

void Fabric::recycle(std::vector<u8>&& bytes) {
  if (spare_.size() >= kMaxSpare) return;
  bytes.clear();
  spare_.push_back(std::move(bytes));
}

void Fabric::schedule_delivery(SimTime at, const Deliver& deliver,
                               WireFrame frame) {
  // 48 bytes of captures: fits the engine's inline callback slot.
  env_->engine.schedule_at(
      at, [this, &deliver, f = std::move(frame)]() mutable {
        deliver(f);
        recycle(std::move(f.bytes));
      });
}

Rng& Fabric::link_rng(u32 dst_ip, u64 seed) {
  // One independent stream per (seed, link): splitmix the pair so links
  // with adjacent IPs don't see correlated draws.
  u64 mix = seed ^ (static_cast<u64>(dst_ip) + 0x9e3779b97f4a7c15ULL);
  const u64 key = splitmix64(mix);
  auto it = link_rng_.find(key);
  if (it == link_rng_.end()) it = link_rng_.emplace(key, Rng(key)).first;
  return it->second;
}

void Fabric::inject(u32 dst_ip, WireFrame frame, SimTime depart_at) {
  auto it = ports_.find(dst_ip);
  if (it == ports_.end()) {  // no route: silently dropped
    recycle(std::move(frame.bytes));
    return;
  }

  if (drop_hook_ && drop_hook_(dst_ip, frame)) {
    dropped_++;
    recycle(std::move(frame.bytes));
    return;
  }

  const auto lo = link_opts_.find(dst_ip);
  const Options& o = lo != link_opts_.end() ? lo->second : opts_;
  const bool draws = o.loss_p > 0 || o.dup_p > 0 || o.reorder_p > 0 ||
                     o.corrupt_p > 0;
  // Faults draw from the link's own stream, never env->rng: a lossy link
  // must not perturb the workload RNG (same contract as pm::FaultPlan).
  Rng* rng = draws ? &link_rng(dst_ip, o.seed) : nullptr;

  if (o.loss_p > 0 && rng->chance(o.loss_p)) {
    dropped_++;
    recycle(std::move(frame.bytes));
    return;
  }
  if (o.corrupt_p > 0 && !frame.bytes.empty() && rng->chance(o.corrupt_p)) {
    // Silent single-bit corruption; checksums must catch it downstream.
    const u64 byte = rng->next_below(frame.bytes.size());
    frame.bytes[byte] ^= static_cast<u8>(1u << rng->next_below(8));
    corrupted_++;
  }
  SimTime arrive = depart_at + env_->cost.scaled(env_->cost.fabric_propagation_ns) +
                   o.delay_ns;
  if (o.reorder_p > 0 && rng->chance(o.reorder_p)) {
    reordered_++;
    arrive += static_cast<SimTime>(rng->next_double() *
                                   static_cast<double>(o.reorder_jitter_ns));
  }
  auto& deliver = it->second;
  if (o.dup_p > 0 && rng->chance(o.dup_p)) {
    // The switch replays the frame one propagation later (models a
    // flapping LAG member re-forwarding). Receivers must dedup.
    duplicated_++;
    delivered_++;
    WireFrame dup{take_buffer(), frame.tx_hw_tstamp};
    dup.bytes.assign(frame.bytes.begin(), frame.bytes.end());
    schedule_delivery(
        arrive + env_->cost.scaled(env_->cost.fabric_propagation_ns), deliver,
        std::move(dup));
  }
  delivered_++;
  schedule_delivery(arrive, deliver, std::move(frame));
}

}  // namespace papm::nic
