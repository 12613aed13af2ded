// Network fabric: the cable + switch connecting the simulated NICs.
//
// Stands in for the testbed's 25 GbE switch (DESIGN.md §2). Frames are
// raw byte vectors (the wire format); the fabric routes them by
// destination IP, charging propagation delay and optionally injecting
// loss, duplication, delay and reordering for the transport-robustness
// experiments (M1) and the replication availability experiments (A4).
//
// Determinism: fault draws come from per-link RNGs seeded from
// FabricOptions::seed ^ dst_ip — the same philosophy as pm::FaultPlan,
// whose draws never consume from env.rng so that injecting a fault
// cannot perturb the workload stream. Two runs with the same seed see
// the same losses regardless of what else the simulation does.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/env.h"

namespace papm::nic {

struct WireFrame {
  std::vector<u8> bytes;
  SimTime tx_hw_tstamp = 0;
};

struct FabricOptions {
  double loss_p = 0.0;            // i.i.d. frame loss probability
  double dup_p = 0.0;             // probability of delivering a frame twice
  SimTime delay_ns = 0;           // fixed extra one-way latency per frame
  double reorder_p = 0.0;         // probability of delaying a frame
  SimTime reorder_jitter_ns = 20 * kNsPerUs;  // extra delay when reordered
  double corrupt_p = 0.0;         // probability of flipping one bit
  u64 seed = 0x5eedfabULL;        // per-link fault RNG seed (FaultPlan-style)
};

class Fabric {
 public:
  using Options = FabricOptions;

  explicit Fabric(sim::Env& env, Options opts = Options()) : env_(&env), opts_(opts) {}

  // Registers a port: frames whose IP destination equals `ip` are
  // delivered to `deliver`. The frame is only valid during the call: its
  // byte vector goes back to the fabric's spare list afterwards.
  using Deliver = std::function<void(const WireFrame&)>;
  void attach(u32 ip, Deliver deliver);

  // An empty byte vector for a new frame, reusing the capacity of a
  // delivered frame when one is spare (so steady-state traffic allocates
  // no frame buffers).
  [[nodiscard]] std::vector<u8> take_buffer();

  // Injects a frame from a NIC. `depart_at` is when the last bit leaves
  // the sender (the NIC handles link serialization); delivery happens
  // after propagation + the link's fixed delay (+ jitter if reordered).
  void inject(u32 dst_ip, WireFrame frame, SimTime depart_at);

  [[nodiscard]] u64 delivered() const noexcept { return delivered_; }
  [[nodiscard]] u64 dropped() const noexcept { return dropped_; }
  [[nodiscard]] u64 duplicated() const noexcept { return duplicated_; }
  [[nodiscard]] u64 reordered() const noexcept { return reordered_; }
  [[nodiscard]] u64 corrupted() const noexcept { return corrupted_; }

  void set_options(Options opts) noexcept { opts_ = opts; }

  // Per-link fault plan: frames *towards* `dst_ip` use `opts` instead of
  // the fabric-wide options. Lets a test lossy-up one replica's ingress
  // while the rest of the cluster stays clean.
  void set_link_fault(u32 dst_ip, Options opts) { link_opts_[dst_ip] = opts; }
  void clear_link_fault(u32 dst_ip) { link_opts_.erase(dst_ip); }

  // Test-only targeted drop: return true to eat the frame (counted as a
  // drop, no RNG consumed). Used by the Homa retransmit tests to kill
  // one specific packet (e.g. the first grant, or the last segment).
  using DropHook = std::function<bool(u32 dst_ip, const WireFrame&)>;
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

 private:
  Rng& link_rng(u32 dst_ip, u64 seed);
  void schedule_delivery(SimTime at, const Deliver& deliver, WireFrame frame);
  void recycle(std::vector<u8>&& bytes);

  // Spare frame buffers kept at most; beyond it delivered buffers are
  // freed (bounds the pool after a burst).
  static constexpr std::size_t kMaxSpare = 1024;

  sim::Env* env_;
  Options opts_;
  std::unordered_map<u32, Deliver> ports_;
  std::vector<std::vector<u8>> spare_;
  std::unordered_map<u32, Options> link_opts_;
  std::unordered_map<u64, Rng> link_rng_;  // (seed ^ mixed dst) -> stream
  DropHook drop_hook_;
  u64 delivered_ = 0;
  u64 dropped_ = 0;
  u64 duplicated_ = 0;
  u64 reordered_ = 0;
  u64 corrupted_ = 0;
};

}  // namespace papm::nic
