// A simulated machine: CPU cores, packet memory (DRAM or PM), NIC and
// TCP stack, wired to a fabric.
//
// Scale-out shape (S1): a host with N cores runs N independent
// *datapath shards*, one per NIC queue — a pinned core busy-polling its
// own RX/TX descriptor ring, a private PktBufPool over a private PM
// arena shard, and a private TcpStack instance. The NIC's RSS engine
// steers each flow to one queue, so on the hot path no packet buffer,
// TCP connection or pool freelist is ever shared between cores; the
// only shared resources are the wire itself and the PM device capacity.
// With one core (the paper's configuration) this degenerates to exactly
// the single-queue datapath of the Figure 2 experiments.
#pragma once

#include <deque>
#include <memory>
#include <optional>

#include "net/tcp.h"
#include "net/udp.h"
#include "nic/nic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/cpu.h"

namespace papm::app {

struct HostConfig {
  u32 ip = 0;
  // Server: busy-polling cores, one datapath shard each (the paper's
  // configuration is cores = 1). Client: cores = 0 models the multi-core
  // client machine whose queueing the paper does not account to the
  // server — it gets a single unpinned datapath. One NIC RX/TX queue
  // pair per shard.
  int cores = 1;
  bool busy_poll = false;
  // Packet buffers in PM (PASTE) vs DRAM.
  bool pm_backed = false;
  u64 pm_size = 512u << 20;
  nic::Nic::Options nic;
  u32 rcv_buf = 1 << 20;
};

class Host {
 public:
  Host(sim::Env& env, nic::Fabric& fabric, const HostConfig& cfg)
      : env_(env), cpu_(env, cfg.cores) {
    const u32 nshards = static_cast<u32>(std::max(1, cfg.cores));
    for (u32 i = 0; i < nshards; i++) {
      shards_.emplace_back();
      shards_.back().trace.set_track(i);
    }

    if (cfg.pm_backed) {
      pm_dev_.emplace(env, cfg.pm_size);
      pm_dev_->set_metrics(&host_metrics_);
      // Carve the device's data area into per-shard pool spans.
      const u64 base = pm_dev_->data_base();
      const u64 span =
          ((cfg.pm_size - base) / nshards) / kCacheLine * kCacheLine;
      for (u32 i = 0; i < nshards; i++) {
        Shard& sh = shards_[i];
        sh.pm_pool.emplace(pm::PmPool::create(
            *pm_dev_, i == 0 ? std::string("pkts") : "pkts.s" + std::to_string(i),
            base + i * span, span));
        // Packet pools are freelists, not general allocators (§4.2).
        sh.pm_pool->set_charges(env.cost.pool_alloc_ns,
                                env.cost.pool_alloc_ns / 2);
        sh.pm_arena.emplace(*pm_dev_, *sh.pm_pool);
        sh.arena = &*sh.pm_arena;
      }
    } else {
      for (auto& sh : shards_) {
        sh.heap_arena.emplace(env);
        sh.arena = &*sh.heap_arena;
      }
    }

    for (u32 i = 0; i < nshards; i++) {
      shards_[i].pool.emplace(env, *shards_[i].arena);
    }
    nic_.emplace(env, fabric, cfg.ip, *shards_[0].pool, cfg.nic);
    for (u32 i = 1; i < nshards; i++) nic_->add_queue(*shards_[i].pool);
    nic_->set_metrics(&host_metrics_);
    for (u32 i = 0; i < nshards; i++) {
      nic_->set_queue_metrics(i, &shards_[i].metrics);
    }

    for (u32 i = 0; i < nshards; i++) {
      net::TcpStack::Options so;
      so.ip = cfg.ip;
      so.busy_poll = cfg.busy_poll;
      so.csum_offload_tx = cfg.nic.csum_offload_tx;
      so.rcv_buf = cfg.rcv_buf;
      // Distinct ephemeral ranges keep active opens collision-free.
      so.ephemeral_base = static_cast<u16>(33000 + 2000 * i);
      // Pin each shard to its core only in the multi-queue regime; the
      // single-queue datapath keeps the classic earliest-free scheduling
      // (bit-identical to the paper-configuration experiments).
      so.core = nshards > 1 ? static_cast<int>(i) : -1;
      so.metrics = &shards_[i].metrics;
      shards_[i].stack.emplace(env, *nic_, *shards_[i].pool, so);
      shards_[i].stack->attach_cpu(cpu_);
    }

    net::UdpStack::Options uo;
    uo.ip = cfg.ip;
    uo.kernel_bypass = cfg.busy_poll;  // bypass hosts poll datagrams too
    uo.csum_offload_tx = cfg.nic.csum_offload_tx;
    udp_.emplace(env, *nic_, *shards_[0].pool, uo);
    udp_->attach_cpu(cpu_);

    for (u32 i = 0; i < nshards; i++) {
      nic_->set_queue_sink(i, [this, i](net::PktBuf* pb) {
        if (pb->l4_proto == net::kIpProtoUdp) {
          udp_->rx(pb);  // datagrams are steered to queue 0
        } else {
          shards_[i].stack->rx(pb);
        }
      });
    }
  }

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] sim::Env& env() noexcept { return env_; }
  [[nodiscard]] sim::HostCpu& cpu() noexcept { return cpu_; }
  // Datapath shards. The index-less accessors return shard 0 — the whole
  // host on a single-queue machine.
  [[nodiscard]] u32 datapaths() const noexcept {
    return static_cast<u32>(shards_.size());
  }
  [[nodiscard]] net::PktBufPool& pool(u32 shard = 0) noexcept {
    return *shards_[shard].pool;
  }
  [[nodiscard]] net::TcpStack& stack(u32 shard = 0) noexcept {
    return *shards_[shard].stack;
  }
  [[nodiscard]] pm::PmPool& pm_pool(u32 shard = 0) { return *shards_[shard].pm_pool; }
  [[nodiscard]] net::UdpStack& udp() noexcept { return *udp_; }
  [[nodiscard]] nic::Nic& nic() noexcept { return *nic_; }
  [[nodiscard]] bool pm_backed() const noexcept { return pm_dev_.has_value(); }
  [[nodiscard]] pm::PmDevice& pm_device() { return *pm_dev_; }

  // --- Observability ----------------------------------------------------
  // Shared-nothing like the datapath: one registry + trace log per shard,
  // plus a host-level registry for shard-less subsystems (the PM device,
  // NIC drop counters). Merge at report time only.
  [[nodiscard]] obs::MetricRegistry& metrics(u32 shard = 0) noexcept {
    return shards_[shard].metrics;
  }
  [[nodiscard]] obs::MetricRegistry& host_metrics() noexcept {
    return host_metrics_;
  }
  [[nodiscard]] obs::TraceLog& trace(u32 shard = 0) noexcept {
    return shards_[shard].trace;
  }
  // Report-time views: a fresh registry/log holding the merge of the
  // host-level registry and every shard.
  [[nodiscard]] obs::MetricRegistry merged_metrics() const {
    obs::MetricRegistry m;
    m.merge_from(host_metrics_);
    for (const auto& sh : shards_) m.merge_from(sh.metrics);
    return m;
  }
  [[nodiscard]] obs::TraceLog merged_trace() const {
    obs::TraceLog t;
    for (const auto& sh : shards_) t.merge_from(sh.trace);
    return t;
  }
  // Warmup/measure boundary: zero every value, keep registrations (and
  // the pointers subsystems cached) valid; drop recorded spans.
  void reset_obs() noexcept {
    host_metrics_.reset_values();
    for (auto& sh : shards_) {
      sh.metrics.reset_values();
      sh.trace.clear();
    }
    if (pm_dev_.has_value()) pm_dev_->obs_begin_epoch();
  }

 private:
  struct Shard {
    std::optional<pm::PmPool> pm_pool;
    std::optional<net::PmArena> pm_arena;
    std::optional<net::HeapArena> heap_arena;
    net::BufArena* arena = nullptr;
    std::optional<net::PktBufPool> pool;
    std::optional<net::TcpStack> stack;
    obs::MetricRegistry metrics;
    obs::TraceLog trace;
  };

  sim::Env& env_;
  sim::HostCpu cpu_;
  obs::MetricRegistry host_metrics_;
  std::optional<pm::PmDevice> pm_dev_;
  std::deque<Shard> shards_;  // deque: Shard is pinned (non-movable)
  std::optional<nic::Nic> nic_;
  std::optional<net::UdpStack> udp_;
};

}  // namespace papm::app
