// Scale-out datapath (S1): pinned-core queueing, RSS steering balance,
// sharded-store correctness and recovery, and determinism + speedup of
// the multi-queue server.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "app/harness.h"
#include "core/pktstore.h"
#include "nic/nic.h"
#include "sim/cpu.h"

using namespace papm;

namespace {

// --- HostCpu pinned-core semantics -------------------------------------

TEST(HostCpuPinned, BacklogOnOneCoreDoesNotDelayAnother) {
  sim::Env env;
  sim::HostCpu cpu(env, 2);

  auto charge = [&](SimTime ns) {
    return [&env, ns] { env.clock().advance(ns); };
  };

  // Two work items pinned to core 0: the second queues behind the first.
  EXPECT_EQ(cpu.run_on(0, charge(1000)), 1000u);
  EXPECT_EQ(cpu.run_on(0, charge(1000)), 2000u);
  EXPECT_EQ(cpu.free_at(0), 2000u);

  // Core 1 is idle: work pinned there starts immediately despite core 0's
  // backlog — the per-core isolation the multi-queue datapath rests on.
  EXPECT_EQ(cpu.run_on(1, charge(500)), 500u);
  EXPECT_EQ(cpu.free_at(1), 500u);

  EXPECT_EQ(cpu.busy_ns(0), 2000u);
  EXPECT_EQ(cpu.busy_ns(1), 500u);
  EXPECT_EQ(cpu.busy_ns(), 2500u);

  // Earliest-free scheduling still works alongside pinning.
  EXPECT_EQ(cpu.run(charge(100)), 600u);  // picks core 1 (free at 500)
}

TEST(HostCpuPinned, PinWrapsAroundCoreCount) {
  sim::Env env;
  sim::HostCpu cpu(env, 2);
  auto charge = [&](SimTime ns) {
    return [&env, ns] { env.clock().advance(ns); };
  };
  // Core index 5 on a 2-core host lands on core 1.
  EXPECT_EQ(cpu.run_on(5, charge(300)), 300u);
  EXPECT_EQ(cpu.busy_ns(1), 300u);
  EXPECT_EQ(cpu.busy_ns(0), 0u);
}

TEST(HostCpuPinned, UnlimitedCpuIgnoresPinning) {
  sim::Env env;
  sim::HostCpu cpu(env, 0);  // the client machine
  auto charge = [&](SimTime ns) {
    return [&env, ns] { env.clock().advance(ns); };
  };
  // No queueing ever: both "pinned" items start at their arrival time.
  EXPECT_EQ(cpu.run_on(0, charge(1000)), 1000u);
  EXPECT_EQ(cpu.run_on(0, charge(1000)), 1000u);
}

// --- RSS steering -------------------------------------------------------

TEST(RssSteering, FlowsSpreadAcrossQueuesWithinImbalanceBound) {
  // 100 client connections as the harness creates them: one server
  // 4-tuple endpoint, consecutive client ephemeral ports.
  constexpr u32 kClientIp = 0x0a000001;
  constexpr u32 kServerIp = 0x0a000002;
  constexpr u16 kPort = 9000;
  constexpr u32 kQueues = 4;
  constexpr int kFlows = 100;

  std::vector<int> per_queue(kQueues, 0);
  for (int i = 0; i < kFlows; i++) {
    const u16 sport = static_cast<u16>(33000 + i);
    // Steering as the server NIC sees the flow: src = client.
    const u32 h = nic::rss_toeplitz(kClientIp, kServerIp, sport, kPort);
    per_queue[h % kQueues]++;
  }

  const int expected = kFlows / static_cast<int>(kQueues);
  for (u32 q = 0; q < kQueues; q++) {
    SCOPED_TRACE("queue " + std::to_string(q));
    // Within 2x of the even share, both ways — no starved or swamped
    // core for the bench's connection counts.
    EXPECT_LE(per_queue[q], 2 * expected);
    EXPECT_GE(per_queue[q], expected / 2);
  }
}

TEST(RssSteering, SameFlowAlwaysSameQueue) {
  const u32 a = nic::rss_toeplitz(0x0a000001, 0x0a000002, 40000, 9000);
  const u32 b = nic::rss_toeplitz(0x0a000001, 0x0a000002, 40000, 9000);
  EXPECT_EQ(a, b);
  // And distinct tuples do hash differently (sanity; not a guarantee).
  const u32 c = nic::rss_toeplitz(0x0a000001, 0x0a000002, 40001, 9000);
  EXPECT_NE(a, c);
}

// --- Multi-core server behaviour ---------------------------------------

app::RunConfig scaling_cfg(app::Backend backend, int cores) {
  app::RunConfig cfg;
  cfg.server.backend = backend;
  cfg.server_cores = cores;
  cfg.connections = 100;
  cfg.pm_size = 1u << 30;
  cfg.warmup_ns = 5 * kNsPerMs;
  cfg.measure_ns = 20 * kNsPerMs;
  cfg.keyspace = 2048;
  return cfg;
}

TEST(ScalingServer, FourCoresAtLeastTripleOneCoreRawPersist) {
  const auto one = app::run_experiment(scaling_cfg(app::Backend::raw_persist, 1));
  const auto four = app::run_experiment(scaling_cfg(app::Backend::raw_persist, 4));
  EXPECT_EQ(one.server_errors, 0u);
  EXPECT_EQ(four.server_errors, 0u);
  EXPECT_GE(four.kreq_per_s, 3.0 * one.kreq_per_s)
      << "1 core: " << one.kreq_per_s << " 4 cores: " << four.kreq_per_s;
}

TEST(ScalingServer, ThroughputMonotoneAcrossCoresAllBackends) {
  for (const auto backend : {app::Backend::lsm, app::Backend::pktstore}) {
    SCOPED_TRACE(std::string(to_string(backend)));
    double prev = 0.0;
    for (const int cores : {1, 2, 4}) {
      const auto r = app::run_experiment(scaling_cfg(backend, cores));
      EXPECT_EQ(r.server_errors, 0u) << cores << " cores";
      EXPECT_GT(r.kreq_per_s, prev) << cores << " cores";
      prev = r.kreq_per_s;
    }
  }
}

TEST(ScalingServer, SameSeedSameConfigBitIdenticalSummaries) {
  // The whole multi-queue pipeline — RSS steering, per-core busy-poll
  // loops, sharded stores — must stay deterministic: two runs of the
  // same seed and config agree on every summary number exactly.
  const auto cfg = scaling_cfg(app::Backend::pktstore, 4);
  auto a = app::run_experiment(cfg);
  auto b = app::run_experiment(cfg);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.server_errors, b.server_errors);
  EXPECT_EQ(a.kreq_per_s, b.kreq_per_s);        // exact, not near
  EXPECT_EQ(a.rtt.count(), b.rtt.count());
  EXPECT_EQ(a.rtt.mean(), b.rtt.mean());
  EXPECT_EQ(a.rtt.percentile(99), b.rtt.percentile(99));
  EXPECT_EQ(a.server_cpu_util, b.server_cpu_util);
}

TEST(ScalingServer, MixedReadWriteAcrossShardsServesCorrectValues) {
  // GETs on a sharded pktstore cross shards (the key directory routes
  // them to the last writer): a key PUT via
  // one ingress core must be readable via a connection landing on
  // another. The client verifies every GET body; early 404s (GET before
  // first PUT of a key) are the only tolerated errors.
  auto cfg = scaling_cfg(app::Backend::pktstore, 4);
  cfg.get_ratio = 0.5;
  cfg.keyspace = 512;  // revisit keys often: most GETs hit
  const auto r = app::run_experiment(cfg);
  EXPECT_GT(r.ops, 0u);
  EXPECT_LT(static_cast<double>(r.server_errors) / static_cast<double>(r.ops),
            0.1);
}

// --- Sharded pktstore recovery -----------------------------------------

TEST(ShardedPktStore, PerShardSkipListsMergeAtRecovery) {
  // Two datapath shards write disjoint key sets into their own stores
  // ("store", "store.s1") over their own PM pools on one device. After a
  // crash, recovering both shards yields the union — the per-shard skip
  // lists merged at recovery, as the scale-out index design requires.
  sim::Env env;
  pm::PmDevice dev(env, 64u << 20);
  const u64 base = dev.data_base();
  const u64 span = ((dev.size() - base) / 2) / kCacheLine * kCacheLine;

  auto pool_a = pm::PmPool::create(dev, "pkts", base, span);
  auto pool_b = pm::PmPool::create(dev, "pkts.s1", base + span, span);
  net::PmArena arena_a(dev, pool_a);
  net::PmArena arena_b(dev, pool_b);
  net::PktBufPool pkts_a(env, arena_a);
  net::PktBufPool pkts_b(env, arena_b);

  auto store_a = core::PktStore::create(pkts_a, "store");
  auto store_b = core::PktStore::create(pkts_b, "store.s1");

  std::map<std::string, std::vector<u8>> model;
  Rng rng(7);
  for (int i = 0; i < 40; i++) {
    std::vector<u8> v(64 + static_cast<std::size_t>(i) * 13);
    for (auto& byte : v) byte = static_cast<u8>(rng.next());
    const std::string key = "k" + std::to_string(i);
    auto& shard = (i % 2 == 0) ? store_a : store_b;
    ASSERT_TRUE(shard.put_bytes(key, v).ok());
    model[key] = std::move(v);
  }

  dev.crash();

  auto rp_a = pm::PmPool::recover(dev, "pkts");
  auto rp_b = pm::PmPool::recover(dev, "pkts.s1");
  ASSERT_TRUE(rp_a.ok());
  ASSERT_TRUE(rp_b.ok());
  net::PmArena rarena_a(dev, rp_a.value());
  net::PmArena rarena_b(dev, rp_b.value());
  net::PktBufPool rpkts_a(env, rarena_a);
  net::PktBufPool rpkts_b(env, rarena_b);
  auto rec_a = core::PktStore::recover(rpkts_a, "store");
  auto rec_b = core::PktStore::recover(rpkts_b, "store.s1");
  ASSERT_TRUE(rec_a.ok());
  ASSERT_TRUE(rec_b.ok());
  EXPECT_TRUE(rec_a->validate().ok());
  EXPECT_TRUE(rec_b->validate().ok());

  // Merge the two recovered indexes (scan is ordered; keys disjoint).
  std::map<std::string, u64> merged;
  for (auto* rec : {&rec_a.value(), &rec_b.value()}) {
    rec->scan("", "", [&](std::string_view k, const core::PktStore::ValueMeta& m) {
      merged.emplace(std::string(k), m.len);
      return true;
    });
  }
  ASSERT_EQ(merged.size(), model.size());
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(merged.contains(k)) << k;
    EXPECT_EQ(merged[k], v.size()) << k;
    auto* rec = (merged[k] != 0 && rec_a->get(k).ok()) ? &rec_a.value()
                                                       : &rec_b.value();
    EXPECT_EQ(rec->get(k).value(), v) << k;
  }
}

}  // namespace
