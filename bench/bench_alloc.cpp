// Micro M2: allocator unification (§4.2) — simulated cost of the general
// user-space PM allocator vs the packet-pool freelist, bump-region packing
// under mixed size classes, plus the real wall-clock cost of the pool's
// bookkeeping.
#include <benchmark/benchmark.h>

#include "net/pktbuf.h"

using namespace papm;

namespace {

// Simulated-time comparison (the Table 1 "buffer allocation" component).
void BM_SimPmAllocFree(benchmark::State& state) {
  sim::Env env;
  pm::PmDevice dev(env, 64u << 20);
  auto pool = pm::PmPool::create(dev, "p", dev.data_base(), (64u << 20) - 4096);
  const auto size = static_cast<u64>(state.range(0));
  SimTime total = 0;
  u64 ops = 0;
  for (auto _ : state) {
    const SimTime t0 = env.now();
    auto r = pool.alloc(size);
    benchmark::DoNotOptimize(r);
    if (r.ok()) pool.free(r.value(), size);
    total += env.now() - t0;
    ops++;
  }
  state.counters["sim_ns_per_op"] =
      benchmark::Counter(static_cast<double>(total) / static_cast<double>(ops));
}
BENCHMARK(BM_SimPmAllocFree)->Arg(64)->Arg(1024)->Arg(4096);

void BM_SimPoolAllocFree(benchmark::State& state) {
  sim::Env env;
  pm::PmDevice dev(env, 64u << 20);
  auto pool = pm::PmPool::create(dev, "p", dev.data_base(), (64u << 20) - 4096);
  // Packet-pool pricing (§4.2 unification).
  pool.set_charges(env.cost.pool_alloc_ns, env.cost.pool_alloc_ns / 2);
  const auto size = static_cast<u64>(state.range(0));
  SimTime total = 0;
  u64 ops = 0;
  for (auto _ : state) {
    const SimTime t0 = env.now();
    auto r = pool.alloc(size);
    benchmark::DoNotOptimize(r);
    if (r.ok()) pool.free(r.value(), size);
    total += env.now() - t0;
    ops++;
  }
  state.counters["sim_ns_per_op"] =
      benchmark::Counter(static_cast<double>(total) / static_cast<double>(ops));
}
BENCHMARK(BM_SimPoolAllocFree)->Arg(64)->Arg(1024)->Arg(4096);

// Bump-region packing: a seeded run of fresh carves in mix512_open's class
// mix (two 64 B chain-metadata / node carves per 1 KB packet buffer, drawn
// at random), none freed. bump_bytes_per_carved_byte is how far the bump
// frontier moves per byte handed out: 1.00 when carves leave no padding.
// Wall-clock time is per batch of kCarves.
void BM_MixedClassCarve(benchmark::State& state) {
  constexpr int kCarves = 4096;
  constexpr u64 kDev = 8u << 20;
  double ratio = 0;
  for (auto _ : state) {
    sim::Env env;
    pm::PmDevice dev(env, kDev);
    auto pool = pm::PmPool::create(dev, "p", dev.data_base(),
                                   kDev - dev.data_base());
    Rng rng(1);
    u64 carved = 0;
    for (int i = 0; i < kCarves; i++) {
      const u64 size = rng.next_below(3) == 0 ? 1024 : 64;
      auto r = pool.alloc(size);
      benchmark::DoNotOptimize(r);
      if (r.ok()) carved += size;
    }
    ratio = static_cast<double>(pool.bump_used()) / static_cast<double>(carved);
  }
  state.SetItemsProcessed(state.iterations() * kCarves);
  state.counters["bump_bytes_per_carved_byte"] = ratio;
}
BENCHMARK(BM_MixedClassCarve);

// Real wall-clock: PktBuf metadata alloc/free/clone cycle.
void BM_PktBufAllocFree(benchmark::State& state) {
  sim::Env env;
  net::HeapArena arena(env);
  net::PktBufPool pool(env, arena);
  for (auto _ : state) {
    net::PktBuf* pb = pool.alloc(1514);
    benchmark::DoNotOptimize(pb);
    pool.free(pb);
  }
}
BENCHMARK(BM_PktBufAllocFree);

void BM_PktBufClone(benchmark::State& state) {
  sim::Env env;
  net::HeapArena arena(env);
  net::PktBufPool pool(env, arena);
  net::PktBuf* pb = pool.alloc(1514);
  for (auto _ : state) {
    net::PktBuf* c = pool.clone(*pb);
    benchmark::DoNotOptimize(c);
    pool.free(c);
  }
  pool.free(pb);
}
BENCHMARK(BM_PktBufClone);

}  // namespace

BENCHMARK_MAIN();
