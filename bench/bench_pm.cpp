// Micro M3: PM device layer — real wall-clock cost of the device model's
// own bookkeeping (google-benchmark). The simulated charges of these
// primitives are fixed by the cost model; what this measures is the host
// time the simulator spends per primitive, the per-layer wall-clock
// number for the PM device and group-commit layers:
//
//  * store + clwb + sfence of one line (the fence-per-op persist path);
//  * the first 8-byte store to each of 16 durable lines, clwb'd and
//    closed by one sfence: the store takes each line's pre-image and the
//    fence retires it;
//  * a FlushBatcher epoch close: content fence, deferred publications
//    applied, publication fence — drained while words are withheld;
//  * device construction at the per-host image size (512 MB);
//  * crash() with 0.1%, 1% and 10% of the pages touched, each holding one
//    unflushed line again per iteration (host cost should scale with the
//    lines not yet durable, not with the device size), and
//    clone_persisted() at the same fractions (scales with touched pages).
// Rows that hold pre-images report the device's count (preimage_lines,
// preimage_hwm) as counters; no metric registry mirrors it.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "pm/flush_batch.h"
#include "pm/pm_device.h"
#include "pm/pm_pool.h"

using namespace papm;

namespace {

using Clock = std::chrono::steady_clock;

constexpr u64 kImage = u64{512} << 20;  // per-host PM image (HostConfig)
constexpr u64 kPage = 4096;
// Lines the flush benches cycle over: 1 MB, so first-touch page faults
// amortise away and the steady-state bookkeeping is what is timed.
constexpr u64 kWorkingLines = (u64{1} << 20) / kCacheLine;

void BM_StoreClwbSfence(benchmark::State& state) {
  sim::Env env;
  pm::PmDevice dev(env, u64{16} << 20);
  const std::vector<u8> line(kCacheLine, 0x5a);
  const u64 base = dev.data_base();
  u64 i = 0;
  for (auto _ : state) {
    const u64 off = base + (i++ % kWorkingLines) * kCacheLine;
    dev.store(off, line);
    dev.clwb(off, kCacheLine);
    dev.sfence();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreClwbSfence);

// 16 lines per fence, each durable before its store: every iteration
// takes 16 pre-images and retires them at the fence.
void BM_FirstStoreAfterFence(benchmark::State& state) {
  constexpr u64 kBatch = 16;
  sim::Env env;
  pm::PmDevice dev(env, u64{16} << 20);
  const u64 base = dev.data_base();
  u64 i = 0;
  for (auto _ : state) {
    for (u64 l = 0; l < kBatch; l++) {
      const u64 off = base + (i++ % kWorkingLines) * kCacheLine;
      dev.store_u64(off, i);
      dev.clwb(off, 8);
    }
    dev.sfence();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(kBatch));
  state.counters["preimage_hwm"] = static_cast<double>(dev.obs_epoch().preimage_hwm);
}
BENCHMARK(BM_FirstStoreAfterFence);

// One epoch of `ops` ops, each four fresh lines plus a withheld 8-byte
// publication (a 256 B put), closed by hand; only close() is timed.
void BM_EpochClose(benchmark::State& state) {
  sim::Env env;
  pm::PmDevice dev(env, u64{16} << 20);
  const u64 base = dev.data_base();
  auto pool = pm::PmPool::create(dev, "bench", base, u64{4} << 20);
  pm::GroupCommitPolicy policy;
  policy.max_epoch_ops = 1u << 30;
  policy.max_deferral_ns = u64{1} << 62;
  pm::FlushBatcher batcher(dev, policy);
  batcher.register_pool(pool);
  const u64 data = base + (u64{8} << 20);
  const auto ops = static_cast<int>(state.range(0));
  const std::vector<u8> line(kCacheLine, 0xa5);
  u64 cursor = 0;
  for (auto _ : state) {
    for (int op = 0; op < ops; op++) {
      batcher.begin_op(true, static_cast<u64>(env.now()));
      const u64 first = data + (cursor % kWorkingLines) * kCacheLine;
      for (int l = 0; l < 4; l++) {
        const u64 off = data + (cursor++ % kWorkingLines) * kCacheLine;
        dev.store(off, line);
        batcher.flush(off, kCacheLine);
      }
      batcher.publish_u64(first, cursor);
      batcher.fence();
      batcher.end_op();
    }
    const auto t0 = Clock::now();
    batcher.close();
    const std::chrono::duration<double> took = Clock::now() - t0;
    state.SetIterationTime(took.count());
  }
  state.counters["deferred_words_per_close"] = static_cast<double>(ops);
  state.counters["preimage_hwm"] = static_cast<double>(dev.obs_epoch().preimage_hwm);
}
BENCHMARK(BM_EpochClose)->Arg(64)->UseManualTime();

void BM_DeviceConstruct(benchmark::State& state) {
  sim::Env env;
  for (auto _ : state) {
    pm::PmDevice dev(env, kImage);
    benchmark::DoNotOptimize(dev.data_base());
  }
}
BENCHMARK(BM_DeviceConstruct)->Unit(benchmark::kMicrosecond);

// A 512 MB device with one persisted line in every (1000/permille)-th
// page, plus an unflushed line in the same page. Returns the unflushed
// lines.
std::vector<u64> touch_pages(pm::PmDevice& dev, i64 permille) {
  const std::vector<u8> line(kCacheLine, 0x3c);
  const u64 stride = kPage * 1000 / static_cast<u64>(permille);
  std::vector<u64> unflushed;
  for (u64 page = kPage; page + kPage <= dev.size(); page += stride) {
    dev.store(page, line);
    dev.persist(page, kCacheLine);
    dev.store(page + kCacheLine, line);
    unflushed.push_back(page + kCacheLine);
  }
  return unflushed;
}

std::string touched_label(i64 permille) {
  const std::string pct = permille % 10 == 0 ? std::to_string(permille / 10)
                                             : "0." + std::to_string(permille);
  return pct + "% of pages touched";
}

// Only crash() is timed; the unflushed lines it reverts are stored again
// before each one.
void BM_Crash(benchmark::State& state) {
  sim::Env env;
  pm::PmDevice dev(env, kImage);
  const std::vector<u64> unflushed = touch_pages(dev, state.range(0));
  const std::vector<u8> line(kCacheLine, 0x5a);
  for (auto _ : state) {
    for (const u64 off : unflushed) dev.store(off, line);
    const auto t0 = Clock::now();
    dev.crash();
    const std::chrono::duration<double> took = Clock::now() - t0;
    state.SetIterationTime(took.count());
  }
  state.SetLabel(touched_label(state.range(0)));
  state.counters["unflushed_lines"] = static_cast<double>(unflushed.size());
}
BENCHMARK(BM_Crash)
    ->Arg(1)
    ->Arg(10)
    ->Arg(100)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

void BM_ClonePersisted(benchmark::State& state) {
  sim::Env env;
  pm::PmDevice dev(env, kImage);
  (void)touch_pages(dev, state.range(0));
  for (auto _ : state) {
    auto clone = dev.clone_persisted();
    benchmark::DoNotOptimize(clone.get());
  }
  state.SetLabel(touched_label(state.range(0)));
  state.counters["preimage_lines"] = static_cast<double>(dev.preimage_lines());
}
BENCHMARK(BM_ClonePersisted)
    ->Arg(1)
    ->Arg(10)
    ->Arg(100)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
