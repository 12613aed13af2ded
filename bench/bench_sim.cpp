// Micro M4: simulator host path — real wall-clock cost of the per-packet
// primitives every end-to-end bench runs millions of times
// (google-benchmark). Simulated charges are fixed by the cost model; this
// measures the host time behind them:
//
//  * the event engine: one fire + one schedule at 10k pending events,
//    with and without a timer re-armed (cancel + schedule) per event —
//    the TCP RTO pattern;
//  * TcpStack flow demux of a segment at 10k connections;
//  * PktBufPool alloc + clone + free of a 1.5 KB frame on the DRAM
//    (HeapArena) and PM (PmArena) arenas;
//  * the Internet checksum (inet_sum) per KB, and the RSS Toeplitz hash.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/inet_csum.h"
#include "common/rng.h"
#include "net/pktbuf.h"
#include "net/tcp.h"
#include "nic/nic.h"
#include "pm/pm_device.h"
#include "pm/pm_pool.h"

using namespace papm;

namespace {

// A self-rescheduling event: fires, counts, schedules its successor a
// random (mean 10 us) delay later, so the heap stays at its depth.
struct Tick {
  sim::Engine* engine;
  Rng* rng;
  void operator()() const {
    engine->schedule_in(static_cast<SimTime>(rng->next_below(20'000)) + 1,
                        *this);
  }
};

// A Tick that also re-arms a per-event "RTO" 1 ms out, cancelling the one
// it supersedes — the timers are always cancelled, never fired.
struct TickRearm {
  sim::Engine* engine;
  Rng* rng;
  std::vector<sim::EventId>* timers;
  void operator()() const {
    const u64 i = rng->next_below(timers->size());
    engine->cancel((*timers)[i]);
    (*timers)[i] = engine->schedule_in(kNsPerMs, [] {});
    engine->schedule_in(static_cast<SimTime>(rng->next_below(20'000)) + 1,
                        *this);
  }
};

void BM_EngineScheduleStep(benchmark::State& state) {
  sim::Env env;
  Rng rng(1);
  for (i64 i = 0; i < state.range(0); i++) {
    env.engine.schedule_in(static_cast<SimTime>(rng.next_below(20'000)) + 1,
                           Tick{&env.engine, &rng});
  }
  for (auto _ : state) env.engine.step();
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(state.range(0)) + " pending");
}
BENCHMARK(BM_EngineScheduleStep)->Arg(100)->Arg(10'000);

void BM_EngineScheduleStepCancel(benchmark::State& state) {
  sim::Env env;
  Rng rng(1);
  std::vector<sim::EventId> timers(static_cast<std::size_t>(state.range(0)));
  for (i64 i = 0; i < state.range(0); i++) {
    env.engine.schedule_in(static_cast<SimTime>(rng.next_below(20'000)) + 1,
                           TickRearm{&env.engine, &rng, &timers});
  }
  for (auto _ : state) env.engine.step();
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(state.range(0)) + " pending + timers");
}
BENCHMARK(BM_EngineScheduleStepCancel)->Arg(10'000);

// Transmit sink: frees every segment the stack sends.
class NullIf final : public net::NetIf {
 public:
  void transmit(net::PktBuf* pb) override { net::PktBufPool::release(pb); }
  [[nodiscard]] net::MacAddr mac() const noexcept override { return {}; }
};

// 10k active opens (SYN sent, never answered); each iteration delivers a
// pure ACK to a random one of them: checksum-verified flag set, demux,
// connection rx (dropped in syn_sent), release. The alloc is in the loop.
void BM_TcpDemux(benchmark::State& state) {
  sim::Env env;
  net::HeapArena arena(env);
  net::PktBufPool pool(env, arena);
  NullIf netif;
  net::TcpStack::Options opts;
  opts.ip = 0x0a000001;
  net::TcpStack stack(env, netif, pool, opts);
  const auto flows = static_cast<u32>(state.range(0));
  constexpr u32 kPeer = 0x0a000002;
  constexpr u16 kPeerPort = 9000;
  std::vector<u16> ports;
  for (u32 i = 0; i < flows; i++) {
    ports.push_back(stack.connect(kPeer, kPeerPort)->local_port());
  }
  Rng rng(2);
  for (auto _ : state) {
    net::PktBuf* pb = pool.alloc(net::kAllHdrLen);
    pb->len = net::kAllHdrLen;
    pb->payload_off = net::kAllHdrLen;
    pb->csum_verified = true;
    pb->ip.src = kPeer;
    pb->ip.dst = opts.ip;
    pb->tcp.src_port = kPeerPort;
    pb->tcp.dst_port = ports[rng.next_below(flows)];
    pb->tcp.flags = net::kTcpAck;
    stack.rx(pb);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(stack.conn_count()) + " flows");
}
BENCHMARK(BM_TcpDemux)->Arg(10'000);

// alloc(1514) + clone + free(clone) + free(original): the RX-buffer and
// retransmission-clone lifecycle of one full-size segment.
void alloc_clone_free(benchmark::State& state, net::PktBufPool& pool) {
  for (auto _ : state) {
    net::PktBuf* pb = pool.alloc(1514);
    net::PktBuf* c = pool.clone(*pb);
    pool.free(c);
    pool.free(pb);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_PktBufHeap(benchmark::State& state) {
  sim::Env env;
  net::HeapArena arena(env);
  net::PktBufPool pool(env, arena);
  alloc_clone_free(state, pool);
}
BENCHMARK(BM_PktBufHeap);

void BM_PktBufPm(benchmark::State& state) {
  sim::Env env;
  pm::PmDevice dev(env, u64{16} << 20);
  auto pmpool = pm::PmPool::create(dev, "bench", dev.data_base(), u64{8} << 20);
  net::PmArena arena(dev, pmpool);
  net::PktBufPool pool(env, arena);
  alloc_clone_free(state, pool);
}
BENCHMARK(BM_PktBufPm);

void BM_InetSum(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<u8> buf(len);
  Rng rng(3);
  for (auto& b : buf) b = static_cast<u8>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(inet_sum(buf));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  // Seconds per KB (google-benchmark prints it with an SI prefix: "n").
  state.counters["per_KB"] = benchmark::Counter(
      static_cast<double>(len) / 1024.0,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_InetSum)->Arg(20)->Arg(1460)->Arg(65536);

void BM_RssToeplitz(benchmark::State& state) {
  u16 port = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nic::rss_toeplitz(0x0a000002, 0x0a000001, port++, 9000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RssToeplitz);

}  // namespace

BENCHMARK_MAIN();
