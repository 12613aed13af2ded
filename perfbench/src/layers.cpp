#include "layers.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "app/host.h"
#include "common/crc32c.h"
#include "common/inet_csum.h"
#include "container/pskiplist.h"
#include "core/pktstore.h"
#include "nic/fabric.h"
#include "pm/flush_batch.h"
#include "pm/pm_pool.h"

namespace perfbench {

namespace app = papm::app;
namespace net = papm::net;
namespace pm = papm::pm;
namespace sim = papm::sim;
using papm::kCacheLine;
using papm::kNsPerMs;
using papm::kNsPerUs;
using papm::Rng;
using papm::u8;

namespace {

using Steady = std::chrono::steady_clock;

double ns_since(Steady::time_point t0) {
  return std::chrono::duration<double, std::nano>(Steady::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Collects per-batch costs (ns per call) and the number of calls behind
// them; the reported value is the median batch.
struct Batches {
  std::vector<double> per_call;
  u64 calls = 0;
  void add(double batch_ns, u64 n) {
    if (n == 0) return;
    per_call.push_back(batch_ns / static_cast<double>(n));
    calls += n;
  }
  [[nodiscard]] LayerTiming result(std::string name, std::string unit,
                                   std::string shape, double scale = 1.0) const {
    return {std::move(name), std::move(unit), median(per_call) * scale, calls,
            std::move(shape)};
  }
};

constexpr int kBatches = 15;

std::vector<u8> random_bytes(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<u8> v(n);
  for (auto& b : v) b = static_cast<u8>(rng.next());
  return v;
}

std::string key_name(u64 k) { return "key" + std::to_string(k); }

// sim: one self-rescheduling event per simulated connection (twice the
// connection count, min 64), so the heap is as deep as the workload's.
LayerTiming event_bench(const Workload& w, u64 seed) {
  sim::Env env;
  Rng rng(seed);
  u64 fired = 0;
  struct Tick {
    sim::Engine* engine;
    Rng* rng;
    u64* fired;
    void operator()() const {
      (*fired)++;
      engine->schedule_in(
          static_cast<SimTime>(rng->next_exponential(10'000.0)) + 1, *this);
    }
  };
  const int depth = std::max(64, 2 * w.connections);
  for (int i = 0; i < depth; i++) {
    env.engine.schedule_in(static_cast<SimTime>(rng.next_below(10'000)) + 1,
                           Tick{&env.engine, &rng, &fired});
  }
  // Each batch runs ~20k events: 20k / depth mean gaps of simulated time.
  const SimTime span = static_cast<SimTime>(20'000.0 * 10'000.0 / depth);
  Batches b;
  for (int i = 0; i < kBatches; i++) {
    const u64 before = fired;
    const auto t0 = Steady::now();
    env.engine.run_until(env.now() + span);
    b.add(ns_since(t0), fired - before);
  }
  return b.result("sim.event_ns", "ns", "heap depth " + std::to_string(depth));
}

LayerTiming device_init_bench(const Workload& w) {
  std::vector<double> secs;
  for (int i = 0; i < 3; i++) {
    sim::Env env;
    const auto t0 = Steady::now();
    pm::PmDevice dev(env, w.pm_size);
    secs.push_back(ns_since(t0) / 1e9);
  }
  return {"pm.device_init_s", "s", median(secs), 3,
          std::to_string(w.pm_size >> 20) + " MB image"};
}

// Lines one op writes back: the value plus an index node and a link word.
u64 lines_per_op(const Workload& w) {
  return (w.value_size + kCacheLine - 1) / kCacheLine + 2;
}

// pm: store + clwb of each line of an op, then the op's sfence.
std::vector<LayerTiming> flush_benches(const Workload& w, u64 seed) {
  sim::Env env;
  const u64 dev_size = 64u << 20;
  pm::PmDevice dev(env, dev_size);
  const u64 base = dev.data_base();
  const u64 nlines = (dev_size - base) / kCacheLine - 1;
  const u64 lines = lines_per_op(w);
  const auto line = random_bytes(kCacheLine, seed);
  constexpr int kOpsPerBatch = 400;
  Batches store_clwb, sfence;
  u64 cursor = 0;
  for (int i = 0; i < kBatches; i++) {
    double store_ns = 0, fence_ns = 0;
    for (int op = 0; op < kOpsPerBatch; op++) {
      auto t0 = Steady::now();
      for (u64 l = 0; l < lines; l++) {
        const u64 off = base + (cursor++ % nlines) * kCacheLine;
        dev.store(off, line);
        dev.clwb(off, kCacheLine);
      }
      store_ns += ns_since(t0);
      t0 = Steady::now();
      dev.sfence();
      fence_ns += ns_since(t0);
    }
    store_clwb.add(store_ns, kOpsPerBatch * lines);
    sfence.add(fence_ns, kOpsPerBatch);
  }
  const std::string shape = std::to_string(lines) + " lines per op";
  return {store_clwb.result("pm.store_clwb_ns", "ns", shape),
          sfence.result("pm.sfence_ns", "ns", shape)};
}

// pm: FlushBatcher::close of an epoch holding one op per connection (the
// group-commit cap bounds it), each op a value's lines plus a publication.
LayerTiming epoch_close_bench(const Workload& w, u64 seed) {
  sim::Env env;
  const u64 dev_size = 128u << 20;
  pm::PmDevice dev(env, dev_size);
  const u64 base = dev.data_base();
  auto pool = pm::PmPool::create(dev, "bench", base, 4u << 20);
  pm::GroupCommitPolicy policy;
  policy.max_epoch_ops = 1u << 30;  // epochs are closed by hand below
  policy.max_deferral_ns = u64{1} << 62;
  pm::FlushBatcher batcher(dev, policy);
  batcher.register_pool(pool);
  const u64 data = base + (8u << 20);
  const u64 nlines = (dev_size - data) / kCacheLine - 1;
  const u64 lines = lines_per_op(w);
  const int ops = std::min(64, w.connections);
  const auto line = random_bytes(kCacheLine, seed);
  Batches b;
  u64 cursor = 0;
  for (int i = 0; i < kBatches; i++) {
    double close_ns = 0;
    constexpr int kEpochs = 40;
    for (int e = 0; e < kEpochs; e++) {
      for (int op = 0; op < ops; op++) {
        batcher.begin_op(true, static_cast<u64>(env.now()));
        const u64 first = data + (cursor % nlines) * kCacheLine;
        for (u64 l = 0; l < lines; l++) {
          const u64 off = data + (cursor++ % nlines) * kCacheLine;
          dev.store(off, line);
          batcher.flush(off, kCacheLine);
        }
        batcher.publish_u64(first, cursor);
        batcher.fence();
        batcher.end_op();
      }
      const auto t0 = Steady::now();
      batcher.close();
      close_ns += ns_since(t0);
    }
    b.add(close_ns, kEpochs);
  }
  return b.result("pm.epoch_close_ns", "ns",
                  std::to_string(ops) + " ops x " + std::to_string(lines) +
                      " lines per epoch");
}

// container: PSkipList updates and lookups over the workload's keyspace.
std::vector<LayerTiming> skiplist_benches(const Workload& w, u64 seed) {
  sim::Env env;
  const u64 dev_size = 64u << 20;
  pm::PmDevice dev(env, dev_size);
  auto pool = pm::PmPool::create(dev, "bench", dev.data_base(),
                                 dev_size - dev.data_base() - kCacheLine);
  auto sl = papm::container::PSkipList::create(dev, pool, "bench.idx");
  std::vector<std::string> keys;
  for (u64 k = 0; k < w.keyspace; k++) {
    keys.push_back(key_name(k));
    (void)sl.put(keys.back(), k + 1);
  }
  Rng rng(seed);
  constexpr int kCalls = 2000;
  Batches put, get;
  u64 sink = 0;
  for (int i = 0; i < kBatches; i++) {
    auto t0 = Steady::now();
    for (int c = 0; c < kCalls; c++) {
      (void)sl.put(keys[rng.next_below(w.keyspace)], static_cast<u64>(c) + 1);
    }
    put.add(ns_since(t0), kCalls);
    t0 = Steady::now();
    for (int c = 0; c < kCalls; c++) {
      const auto v = sl.get(keys[rng.next_below(w.keyspace)]);
      sink += v.ok() ? v.value() : 0;
    }
    get.add(ns_since(t0), kCalls);
  }
  if (sink == 0) throw std::runtime_error("skip-list bench read nothing");
  const std::string shape = std::to_string(w.keyspace) + " keys";
  return {put.result("container.put_ns", "ns", shape),
          get.result("container.get_ns", "ns", shape)};
}

// common: checksum passes over one value.
std::vector<LayerTiming> checksum_benches(const Workload& w, u64 seed) {
  const auto buf = random_bytes(w.value_size, seed);
  const double kb = static_cast<double>(w.value_size) / 1024.0;
  constexpr int kCalls = 500;
  Batches crc, inet;
  papm::u32 sink = 0;
  for (int i = 0; i < kBatches; i++) {
    auto t0 = Steady::now();
    for (int c = 0; c < kCalls; c++) sink += papm::crc32c(buf);
    crc.add(ns_since(t0), kCalls);
    t0 = Steady::now();
    for (int c = 0; c < kCalls; c++) sink += papm::inet_checksum(buf);
    inet.add(ns_since(t0), kCalls);
  }
  if (sink == 0) throw std::runtime_error("checksum bench folded away");
  const std::string shape = std::to_string(w.value_size) + " B buffer";
  return {crc.result("common.crc32c_ns_per_kb", "ns/KB", shape, 1.0 / kb),
          inet.result("common.inet_csum_ns_per_kb", "ns/KB", shape, 1.0 / kb)};
}

// core + net: a PM-backed server host receiving the workload's values
// over a real TCP connection. Times TcpStack::rx per data segment (the
// receive callback only queues the packets), PktStore::put_pkts of the
// received segments, get_as_pkts, and PktBufPool alloc + free.
std::vector<LayerTiming> datapath_benches(const Workload& w, u64 seed) {
  constexpr papm::u32 kClient = 0x0a000001, kServer = 0x0a000002;
  constexpr papm::u16 kPort = 9000;
  sim::Env env;
  env.rng = Rng(seed);
  papm::nic::Fabric fabric(env, papm::nic::Fabric::Options{});
  app::HostConfig shc;
  shc.ip = kServer;
  shc.busy_poll = true;
  shc.pm_backed = true;
  shc.pm_size = 128u << 20;
  app::Host server(env, fabric, shc);
  app::HostConfig chc;
  chc.ip = kClient;
  chc.cores = 0;
  app::Host client(env, fabric, chc);

  std::vector<net::PktBuf*> inbox;
  std::size_t inbox_bytes = 0;
  (void)server.stack().listen(kPort, [&](net::TcpConn& c) {
    c.on_readable = [&](net::TcpConn& cc) {
      for (net::PktBuf* pb : cc.read_pkts()) {
        inbox_bytes += pb->payload_len();
        inbox.push_back(pb);
      }
    };
  });
  double rx_ns = 0;
  u64 rx_segs = 0;
  server.nic().set_queue_sink(0, [&](net::PktBuf* pb) {
    const bool data = pb->payload_len() > 0;
    const auto t0 = Steady::now();
    server.stack().rx(pb);
    if (data) {
      rx_ns += ns_since(t0);
      rx_segs++;
    }
  });
  net::TcpConn* conn = client.stack().connect(kServer, kPort);
  env.engine.run_until(env.now() + kNsPerMs);

  auto store = papm::core::PktStore::create(server.pool(), "bench");
  const u64 keys = std::min<u64>(w.keyspace, 256);
  const auto value = random_bytes(w.value_size, seed);
  // Delivers one value; returns its segments.
  auto deliver = [&] {
    inbox.clear();
    inbox_bytes = 0;
    (void)conn->send(value);
    const SimTime deadline = env.now() + 100 * kNsPerMs;
    while (inbox_bytes < value.size()) {
      if (env.now() >= deadline) {
        throw std::runtime_error("datapath bench: value not delivered");
      }
      env.engine.run_until(env.now() + 10 * kNsPerUs);
    }
    return inbox;
  };

  Rng rng(seed);
  constexpr int kPuts = 100;
  Batches put, get, rx, alloc;
  std::size_t segs = 0;
  for (int i = 0; i < kBatches; i++) {
    rx_ns = 0;
    rx_segs = 0;
    double put_ns = 0;
    for (int c = 0; c < kPuts; c++) {
      std::vector<net::PktBuf*> pkts = deliver();
      std::vector<papm::u32> offs, lens;
      for (net::PktBuf* pb : pkts) {
        offs.push_back(pb->payload_off);
        lens.push_back(pb->payload_len());
      }
      segs = pkts.size();
      const auto t0 = Steady::now();
      const auto st = store.put_pkts(key_name(rng.next_below(keys)), pkts, offs,
                                     lens);
      put_ns += ns_since(t0);
      if (!st.ok()) throw std::runtime_error("put_pkts bench failed");
      for (net::PktBuf* pb : pkts) net::PktBufPool::release(pb);
    }
    put.add(put_ns, kPuts);
    rx.add(rx_ns, rx_segs);

    double get_ns = 0;
    u64 gets = 0;
    for (int c = 0; c < kPuts; c++) {
      const auto t0 = Steady::now();
      auto got = store.get_as_pkts(key_name(rng.next_below(keys)));
      get_ns += ns_since(t0);
      if (!got.ok()) continue;  // key not written yet
      gets++;
      for (net::PktBuf* pb : got.value()) net::PktBufPool::release(pb);
    }
    get.add(get_ns, gets);

    constexpr int kAllocs = 2000;
    const auto t0 = Steady::now();
    for (int c = 0; c < kAllocs; c++) {
      net::PktBuf* pb = server.pool().alloc(2048);
      if (pb == nullptr) throw std::runtime_error("pktbuf bench: pool empty");
      server.pool().free(pb);
    }
    alloc.add(ns_since(t0), kAllocs);
  }
  const std::string seg_shape = std::to_string(segs) + " segment(s) of a " +
                                std::to_string(w.value_size) + " B value";
  return {put.result("core.put_pkts_ns", "ns", seg_shape),
          get.result("core.get_as_pkts_ns", "ns", seg_shape),
          rx.result("net.tcp_rx_ns", "ns", seg_shape),
          alloc.result("net.pktbuf_alloc_ns", "ns", "2048 B buffer, PM pool")};
}

}  // namespace

std::vector<LayerTiming> run_layer_benches(
    const Workload& w, u64 seed,
    const std::function<void(const std::string&, double)>& span) {
  std::vector<LayerTiming> out;
  auto run = [&](const std::string& name, auto&& bench) {
    const double t0 =
        std::chrono::duration<double>(Steady::now().time_since_epoch()).count();
    for (auto& t : bench()) out.push_back(std::move(t));
    span(name, t0);
  };
  using V = std::vector<LayerTiming>;
  run("sim", [&] { return V{event_bench(w, seed)}; });
  run("pm.device", [&] { return V{device_init_bench(w)}; });
  run("pm.flush", [&] { return flush_benches(w, seed); });
  run("pm.epoch", [&] { return V{epoch_close_bench(w, seed)}; });
  run("container", [&] { return skiplist_benches(w, seed); });
  run("core+net", [&] { return datapath_benches(w, seed); });
  run("common", [&] { return checksum_benches(w, seed); });
  return out;
}

}  // namespace perfbench
