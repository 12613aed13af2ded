// §5.2 realized: key-value writes over the *implemented* Homa-like
// message transport, with the packet-metadata store adopting the Homa
// segments zero-copy — "the approach of repurposing the networking
// features is feasible not only for TCP but also future transport
// protocols".
//
// One closed-loop client; request message = [u8 op][u8 klen][key][value];
// response message = [u8 status]. Storage backends: NoveLSM-like vs
// pktstore (which ingests the request's packets in place), both written
// through the storage::KvStore contract the HTTP server uses.
#include <cstdio>
#include <memory>

#include "app/host.h"
#include "common/stats.h"
#include "core/pktstore.h"
#include "net/homa.h"
#include "storage/lsm_store.h"

using namespace papm;

namespace {

constexpr u32 kClientIp = 0x0a000001;
constexpr u32 kServerIp = 0x0a000002;
constexpr u16 kPort = 4100;

struct Result {
  double mean_rtt_us;
  storage::OpBreakdown bd;
  u64 ops;
};

Result run(bool use_pktstore, std::size_t value_size, int requests) {
  sim::Env env;
  nic::Fabric fabric(env);

  app::HostConfig scfg;
  scfg.ip = kServerIp;
  scfg.cores = 1;
  scfg.busy_poll = true;
  scfg.pm_backed = true;
  app::Host server(env, fabric, scfg);
  app::HostConfig ccfg;
  ccfg.ip = kClientIp;
  ccfg.cores = 0;
  ccfg.busy_poll = true;
  app::Host client(env, fabric, ccfg);

  net::HomaEndpoint shoma(server.udp(), kPort);
  net::HomaEndpoint choma(client.udp(), kPort);

  std::optional<pm::PmPool> store_pool;
  std::unique_ptr<storage::KvStore> store;
  if (use_pktstore) {
    store = std::make_unique<core::PktStore>(
        core::PktStore::create(server.pool(), "db"));
  } else {
    auto span = server.pm_pool().alloc(128u << 20);
    store_pool = pm::PmPool::create(server.pm_device(), "storepool",
                                    align_up(span.value(), kCacheLine),
                                    (128u << 20) - kCacheLine);
    store = std::make_unique<storage::LsmStore>(
        storage::LsmStore::create(server.pm_device(), *store_pool, "db"));
  }

  storage::OpBreakdown bd_sum;
  u64 bd_ops = 0;
  shoma.on_message = [&](net::HomaDelivery d) {
    // Parse the tiny op header in place (it lives in the first segment).
    const u8* first = server.pool().data(*d.pkts[0]) + d.offs[0];
    const std::size_t klen = first[1];
    const std::string key(reinterpret_cast<const char*>(first + 2), klen);
    // The value is the message past the op header: skip the header
    // within the first segment. The store adopts or copies the rest.
    auto offs = d.offs;
    auto lens = d.lens;
    const u32 skip = static_cast<u32>(2 + klen);
    offs[0] += skip;
    lens[0] -= skip;
    storage::OpBreakdown bd;
    (void)store->put_pkts(key, d.pkts, offs, lens, &bd);
    bd_sum += bd;
    bd_ops++;
    for (auto* pb : d.pkts) server.pool().free(pb);
    const u8 ok = 1;
    shoma.send_msg(d.src_ip, d.src_port, {&ok, 1});
  };

  Stats rtt;
  u64 completed = 0;
  Rng rng(9);
  SimTime issued_at = 0;
  std::function<void()> issue = [&] {
    issued_at = env.now();
    std::vector<u8> req;
    req.push_back(1);
    const std::string key = "key" + std::to_string(rng.next_below(512));
    req.push_back(static_cast<u8>(key.size()));
    req.insert(req.end(), key.begin(), key.end());
    req.resize(req.size() + value_size, 0x5a);
    choma.send_msg(kServerIp, kPort, req);
  };
  choma.on_message = [&](net::HomaDelivery d) {
    for (auto* pb : d.pkts) client.pool().free(pb);
    rtt.add(static_cast<double>(env.now() - issued_at));
    if (++completed < static_cast<u64>(requests)) issue();
  };
  issue();
  env.engine.run_until_idle();

  Result r;
  r.mean_rtt_us = rtt.mean() / 1000.0;
  r.bd = bd_sum;
  if (bd_ops > 0) r.bd /= static_cast<SimTime>(bd_ops);
  r.ops = completed;
  return r;
}

}  // namespace

int main() {
  std::printf("=== KV writes over the implemented Homa-like transport ===\n");
  std::printf("%-14s %-10s %9s | %6s %6s %6s %6s %7s\n", "value", "backend",
              "RTT[us]", "prep", "csum", "copy", "alloc", "persist");
  for (const std::size_t vs : {1024u, 4096u, 16384u}) {
    for (const bool pkt : {false, true}) {
      const auto r = run(pkt, vs, 1500);
      std::printf("%-14zu %-10s %9.2f | %6.2f %6.2f %6.2f %6.2f %7.2f\n", vs,
                  pkt ? "pktstore" : "lsm", r.mean_rtt_us,
                  r.bd.prep_ns / 1000.0, r.bd.checksum_ns / 1000.0,
                  r.bd.copy_ns / 1000.0, r.bd.alloc_insert_ns / 1000.0,
                  r.bd.persist_ns / 1000.0);
    }
  }
  std::printf(
      "\n(pktstore adopts the Homa segments in place: the checksum and copy\n"
      " savings survive the transport swap, and the absolute RTT is far\n"
      " below TCP's — §5.2's 'benefit would be doubled'.)\n");
  return 0;
}
