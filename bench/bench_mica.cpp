// Ablation A5 (§2.2): what durability costs — a MICA-like kernel-bypass
// UDP store (volatile, no storage properties) vs the persistent stacks.
//
// "Networked non-persistent in-memory key-value stores, such as MICA,
// eliminate networking overheads using kernel-bypass framework and
// custom UDP-based protocol. However, these systems ... do not support
// storage properties typically offered by persistent storage systems,
// such as durability and crash consistency."
#include <cstdio>

#include "app/harness.h"
#include "common/stats.h"
#include "storage/volatile_kv.h"

using namespace papm;

namespace {

constexpr u32 kClientIp = 0x0a000001;
constexpr u32 kServerIp = 0x0a000002;
constexpr u16 kPort = 5555;

// Request: u8 op (1=put), u8 klen, key, value. Response: u8 status.
struct MicaResult {
  double mean_rtt_us;
  double kreq_s;
};

MicaResult run_mica(int requests) {
  sim::Env env;
  nic::Fabric fabric(env);

  app::HostConfig scfg;
  scfg.ip = kServerIp;
  scfg.cores = 1;
  scfg.busy_poll = true;  // kernel-bypass polling
  app::Host server(env, fabric, scfg);
  app::HostConfig ccfg;
  ccfg.ip = kClientIp;
  ccfg.cores = 0;
  ccfg.busy_poll = true;  // MICA's custom client is kernel-bypass too
  app::Host client(env, fabric, ccfg);

  storage::VolatileKv kv(env);
  (void)server.udp().bind(kPort, [&](u32 ip, u16 port, net::PktBuf* pb) {
    const auto p = server.pool().payload(*pb);
    if (p.size() > 2) {
      const std::size_t klen = p[1];
      const std::string_view key(reinterpret_cast<const char*>(p.data() + 2),
                                 klen);
      (void)kv.put(key, p.subspan(2 + klen));
    }
    server.pool().free(pb);
    const u8 ok = 1;
    (void)server.udp().send_to(ip, port, kPort, {&ok, 1});
  });

  Stats rtt;
  int completed = 0;
  Rng rng(3);
  SimTime issued_at = 0;
  std::function<void()> issue = [&] {
    issued_at = env.now();
    std::vector<u8> req;
    req.push_back(1);
    const std::string key = "key" + std::to_string(rng.next_below(512));
    req.push_back(static_cast<u8>(key.size()));
    req.insert(req.end(), key.begin(), key.end());
    req.resize(req.size() + 1024, 0xab);
    (void)client.udp().send_to(kServerIp, kPort, 5556, req);
  };
  (void)client.udp().bind(5556, [&](u32, u16, net::PktBuf* pb) {
    client.pool().free(pb);
    rtt.add(static_cast<double>(env.now() - issued_at));
    if (++completed < requests) issue();
  });
  issue();
  env.engine.run_until_idle();

  MicaResult r;
  r.mean_rtt_us = rtt.mean() / 1000.0;
  r.kreq_s = 1e6 / rtt.mean();
  return r;
}

}  // namespace

int main() {
  std::printf("=== A5: volatile kernel-bypass store (MICA-like) vs persistent stacks ===\n");
  std::printf("%-28s %10s %12s %10s %9s\n", "system", "RTT[us]", "tput*[kreq/s]",
              "durable", "integrity");

  const auto mica = run_mica(3000);
  std::printf("%-28s %10.2f %12.1f %10s %9s\n", "MICA-like (UDP, volatile)",
              mica.mean_rtt_us, mica.kreq_s, "NO", "NO");

  for (const auto backend : {app::Backend::lsm, app::Backend::pktstore}) {
    app::RunConfig cfg;
    cfg.server.backend = backend;
    cfg.connections = 1;
    cfg.warmup_ns = 10 * kNsPerMs;
    cfg.measure_ns = 80 * kNsPerMs;
    const auto r = app::run_experiment(cfg);
    std::printf("%-28s %10.2f %12.1f %10s %9s\n",
                backend == app::Backend::lsm ? "NoveLSM-like (TCP, PM)"
                                             : "pktstore (TCP, PM)",
                r.mean_rtt_us(), 1e3 / r.rtt.mean() * 1e3, "yes", "yes");
  }
  std::printf(
      "\n(*single closed-loop connection. The volatile store wins on speed\n"
      " by skipping every storage property; the paper's §2.2 point is that\n"
      " this is not an apples-to-apples option for storage systems. The\n"
      " pktstore recovers most of the gap while keeping the properties.)\n");
  return 0;
}
