// Ablation A4 (§5.2): lower-latency transports shift the bottleneck to
// data management.
//
// "New transport protocols will further highlight the benefit of
// repurposing packets, because the networking latency, which is 26.71 us
// with TCP in our experiment, will be lower." We sweep the networking
// cost (TCP, TCP scaled x0.5 and x0.25, and a Homa-like profile) and
// report how the data-management share of the RTT grows, and what the
// pktstore recovers.
#include <cstdio>

#include "app/harness.h"

using namespace papm;
using namespace papm::app;

namespace {

RunConfig base(Backend b, const sim::CostModel& cost) {
  RunConfig cfg;
  cfg.server.backend = b;
  cfg.cost = cost;
  cfg.connections = 1;
  cfg.warmup_ns = 10 * kNsPerMs;
  cfg.measure_ns = 80 * kNsPerMs;
  return cfg;
}

}  // namespace

int main() {
  std::printf("=== A4: transport latency vs data-management share ===\n");
  std::printf("%-14s %9s %9s %9s %11s %11s\n", "transport", "net[us]",
              "lsm[us]", "pkt[us]", "mgmt-share", "pkt-gain");

  struct Profile {
    const char* name;
    sim::CostModel cost;
  };
  sim::CostModel tcp;
  sim::CostModel half = tcp;
  half.net_scale = 0.5;
  sim::CostModel quarter = tcp;
  quarter.net_scale = 0.25;
  const Profile profiles[] = {
      {"TCP", tcp},
      {"TCP x0.5", half},
      {"TCP x0.25", quarter},
      {"Homa-like", sim::CostModel::homa_like()},
  };

  for (const auto& p : profiles) {
    const auto net = run_experiment(base(Backend::discard, p.cost));
    const auto lsm = run_experiment(base(Backend::lsm, p.cost));
    const auto pkt = run_experiment(base(Backend::pktstore, p.cost));
    const double mgmt_share =
        (lsm.rtt.mean() - net.rtt.mean()) / lsm.rtt.mean() * 100.0;
    const double pkt_gain =
        (lsm.rtt.mean() - pkt.rtt.mean()) / lsm.rtt.mean() * 100.0;
    std::printf("%-14s %9.2f %9.2f %9.2f %10.1f%% %10.1f%%\n", p.name,
                net.mean_rtt_us(), lsm.mean_rtt_us(), pkt.mean_rtt_us(),
                mgmt_share, pkt_gain);
  }
  std::printf(
      "\n(mgmt-share: storage overhead as fraction of the lsm RTT; pkt-gain:\n"
      " RTT reduction from the packet-metadata store. Both grow as the\n"
      " network gets faster — the paper's 5.2 argument.)\n");
  return 0;
}
