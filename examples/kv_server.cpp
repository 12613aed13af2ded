// kv_server: the paper's end-to-end scenario as a runnable example.
//
// Builds the §3 testbed — a single-core busy-polling PM server and a
// multi-connection wrk-like client over a simulated 25 GbE fabric — and
// serves 1 KB PUT/GET traffic with each backend in turn, printing the
// latency/throughput comparison that motivates the proposal.
//
// Usage: kv_server [connections] [value_bytes]
#include <cstdio>
#include <cstdlib>

#include "app/harness.h"

using namespace papm;
using namespace papm::app;

int main(int argc, char** argv) {
  const int conns = argc > 1 ? std::atoi(argv[1]) : 8;
  const std::size_t value = argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 1024;

  std::printf("kv_server: %d persistent connection(s), %zu-byte values,\n",
              conns, value);
  std::printf("mixed 80%% PUT / 20%% GET, single server core\n\n");
  std::printf("%-24s %10s %10s %14s %8s\n", "backend", "mean[us]", "p99[us]",
              "tput[kreq/s]", "cpu");

  for (const Backend b :
       {Backend::discard, Backend::raw_persist, Backend::lsm, Backend::pktstore}) {
    RunConfig cfg;
    cfg.server.backend = b;
    cfg.connections = conns;
    cfg.value_size = value;
    cfg.get_ratio = 0.2;
    cfg.keyspace = 512;
    cfg.warmup_ns = 10 * kNsPerMs;
    cfg.measure_ns = 80 * kNsPerMs;
    const auto r = run_experiment(cfg);
    std::printf("%-24s %10.1f %10.1f %14.1f %7.0f%%\n",
                std::string(to_string(b)).c_str(), r.mean_rtt_us(),
                r.p99_rtt_us(), r.kreq_per_s, r.server_cpu_util * 100.0);
  }

  std::printf(
      "\ndiscard measures pure networking; raw_persist adds copy+flush;\n"
      "lsm is the NoveLSM-like baseline with full data management; and\n"
      "pktstore is the paper's proposal reusing the packets themselves.\n");
  return 0;
}
