// Scaling S1: multi-queue RSS scale-out of the single-server datapath.
//
// The paper's testbed pins the server to ONE core; this experiment asks
// what its architecture does with more. Each added core brings a whole
// datapath shard — NIC queue, pinned busy-poll loop, private packet pool
// over a private PM slice, TCP stack, store shard — and RSS flow
// affinity keeps the hot path shared-nothing. Swept: server cores
// {1,2,4,8} x connections {25,50,100,200} for the Figure 2 backends
// (raw_persist = "Net.+persist.", lsm = "Net.+data mgmt.+persist.",
// pktstore = the proposal).
//
// Expected shape: raw_persist scales near-linearly until the wire or the
// offered load caps it; the data-management backends keep their relative
// gap per core, so the absolute gap to raw widens with core count — the
// per-core argument of the paper carries over unchanged.
//
// `--json <path>` additionally writes machine-readable records
// (BENCH_scaling.json); two runs with the same seed produce
// byte-identical files. `--quick` runs a reduced sweep.
#include <cstdio>
#include <cstring>

#include "app/harness.h"
#include "bench_json.h"

using namespace papm;
using namespace papm::app;

namespace {

struct Cell {
  Backend backend;
  int cores;
  int conns;
  RunResult r;
};

RunResult run_cell(Backend backend, int cores, int conns, SimTime measure,
                   bool rebalance) {
  RunConfig cfg;
  cfg.server.backend = backend;
  cfg.server_cores = cores;
  cfg.connections = conns;
  // A device large enough that an 8-way split still leaves every shard
  // room for packet buffers and its store slice.
  cfg.pm_size = 1u << 30;
  cfg.warmup_ns = 10 * kNsPerMs;
  cfg.measure_ns = measure;
  cfg.keyspace = 4096;
  cfg.rebalance = rebalance;
  return run_experiment(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = benchio::json_path_from_args(argc, argv);
  const bool quick = benchio::has_flag(argc, argv, "--quick");
  const bool want_metrics = benchio::has_flag(argc, argv, "--metrics");
  // Runtime RSS rebalancing: the shard-load monitor remaps indirection-
  // table entries during the run, migrating flow groups off hot shards.
  const bool rebalance = benchio::has_flag(argc, argv, "--rebalance");

  const std::vector<int> cores_sweep = quick ? std::vector<int>{1, 4}
                                             : std::vector<int>{1, 2, 4, 8};
  const std::vector<int> conns_sweep =
      quick ? std::vector<int>{100} : std::vector<int>{25, 50, 100, 200};
  const SimTime measure = quick ? 20 * kNsPerMs : 40 * kNsPerMs;

  std::printf("=== Scaling S1: server cores x connections, per-core RSS "
              "datapath shards ===\n");
  std::printf("(each backend: throughput [kreq/s] by (cores, connections); "
              "speedup vs 1 core at equal load)\n");

  std::vector<Cell> cells;
  for (const Backend backend :
       {Backend::raw_persist, Backend::lsm, Backend::pktstore}) {
    std::printf("\n--- backend: %s ---\n", std::string(to_string(backend)).c_str());
    std::printf("cores \\ conns |");
    for (const int conns : conns_sweep) std::printf(" %8d |", conns);
    std::printf("\n");

    std::vector<double> one_core(conns_sweep.size(), 0.0);
    for (const int cores : cores_sweep) {
      std::printf("%13d |", cores);
      for (std::size_t ci = 0; ci < conns_sweep.size(); ci++) {
        const auto r =
            run_cell(backend, cores, conns_sweep[ci], measure, rebalance);
        if (cores == 1) one_core[ci] = r.kreq_per_s;
        const double speedup =
            one_core[ci] > 0.0 ? r.kreq_per_s / one_core[ci] : 0.0;
        std::printf(" %6.1f %s%.2fx|", r.kreq_per_s, cores == 1 ? " " : "",
                    speedup);
        cells.push_back(Cell{backend, cores, conns_sweep[ci], r});
      }
      std::printf("\n");
    }
  }

  if (want_metrics) {
    // Per-core flush/fence accounting: the per-op persistence cost must
    // stay flat as shards are added (shared-nothing), even as totals grow.
    std::printf("\n--- PM flush/fence accounting per cell ---\n");
    std::printf("%-12s %5s %6s %10s %10s %10s\n", "backend", "cores", "conns",
                "clwb/op", "sfence/op", "B/op");
    for (const Cell& c : cells) {
      const double ops = c.r.ops > 0 ? static_cast<double>(c.r.ops) : 1.0;
      std::printf("%-12s %5d %6d %10.1f %10.2f %10.0f\n",
                  std::string(to_string(c.backend)).c_str(), c.cores, c.conns,
                  static_cast<double>(c.r.flush.clwb) / ops,
                  static_cast<double>(c.r.flush.sfence) / ops,
                  static_cast<double>(c.r.flush.bytes_flushed) / ops);
    }
  }

  if (!json_path.empty()) {
    benchio::JsonWriter w;
    w.begin_object();
    benchio::write_metadata(w, "scaling");
    w.field("seed", 42LL);
    w.field("measure_ns", static_cast<long long>(measure));
    w.field("rebalance", static_cast<long long>(rebalance ? 1 : 0));
    w.begin_array("results");
    for (const Cell& c : cells) {
      w.begin_object();
      w.field("backend", to_string(c.backend));
      w.field("cores", static_cast<long long>(c.cores));
      w.field("connections", static_cast<long long>(c.conns));
      w.field("kreq_per_s", c.r.kreq_per_s);
      w.field("mean_rtt_us", c.r.mean_rtt_us());
      w.field("p99_rtt_us", c.r.p99_rtt_us());
      w.field("server_cpu_util", c.r.server_cpu_util);
      w.field("ops", static_cast<long long>(c.r.ops));
      w.field("errors", static_cast<long long>(c.r.server_errors));
      w.field("clwb", static_cast<long long>(c.r.flush.clwb));
      w.field("sfence", static_cast<long long>(c.r.flush.sfence));
      w.field("bytes_flushed", static_cast<long long>(c.r.flush.bytes_flushed));
      w.field("imbalance", c.r.imbalance);
      w.field("bucket_moves", static_cast<long long>(c.r.bucket_moves));
      w.field("conns_migrated", static_cast<long long>(c.r.conns_migrated));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!w.write(json_path)) {
      std::fprintf(stderr, "bench_scaling: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s (%zu records)\n", json_path.c_str(), cells.size());
  }
  return 0;
}
