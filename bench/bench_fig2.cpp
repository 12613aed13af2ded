// Figure 2 reproduction: latency and throughput of continual 1 KB writes
// over parallel persistent TCP connections (1/25/50/75/100), single
// server core.
//
// Series: "Net. + persist." (raw copy+flush app) vs "Net. + data mgmt. +
// persist." (NoveLSM-like store) — the paper's two — plus the projection
// series for the proposed packet-metadata store (DESIGN.md P2).
//
// --metrics additionally prints the per-cell PM flush/fence accounting
// (clwb/sfence/bytes per op — the persistence-cost delta between the
// backends) and the full metric registries for the largest sweep point.
// --json <path> writes the sweep as schema-v3 records, including the
// per-op flush-cost fields.
// --no-csum-offload disables the NIC checksum engines both ways, so the
// software-checksum delta is measurable again.
// --cost-model embeds the full calibrated cost model in the JSON record.
#include <cstdio>
#include <string>
#include <vector>

#include "app/harness.h"
#include "bench_json.h"

using namespace papm;
using namespace papm::app;

int main(int argc, char** argv) {
  const bool want_metrics = benchio::has_flag(argc, argv, "--metrics");
  const bool no_csum_offload =
      benchio::has_flag(argc, argv, "--no-csum-offload");
  const bool want_cost_model = benchio::has_flag(argc, argv, "--cost-model");
  const std::string json_path = benchio::json_path_from_args(argc, argv);
  struct Cell {
    int conns;
    Backend backend;
    RunResult r;
  };
  std::vector<Cell> cells;
  std::string last_lsm_report;

  std::printf(
      "=== Figure 2: 1KB writes over parallel persistent TCP connections "
      "===\n");
  std::printf(
      "(paper: data mgmt reduces throughput by 9-28%% and increases latency "
      "by 11-42%%)\n\n");
  std::printf(
      "conns | raw: lat[us]  p99[us] tput[kreq/s] | lsm: lat[us]  p99[us] "
      "tput[kreq/s] | pkt: lat[us] tput[kreq/s] | lsm-vs-raw lat+%% tput-%%\n");

  for (const int conns : {1, 25, 50, 75, 100}) {
    RunConfig cfg;
    cfg.connections = conns;
    // Warmup doubles as the load phase: long enough that the uniform
    // keyspace is (almost) fully populated before measurement starts, so
    // the window reports steady-state overwrites, not first-touch inserts
    // (which pay an extra index-node line and skew the flush accounting).
    cfg.warmup_ns = 160 * kNsPerMs;
    cfg.measure_ns = 60 * kNsPerMs;
    cfg.keyspace = 4096;
    if (no_csum_offload) {
      cfg.nic.csum_offload_rx = false;
      cfg.nic.csum_offload_tx = false;
    }

    cfg.collect_metrics = want_metrics;
    cfg.server.backend = Backend::raw_persist;
    const auto raw = run_experiment(cfg);
    cfg.server.backend = Backend::lsm;
    const auto lsm = run_experiment(cfg);
    cfg.server.backend = Backend::pktstore;
    const auto pkt = run_experiment(cfg);
    if (want_metrics) last_lsm_report = lsm.metrics_report;
    cells.push_back({conns, Backend::raw_persist, raw});
    cells.push_back({conns, Backend::lsm, lsm});
    cells.push_back({conns, Backend::pktstore, pkt});

    std::printf(
        "%5d | %12.1f %8.1f %12.1f | %12.1f %8.1f %12.1f | %11.1f %12.1f | "
        "%9.1f%% %6.1f%%\n",
        conns, raw.mean_rtt_us(), raw.p99_rtt_us(), raw.kreq_per_s,
        lsm.mean_rtt_us(), lsm.p99_rtt_us(), lsm.kreq_per_s, pkt.mean_rtt_us(),
        pkt.kreq_per_s, (lsm.rtt.mean() / raw.rtt.mean() - 1.0) * 100.0,
        (1.0 - lsm.kreq_per_s / raw.kreq_per_s) * 100.0);
  }

  if (want_metrics) {
    std::printf("\n--- PM flush/fence accounting per backend ---\n");
    std::printf("%5s %-12s %10s %10s %10s\n", "conns", "backend", "clwb/op",
                "sfence/op", "B/op");
    for (const auto& c : cells) {
      const double ops = c.r.ops > 0 ? static_cast<double>(c.r.ops) : 1.0;
      std::printf("%5d %-12s %10.1f %10.2f %10.0f\n", c.conns,
                  std::string(to_string(c.backend)).c_str(),
                  static_cast<double>(c.r.flush.clwb) / ops,
                  static_cast<double>(c.r.flush.sfence) / ops,
                  static_cast<double>(c.r.flush.bytes_flushed) / ops);
    }
    std::printf("\n--- Metric registries (lsm, largest sweep point) ---\n%s",
                last_lsm_report.c_str());
  }

  if (!json_path.empty()) {
    benchio::JsonWriter w;
    w.begin_object();
    benchio::write_metadata(w, "fig2");
    w.field("csum_offload", no_csum_offload ? "off" : "on");
    if (want_cost_model) {
      w.begin_object("cost_model");
      benchio::write_cost_model(w, sim::CostModel{});
      w.end_object();
    }
    w.begin_array("results");
    for (const auto& c : cells) {
      w.begin_object();
      w.field("backend", to_string(c.backend));
      w.field("connections", static_cast<long long>(c.conns));
      w.field("mean_rtt_us", c.r.mean_rtt_us());
      w.field("p99_rtt_us", c.r.p99_rtt_us());
      w.field("kreq_per_s", c.r.kreq_per_s);
      w.field("ops", static_cast<long long>(c.r.ops));
      benchio::write_flush_per_op(w, c.r.flush, c.r.ops);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!w.write(json_path)) {
      std::fprintf(stderr, "bench_fig2: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s (%zu records)\n", json_path.c_str(), cells.size());
  }
  return 0;
}
