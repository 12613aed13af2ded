// Slicer crossover: NIC payload slicing + index-engine offload on the
// pktstore backend, swept over value size x offload mode x connections.
//
// Modes:
//   off   slicer disabled — the pre-slicer contiguous RX path
//   host  payload slicing on, index insert on the host CPU
//   nic   payload slicing on, index insert forced onto the NIC engine
//   auto  payload slicing on, size-based host/NIC choice
//         (core::kNicInsertMinBytes)
//
// The table shows where slicing cuts the data-management subtotal
// (persist -> 0: the payload is durable on DMA placement) and where the
// NIC insert's fixed command cost crosses the host's per-segment cost —
// the EXPERIMENTS.md crossover curve comes from this bench.
//
// Flags:
//   --quick       one size/conn point per mode (tier-1 smoke)
//   --metrics     print merged metric registries for the last cell
//   --cost-model  embed the calibrated cost model in the JSON record
//   --json PATH   machine-readable records (schema v5); two runs with the
//                 same flags are byte-identical
#include <cstdio>
#include <string>
#include <vector>

#include "app/harness.h"
#include "bench_json.h"

using namespace papm;
using namespace papm::app;

namespace {

struct Mode {
  const char* name;
  bool slicing;
  core::InsertPolicy insert;
};

constexpr Mode kModes[] = {
    {"off", false, core::InsertPolicy::host},
    {"host", true, core::InsertPolicy::host},
    {"nic", true, core::InsertPolicy::nic},
    {"auto", true, core::InsertPolicy::auto_},
};

struct Cell {
  std::size_t value_size;
  const char* mode;
  int conns;
  RunResult r;
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = benchio::has_flag(argc, argv, "--quick");
  const bool want_metrics = benchio::has_flag(argc, argv, "--metrics");
  const bool want_cost_model = benchio::has_flag(argc, argv, "--cost-model");
  const std::string json_path = benchio::json_path_from_args(argc, argv);

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{1024}
            : std::vector<std::size_t>{256, 1024, 4096, 16384};
  const std::vector<int> conns_sweep =
      quick ? std::vector<int>{1} : std::vector<int>{1, 50};

  std::printf(
      "=== Slicer crossover: pktstore PUTs, value size x offload mode ===\n");
  std::printf(
      "(slice: host-side sliced-descriptor bookkeeping; nic_ins: doorbell + "
      "engine wait + completion)\n\n");
  std::printf(
      "%6s %-5s %5s | %8s %8s %9s | %6s %6s %6s %6s %7s %7s %7s | %8s\n",
      "bytes", "mode", "conns", "rtt[us]", "p99[us]", "kreq/s", "prep",
      "csum", "slice", "copy", "al+idx", "nic_in", "persist", "dmgmt[us]");

  std::vector<Cell> cells;
  std::string last_report;
  for (const std::size_t vs : sizes) {
    for (const int conns : conns_sweep) {
      for (const Mode& m : kModes) {
        RunConfig cfg;
        cfg.server.backend = Backend::pktstore;
        cfg.connections = conns;
        cfg.value_size = vs;
        cfg.get_ratio = 0.0;
        cfg.keyspace = 1024;
        cfg.warmup_ns = 60 * kNsPerMs;
        cfg.measure_ns = 60 * kNsPerMs;
        cfg.nic.payload_slicing = m.slicing;
        cfg.server.pkt_opts.insert = m.insert;
        cfg.collect_metrics = want_metrics;
        const RunResult r = run_experiment(cfg);
        if (want_metrics) last_report = r.metrics_report;
        cells.push_back(Cell{vs, m.name, conns, r});
        const auto& bd = r.avg_breakdown;
        std::printf(
            "%6zu %-5s %5d | %8.2f %8.2f %9.1f | %6.2f %6.2f %6.2f %6.2f "
            "%7.2f %7.2f %7.2f | %8.2f\n",
            vs, m.name, conns, r.mean_rtt_us(), r.p99_rtt_us(), r.kreq_per_s,
            bd.prep_ns / 1e3, bd.checksum_ns / 1e3, bd.slice_ns / 1e3,
            bd.copy_ns / 1e3, bd.alloc_insert_ns / 1e3, bd.nic_insert_ns / 1e3,
            bd.persist_ns / 1e3, bd.data_mgmt_ns() / 1e3);
      }
    }
    std::printf("\n");
  }

  if (want_metrics) {
    std::printf("--- Metric registries (last cell) ---\n%s",
                last_report.c_str());
  }

  if (!json_path.empty()) {
    benchio::JsonWriter w;
    w.begin_object();
    benchio::write_metadata(w, "slicer");
    if (want_cost_model) {
      w.begin_object("cost_model");
      benchio::write_cost_model(w, sim::CostModel{});
      w.end_object();
    }
    w.begin_array("results");
    for (const Cell& c : cells) {
      const auto& bd = c.r.avg_breakdown;
      w.begin_object();
      w.field("value_size", static_cast<long long>(c.value_size));
      w.field("mode", c.mode);
      w.field("connections", static_cast<long long>(c.conns));
      w.field("mean_rtt_us", c.r.mean_rtt_us());
      w.field("p99_rtt_us", c.r.p99_rtt_us());
      w.field("kreq_per_s", c.r.kreq_per_s);
      w.field("ops", static_cast<long long>(c.r.ops));
      w.field("prep_us", bd.prep_ns / 1e3);
      w.field("checksum_us", bd.checksum_ns / 1e3);
      w.field("slice_us", bd.slice_ns / 1e3);
      w.field("copy_us", bd.copy_ns / 1e3);
      w.field("alloc_insert_us", bd.alloc_insert_ns / 1e3);
      w.field("nic_insert_us", bd.nic_insert_ns / 1e3);
      w.field("persist_us", bd.persist_ns / 1e3);
      w.field("data_mgmt_us", bd.data_mgmt_ns() / 1e3);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!w.write(json_path)) {
      std::fprintf(stderr, "bench_slicer: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s (%zu records)\n", json_path.c_str(), cells.size());
  }
  return 0;
}
