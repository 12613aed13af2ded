// Projection P1: what the §4.2 proposal saves, feature by feature.
//
// Table-1-style breakdown for the packet-metadata store with each reuse
// individually disabled, quantifying: checksum reuse (paper: "could save
// 1.77 us"), zero-copy ingest ("reduce the data copy overhead, which is
// 1.14 us"), allocator unification and lighter request handling.
//
// --json <path> writes the ablation rows as schema-v3 records, including
// the per-op flush-cost fields.
#include <cstdio>
#include <string>
#include <vector>

#include "app/harness.h"
#include "bench_json.h"

using namespace papm;
using namespace papm::app;

namespace {

RunConfig base() {
  RunConfig cfg;
  cfg.server.backend = Backend::pktstore;
  cfg.connections = 1;
  cfg.warmup_ns = 10 * kNsPerMs;
  cfg.measure_ns = 100 * kNsPerMs;
  return cfg;
}

void print(const char* name, const RunResult& r) {
  const auto& bd = r.avg_breakdown;
  std::printf("%-28s %8.2f | %6.2f %6.2f %6.2f %6.2f %7.2f | %8.2f\n", name,
              r.mean_rtt_us(), bd.prep_ns / 1000.0, bd.checksum_ns / 1000.0,
              bd.copy_ns / 1000.0, bd.alloc_insert_ns / 1000.0,
              bd.persist_ns / 1000.0, bd.total_ns() / 1000.0);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = benchio::json_path_from_args(argc, argv);
  struct Row {
    const char* name;
    RunResult r;
  };
  std::vector<Row> rows;

  std::printf("=== P1: pktstore vs baseline, per-feature ablation (1KB writes) ===\n");
  std::printf("%-28s %8s | %6s %6s %6s %6s %7s | %8s\n", "configuration",
              "RTT[us]", "prep", "csum", "copy", "alloc", "persist",
              "storage");

  {
    RunConfig cfg = base();
    cfg.server.backend = Backend::lsm;
    rows.push_back({"baseline (NoveLSM-like)", run_experiment(cfg)});
  }
  rows.push_back({"pktstore (all reuse on)", run_experiment(base())});
  {
    RunConfig cfg = base();
    cfg.server.pkt_opts.reuse_checksum = false;
    rows.push_back({"  - checksum reuse", run_experiment(cfg)});
  }
  {
    RunConfig cfg = base();
    cfg.server.pkt_opts.zero_copy = false;
    rows.push_back({"  - zero copy", run_experiment(cfg)});
  }
  {
    RunConfig cfg = base();
    cfg.server.pkt_opts.light_prep = false;
    rows.push_back({"  - light request prep", run_experiment(cfg)});
  }
  {
    RunConfig cfg = base();
    cfg.server.pkt_opts.reuse_timestamp = false;
    rows.push_back({"  - timestamp reuse", run_experiment(cfg)});
  }
  {
    RunConfig cfg = base();
    cfg.server.pkt_opts.reuse_checksum = false;
    cfg.server.pkt_opts.zero_copy = false;
    cfg.server.pkt_opts.light_prep = false;
    cfg.server.pkt_opts.reuse_timestamp = false;
    rows.push_back({"  - everything (baseline-ish)", run_experiment(cfg)});
  }
  for (const Row& row : rows) print(row.name, row.r);

  std::printf(
      "\npaper's projected savings: checksum 1.77us, copy 1.14us, plus\n"
      "allocator/request simplification (\"obviated or simplified\", 4.2)\n");

  if (!json_path.empty()) {
    benchio::JsonWriter w;
    w.begin_object();
    benchio::write_metadata(w, "pktstore");
    w.begin_array("results");
    for (const Row& row : rows) {
      const auto& bd = row.r.avg_breakdown;
      w.begin_object();
      w.field("configuration", row.name);
      w.field("mean_rtt_us", row.r.mean_rtt_us());
      w.field("prep_us", bd.prep_ns / 1000.0);
      w.field("checksum_us", bd.checksum_ns / 1000.0);
      w.field("copy_us", bd.copy_ns / 1000.0);
      w.field("alloc_insert_us", bd.alloc_insert_ns / 1000.0);
      w.field("persist_us", bd.persist_ns / 1000.0);
      w.field("ops", static_cast<long long>(row.r.ops));
      benchio::write_flush_per_op(w, row.r.flush, row.r.ops);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!w.write(json_path)) {
      std::fprintf(stderr, "bench_pktstore: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s (%zu records)\n", json_path.c_str(), rows.size());
  }
  return 0;
}
