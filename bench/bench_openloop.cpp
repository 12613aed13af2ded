// Open-loop O1: production load — Poisson arrivals, 1k-100k connections,
// tail latency and deadline misses.
//
// The closed-loop benches (latency, scaling) measure a best case: every
// connection politely waits for its response, so the server is never
// offered more than it just finished. Production traffic is open-loop —
// requests arrive when users click, at a rate that does not care how the
// server is doing — and the numbers that matter are the tail (p99/p999
// sojourn time, arrival to response including client-side queueing) and
// the fraction of requests that blow their deadline.
//
// This bench sweeps the connection count at a fixed offered load (the
// same krps spread over 1k vs 100k conns exercises very different RSS
// spreads and per-flow burstiness) and reports p50/p99/p999, the
// deadline-miss rate, and the server's shard-load imbalance. With
// `--rebalance` the shard-load monitor remaps RSS indirection-table
// entries at runtime, migrating flow groups (TCP + store residency) off
// hot shards — the imbalance and tail columns show what that buys.
//
// Flags:
//   --conns N        single-point run at N connections (default sweep)
//   --rate RPS       aggregate offered load, req/s (default 100000)
//   --seconds S      measurement window in simulated seconds (default 0.2)
//   --deadline-us D  per-request deadline (default 200)
//   --cores N        server cores / datapath shards (default 4)
//   --backend B      discard | raw_persist | lsm | pktstore (default)
//   --rebalance      enable the runtime shard-load rebalancer
//   --quick          reduced sweep (1k, 10k) and a shorter window
//   --metrics        print the merged metric registries after each point
//   --no-csum-offload  disable the NIC checksum engines (software csum)
//   --cost-model     embed the calibrated cost model in the JSON record
//   --admin          arm the live admin plane (/stats, /metrics,
//                    /trace/recent). Armed-but-unscraped costs zero
//                    simulated time: an --admin run is byte-identical to
//                    one without the flag (tier1.sh asserts this)
//   --flightrec      enable the PM flight recorder on every shard (a
//                    real persistence cost, excluded from byte-identity)
//   --admin-overhead paired-run mode: each point runs once bare and once
//                    with the admin plane armed AND scraped (500 Hz
//                    cycle over the three endpoints, span rings on).
//                    Prints and records the p99 delta; exits nonzero if
//                    it reaches 1% (the admin-plane overhead budget).
//                    Default sweep narrows to the 10k-conns point
//   --json PATH      machine-readable records (schema v7); two runs with
//                    the same flags are byte-identical
#include <cstdio>
#include <string>
#include <vector>

#include "app/harness.h"
#include "bench_json.h"

using namespace papm;
using namespace papm::app;

namespace {

struct Point {
  int conns;
  OpenLoopResult r;
  // --admin-overhead pairing (zeros otherwise).
  double p99_base_us = 0.0;
  double p99_admin_us = 0.0;
  double overhead_pct = 0.0;
};

Backend backend_from(const std::string& name) {
  if (name == "discard") return Backend::discard;
  if (name == "raw_persist") return Backend::raw_persist;
  if (name == "lsm") return Backend::lsm;
  return Backend::pktstore;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = benchio::json_path_from_args(argc, argv);
  const bool quick = benchio::has_flag(argc, argv, "--quick");
  const bool rebalance = benchio::has_flag(argc, argv, "--rebalance");
  const bool want_metrics = benchio::has_flag(argc, argv, "--metrics");
  const bool no_csum_offload =
      benchio::has_flag(argc, argv, "--no-csum-offload");
  const bool want_cost_model = benchio::has_flag(argc, argv, "--cost-model");
  const bool admin = benchio::has_flag(argc, argv, "--admin");
  const bool flightrec = benchio::has_flag(argc, argv, "--flightrec");
  const bool admin_overhead = benchio::has_flag(argc, argv, "--admin-overhead");

  const std::string conns_arg = benchio::arg_value(argc, argv, "--conns");
  const std::string rate_arg = benchio::arg_value(argc, argv, "--rate");
  const std::string seconds_arg = benchio::arg_value(argc, argv, "--seconds");
  const std::string deadline_arg =
      benchio::arg_value(argc, argv, "--deadline-us");
  const std::string cores_arg = benchio::arg_value(argc, argv, "--cores");
  const std::string backend_arg = benchio::arg_value(argc, argv, "--backend");

  const double rate = rate_arg.empty() ? 100'000.0 : std::stod(rate_arg);
  const double seconds =
      seconds_arg.empty() ? (quick ? 0.05 : 0.2) : std::stod(seconds_arg);
  const long long deadline_us =
      deadline_arg.empty() ? 200 : std::stoll(deadline_arg);
  const int cores = cores_arg.empty() ? 4 : std::stoi(cores_arg);
  const Backend backend = backend_from(backend_arg);

  std::vector<int> conns_sweep;
  if (!conns_arg.empty()) {
    conns_sweep.push_back(std::stoi(conns_arg));
  } else if (admin_overhead) {
    // The overhead budget is specified at the 10k-conns point; sweeping
    // the other points doubles runtime without informing the verdict.
    conns_sweep = {10'000};
  } else if (quick) {
    conns_sweep = {1'000, 10'000};
  } else {
    conns_sweep = {1'000, 10'000, 100'000};
  }

  std::printf("=== Open-loop O1: Poisson offered load, %.0f req/s, "
              "deadline %lld us, %d server cores, backend %s%s ===\n",
              rate, deadline_us, cores,
              std::string(to_string(backend)).c_str(),
              rebalance ? ", rebalancing ON" : "");
  std::printf("%8s %9s %9s %8s %8s %8s %8s %9s %6s %9s\n", "conns",
              "offered", "kreq/s", "p50[us]", "p99[us]", "p999[us]",
              "miss%", "imbal", "moves", "cpu");

  std::vector<Point> points;
  for (const int conns : conns_sweep) {
    OpenLoopRunConfig cfg;
    cfg.server.backend = backend;
    cfg.server_cores = cores;
    cfg.pm_size = 1u << 30;
    cfg.connections = conns;
    cfg.rate_rps = rate;
    cfg.deadline_ns = static_cast<SimTime>(deadline_us) * kNsPerUs;
    cfg.warmup_ns = 50 * kNsPerMs;
    cfg.measure_ns = static_cast<SimTime>(seconds * 1e9);
    cfg.rebalance = rebalance;
    if (no_csum_offload) {
      cfg.nic.csum_offload_rx = false;
      cfg.nic.csum_offload_tx = false;
    }
    cfg.collect_metrics = want_metrics;
    cfg.server.admin = admin;
    cfg.server.flight_recorder = flightrec;

    Point pt;
    pt.conns = conns;
    if (admin_overhead) {
      // Paired runs, identical load: once bare, once with the admin
      // plane armed and scraped hard (500 Hz over the three endpoints,
      // span rings feeding /trace/recent). The p99 delta is the cost of
      // running production telemetry on the datapath cores.
      const OpenLoopResult base = run_openloop(cfg);
      OpenLoopRunConfig acfg = cfg;
      acfg.server.admin = true;
      acfg.admin_interval_ns = 2 * kNsPerMs;
      acfg.server.trace = true;
      acfg.server.trace_capacity = 4096;
      const OpenLoopResult withadmin = run_openloop(acfg);
      pt.r = withadmin;
      pt.p99_base_us = base.p99_us();
      pt.p99_admin_us = pt.r.p99_us();
      pt.overhead_pct = pt.p99_base_us > 0.0
                            ? (pt.p99_admin_us - pt.p99_base_us) /
                                  pt.p99_base_us * 100.0
                            : 0.0;
    } else {
      pt.r = run_openloop(cfg);
    }
    const OpenLoopResult& r = pt.r;
    std::printf("%8d %9.1f %9.1f %8.1f %8.1f %8.1f %7.2f%% %9.3f %6llu "
                "%8.0f%%\n",
                conns, r.offered_krps, r.kreq_per_s, r.p50_us(), r.p99_us(),
                r.p999_us(), r.miss_rate * 100.0, r.imbalance,
                static_cast<unsigned long long>(r.bucket_moves),
                r.server_cpu_util * 100.0);
    if (admin_overhead) {
      std::printf("%8s admin plane: %llu scrapes answered, %.0f B/body, "
                  "p99 %.1f -> %.1f us (%+.2f%%)\n",
                  "", static_cast<unsigned long long>(r.admin_requests),
                  r.admin_scrapes > 0 ? static_cast<double>(r.admin_bytes) /
                                            static_cast<double>(r.admin_scrapes)
                                      : 0.0,
                  pt.p99_base_us, pt.p99_admin_us, pt.overhead_pct);
    }
    if (flightrec) {
      std::printf("%8s flight recorder: %llu records, %llu wraps\n", "",
                  static_cast<unsigned long long>(r.flightrec_records),
                  static_cast<unsigned long long>(r.flightrec_wraps));
    }
    if (want_metrics) std::printf("%s\n", r.metrics_report.c_str());
    points.push_back(std::move(pt));
  }

  if (!json_path.empty()) {
    benchio::JsonWriter w;
    w.begin_object();
    benchio::write_metadata(w, "openloop");
    w.field("seed", 42LL);
    w.field("rate_rps", rate);
    w.field("deadline_us", deadline_us);
    w.field("cores", static_cast<long long>(cores));
    w.field("backend", to_string(backend));
    w.field("rebalance", static_cast<long long>(rebalance ? 1 : 0));
    w.field("measure_ns", static_cast<long long>(seconds * 1e9));
    w.field("csum_offload", no_csum_offload ? "off" : "on");
    w.field("admin", static_cast<long long>(admin ? 1 : 0));
    w.field("flightrec", static_cast<long long>(flightrec ? 1 : 0));
    w.field("admin_overhead", static_cast<long long>(admin_overhead ? 1 : 0));
    if (want_cost_model) {
      w.begin_object("cost_model");
      benchio::write_cost_model(w, sim::CostModel{});
      w.end_object();
    }
    w.begin_array("results");
    for (const Point& p : points) {
      w.begin_object();
      w.field("connections", static_cast<long long>(p.conns));
      w.field("offered_krps", p.r.offered_krps);
      w.field("kreq_per_s", p.r.kreq_per_s);
      w.field("p50_us", p.r.p50_us());
      w.field("p99_us", p.r.p99_us());
      w.field("p999_us", p.r.p999_us());
      w.field("mean_us", p.r.sojourn.mean() / 1000.0);
      w.field("deadline_miss_rate", p.r.miss_rate);
      w.field("arrivals", static_cast<long long>(p.r.arrivals));
      w.field("completed", static_cast<long long>(p.r.completed));
      w.field("errors", static_cast<long long>(p.r.errors));
      w.field("server_cpu_util", p.r.server_cpu_util);
      w.field("imbalance", p.r.imbalance);
      w.field("bucket_moves", static_cast<long long>(p.r.bucket_moves));
      w.field("conns_migrated", static_cast<long long>(p.r.conns_migrated));
      w.field("indir_remaps", static_cast<long long>(p.r.indir_remaps));
      w.field("admin_requests", static_cast<long long>(p.r.admin_requests));
      w.field("admin_scrapes", static_cast<long long>(p.r.admin_scrapes));
      w.field("flightrec_records",
              static_cast<long long>(p.r.flightrec_records));
      w.field("flightrec_wraps", static_cast<long long>(p.r.flightrec_wraps));
      w.field("trace_dropped", static_cast<long long>(p.r.trace_dropped));
      if (admin_overhead) {
        w.field("p99_base_us", p.p99_base_us);
        w.field("p99_admin_us", p.p99_admin_us);
        w.field("overhead_pct", p.overhead_pct);
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!w.write(json_path)) {
      std::fprintf(stderr, "bench_openloop: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s (%zu records)\n", json_path.c_str(),
                points.size());
  }

  // The overhead budget is the bench's pass criterion in paired mode: a
  // telemetry plane that costs >= 1% of p99 under production load is a
  // regression, not a data point. (A probe that never connected — zero
  // scrapes — would vacuously pass; require it did real work.)
  if (admin_overhead) {
    for (const Point& p : points) {
      if (p.r.admin_requests == 0 || p.overhead_pct >= 1.0) {
        std::fprintf(stderr,
                     "bench_openloop: FAIL admin overhead conns=%d "
                     "scrapes=%llu p99 %.1f -> %.1f us (%+.2f%%, budget 1%%)\n",
                     p.conns,
                     static_cast<unsigned long long>(p.r.admin_requests),
                     p.p99_base_us, p.p99_admin_us, p.overhead_pct);
        return 1;
      }
    }
  }
  return 0;
}
