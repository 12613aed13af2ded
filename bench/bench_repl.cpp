// Replication R1/A4: what quorum durability costs, and what it buys.
//
// Section R1 (the tax): closed-loop PUT-only load against the pktstore
// backend, replication off vs. quorum=2 and quorum=3 over R=2 backups.
// The tax column is the server-measured mean added ack latency per
// quorum-gated op — the remote wait *beyond local readiness* (a quorum
// ack that beats the local group-commit epoch close costs nothing).
// The sweep runs at 1 connection (un-batched epochs: the tax is the
// full replication round trip) and at 8 (deep epochs: the remote wait
// hides almost entirely behind the local epoch commit, and what remains
// of the slowdown is the forwarding work on the server core).
//
// Section A4 (the buy): open-loop PUT-only load, primary killed cold at
// t_cut (NIC link down + forwarder dead, no goodbye traffic). Reports
// detection time (heartbeat silence -> suspect), failover time (cut ->
// promoted backup fully durable), and the contract number: of all the
// writes the *client* saw acked, how many the promoted host lost. The
// quorum guarantee says that column is zero — with degrade=stall it is
// checked byte-for-byte against the deterministic per-key values.
//
// Flags:
//   --quick        shorter windows
//   --seconds S    R1 measurement window in simulated seconds (default 0.12)
//   --json PATH    machine-readable records (schema v7); two runs with
//                  the same flags are byte-identical
//   --trace PATH   run a short traced quorum=2 experiment and write one
//                  stitched Chrome/Perfetto trace: the primary's shard
//                  track, the client track, and one apply track per
//                  replica (`repl_apply` spans keyed by the primary's
//                  trace id) — the quorum tax as a cross-track span
#include <cstdio>
#include <string>
#include <vector>

#include "app/harness.h"
#include "bench_json.h"

using namespace papm;
using namespace papm::app;

namespace {

struct TaxPoint {
  std::string label;
  long long quorum;  // 0 = replication off
  long long conns;
  RunResult r;
};

struct FailoverPoint {
  long long quorum;
  FailoverResult r;
};

RunConfig tax_base(SimTime measure, int conns) {
  RunConfig cfg;
  cfg.server.backend = Backend::pktstore;
  cfg.connections = conns;
  cfg.value_size = 512;
  cfg.get_ratio = 0.0;  // every op is quorum-gated
  cfg.keyspace = 4096;
  cfg.warmup_ns = 10 * kNsPerMs;
  cfg.measure_ns = measure;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = benchio::json_path_from_args(argc, argv);
  const bool quick = benchio::has_flag(argc, argv, "--quick");
  const std::string seconds_arg = benchio::arg_value(argc, argv, "--seconds");
  const double seconds =
      seconds_arg.empty() ? (quick ? 0.04 : 0.12) : std::stod(seconds_arg);
  const SimTime measure = static_cast<SimTime>(seconds * 1e9);

  std::vector<TaxPoint> tax;
  std::vector<FailoverPoint> fo;
  std::printf("=== Replication R1: quorum ack tax "
              "(closed loop, PUT-only, pktstore, R=2) ===\n");
  std::printf("%10s %6s %9s %9s %9s %9s %9s %6s %9s\n", "config", "conns",
              "kreq/s", "mean[us]", "p99[us]", "tax[us]", "forwards", "rtx",
              "degraded");
  for (const int conns : {1, 8}) {
    for (const long long q : {0LL, 2LL, 3LL}) {
      RunConfig cfg = tax_base(measure, conns);
      if (q > 0) {
        cfg.repl = true;
        cfg.repl_opts.quorum = static_cast<u32>(q);
      }
      const std::string label = q == 0 ? "repl off" : "q=" + std::to_string(q);
      const RunResult r = run_experiment(cfg);
      std::printf("%10s %6d %9.1f %9.2f %9.2f %9.2f %9llu %6llu %9llu\n",
                  label.c_str(), conns, r.kreq_per_s, r.mean_rtt_us(),
                  r.p99_rtt_us(), static_cast<double>(r.repl_tax_ns) / 1000.0,
                  static_cast<unsigned long long>(r.repl_forwards),
                  static_cast<unsigned long long>(r.repl_retransmits),
                  static_cast<unsigned long long>(r.repl_degraded_acks));
      tax.push_back(TaxPoint{label, q, conns, r});
    }
  }

  std::printf("\n=== Replication A4: kill the primary mid-load "
              "(open loop, PUT-only, R=2, degrade=stall) ===\n");
  std::printf("%7s %7s %6s %5s %11s %13s %11s %8s\n", "quorum", "acked",
              "keys", "lost", "detect[us]", "failover[us]", "winner_seq",
              "applies");
  for (const long long q : {2LL, 3LL}) {
    FailoverConfig cfg;
    cfg.repl.quorum = static_cast<u32>(q);
    cfg.cut_at_ns = (quick ? 15 : 30) * kNsPerMs;
    const FailoverResult r = run_failover(cfg);
    std::printf("%7lld %7llu %6llu %5llu %11.1f %13.1f %11llu %8llu%s\n", q,
                static_cast<unsigned long long>(r.acked_puts),
                static_cast<unsigned long long>(r.acked_keys),
                static_cast<unsigned long long>(r.acked_lost), r.detect_us,
                r.failover_us,
                static_cast<unsigned long long>(r.winner_durable_seq),
                static_cast<unsigned long long>(r.winner_applies),
                r.detected && r.settled ? "" : "  [INCOMPLETE]");
    fo.push_back(FailoverPoint{q, r});
  }

  const std::string trace_path = benchio::arg_value(argc, argv, "--trace");
  if (!trace_path.empty()) {
    // A short traced run is all Perfetto needs; the full windows above
    // would produce a trace file in the hundreds of megabytes.
    RunConfig cfg = tax_base(5 * kNsPerMs, 1);
    cfg.repl = true;
    cfg.repl_opts.quorum = 2;
    cfg.server.trace = true;
    const RunResult r = run_experiment(cfg);
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_repl: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::fwrite(r.trace_json.data(), 1, r.trace_json.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s (stitched trace: %llu ops, repl_apply mean "
                "%.2f us across replica tracks)\n",
                trace_path.c_str(), static_cast<unsigned long long>(r.ops),
                r.attribution.mean_ns(obs::Stage::repl_apply) / 1000.0);
  }

  if (!json_path.empty()) {
    benchio::JsonWriter w;
    w.begin_object();
    benchio::write_metadata(w, "repl");
    w.field("seed", 42LL);
    w.field("replicas", static_cast<long long>(kReplBackups));
    w.field("measure_ns", static_cast<long long>(measure));
    w.begin_array("results");
    for (const TaxPoint& p : tax) {
      w.begin_object();
      w.field("kind", "tax");
      w.field("config", p.label);
      w.field("quorum", p.quorum);
      w.field("connections", p.conns);
      w.field("kreq_per_s", p.r.kreq_per_s);
      w.field("mean_us", p.r.mean_rtt_us());
      w.field("p99_us", p.r.p99_rtt_us());
      w.field("repl_tax_ns", static_cast<long long>(p.r.repl_tax_ns));
      w.field("forwards", static_cast<long long>(p.r.repl_forwards));
      w.field("acks_rx", static_cast<long long>(p.r.repl_acks_rx));
      w.field("retransmits", static_cast<long long>(p.r.repl_retransmits));
      w.field("degraded_acks",
              static_cast<long long>(p.r.repl_degraded_acks));
      w.end_object();
    }
    for (const FailoverPoint& p : fo) {
      w.begin_object();
      w.field("kind", "failover");
      w.field("quorum", p.quorum);
      w.field("detected", static_cast<long long>(p.r.detected ? 1 : 0));
      w.field("settled", static_cast<long long>(p.r.settled ? 1 : 0));
      w.field("detect_us", p.r.detect_us);
      w.field("failover_us", p.r.failover_us);
      w.field("acked_puts", static_cast<long long>(p.r.acked_puts));
      w.field("acked_keys", static_cast<long long>(p.r.acked_keys));
      w.field("acked_lost", static_cast<long long>(p.r.acked_lost));
      w.field("winner_durable_seq",
              static_cast<long long>(p.r.winner_durable_seq));
      w.field("winner_applies", static_cast<long long>(p.r.winner_applies));
      w.field("degraded_acks", static_cast<long long>(p.r.degraded_acks));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!w.write(json_path)) {
      std::fprintf(stderr, "bench_repl: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s (%zu records)\n", json_path.c_str(),
                tax.size() + fo.size());
  }

  // The availability contract is the bench's pass criterion: with
  // degrade=stall, an acked write missing from the promoted host is a
  // correctness failure, not a data point.
  for (const FailoverPoint& p : fo) {
    if (!p.r.detected || !p.r.settled || p.r.acked_lost != 0) {
      std::fprintf(stderr,
                   "bench_repl: FAIL quorum=%lld detected=%d settled=%d "
                   "acked_lost=%llu\n",
                   p.quorum, p.r.detected ? 1 : 0, p.r.settled ? 1 : 0,
                   static_cast<unsigned long long>(p.r.acked_lost));
      return 1;
    }
  }
  return 0;
}
