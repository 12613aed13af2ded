// Table 1 reproduction: latency breakdown of the RTT for a 1 KB write.
//
// Methodology follows §3 exactly: the networking row is the RTT against a
// discard server; persistence and data-management rows come from the
// instrumented NoveLSM-like store, and the breakdown is confirmed by
// skipping one logical operation at a time and differencing the RTTs.
//
// Observability flags:
//   --trace <path>        write the measurement window's spans as Chrome
//                         trace_events JSON (Perfetto-loadable) and print
//                         the span-derived attribution table
//   --metrics             print the merged server+client metric registries
//                         and the PM flush/fence accounting
//   --check-attribution   verify that discard-RTT + the traced data-mgmt
//                         stage means reproduces the measured LSM RTT
//                         within 1% (exit 1 otherwise)
//   --repl                append a replication row: pktstore PUT RTT with
//                         quorum acks off vs on (quorum=2, R=2); with
//                         --check-attribution the traced repl-stage mean
//                         must reconcile the two RTTs within 1%
#include <cstdio>
#include <cstdlib>

#include "app/harness.h"
#include "bench_json.h"

using namespace papm;
using namespace papm::app;

namespace {

RunConfig base(Backend b) {
  RunConfig cfg;
  cfg.server.backend = b;
  cfg.connections = 1;
  cfg.warmup_ns = 10 * kNsPerMs;
  cfg.measure_ns = 120 * kNsPerMs;
  return cfg;
}

void row(const char* overhead, const char* op, double paper_us, double ours_us) {
  std::printf("%-12s %-38s %8.2f %9.2f\n", overhead, op, paper_us, ours_us);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path = benchio::arg_value(argc, argv, "--trace");
  const std::string json_path = benchio::json_path_from_args(argc, argv);
  const bool want_metrics = benchio::has_flag(argc, argv, "--metrics");
  const bool check_attr = benchio::has_flag(argc, argv, "--check-attribution");
  const bool want_trace = !trace_path.empty() || check_attr;

  std::printf("=== Table 1: Latency breakdown of RTT for a 1KB write ===\n");
  std::printf("%-12s %-38s %8s %9s\n", "Overhead", "Operation", "paper", "ours");

  auto discard_cfg = base(Backend::discard);
  discard_cfg.server.trace = want_trace;
  const auto discard = run_experiment(discard_cfg);
  auto lsm_cfg = base(Backend::lsm);
  lsm_cfg.server.trace = want_trace;
  lsm_cfg.collect_metrics = want_metrics;
  const auto lsm = run_experiment(lsm_cfg);
  const auto& bd = lsm.avg_breakdown;

  row("Networking", "TCP/IP & HTTP in client+server, fabric", 26.71,
      discard.mean_rtt_us());
  row("Data mgmt.", "Request preparation", 0.70,
      static_cast<double>(bd.prep_ns) / 1000.0);
  row("", "Checksum calculation", 1.77,
      static_cast<double>(bd.checksum_ns) / 1000.0);
  row("", "Data copy", 1.14, static_cast<double>(bd.copy_ns) / 1000.0);
  row("", "Buffer allocation and insertion", 2.78,
      static_cast<double>(bd.alloc_insert_ns) / 1000.0);
  row("", "(data mgmt subtotal)", 6.39,
      static_cast<double>(bd.data_mgmt_ns()) / 1000.0);
  row("Persistence", "Flush CPU caches to PM", 1.94,
      static_cast<double>(bd.persist_ns) / 1000.0);
  row("Total", "", 34.79, lsm.mean_rtt_us());

  if (want_trace) {
    // The same table, derived from the per-request spans instead of the
    // OpBreakdown accumulators: per-stage per-request means over the
    // measurement window.
    const obs::Attribution& at = lsm.attribution;
    std::printf("\n--- Span-derived attribution (lsm, %llu requests) ---\n",
                static_cast<unsigned long long>(at.requests));
    std::printf("%-14s %10s %10s\n", "stage", "mean[us]", "spans");
    for (int i = 0; i < obs::kStages; i++) {
      const auto s = static_cast<obs::Stage>(i);
      if (at.spans[i] == 0) continue;
      std::printf("%-14s %10.2f %10llu\n",
                  std::string(obs::to_string(s)).c_str(),
                  at.mean_ns(s) / 1000.0,
                  static_cast<unsigned long long>(at.spans[i]));
    }
    std::printf("%-14s %10.2f  (server-side stages)\n", "sum",
                at.server_sum_ns() / 1000.0);

    // The Table 1 composition as a self-check: networking RTT (measured
    // against the discard server) plus the *additional* traced
    // data-management and persistence work must reproduce the measured
    // LSM RTT. The parse stage appears in both runs (head parse), so
    // only its delta counts as data management.
    const obs::Attribution& dat = discard.attribution;
    const double extra_ns =
        (at.mean_ns(obs::Stage::parse) - dat.mean_ns(obs::Stage::parse)) +
        at.mean_ns(obs::Stage::checksum) + at.mean_ns(obs::Stage::slice) +
        at.mean_ns(obs::Stage::copy) + at.mean_ns(obs::Stage::alloc_index) +
        at.mean_ns(obs::Stage::nic_insert) + at.mean_ns(obs::Stage::persist);
    const double reconstructed_us = discard.mean_rtt_us() + extra_ns / 1000.0;
    const double err =
        (reconstructed_us - lsm.mean_rtt_us()) / lsm.mean_rtt_us();
    std::printf(
        "\nattribution check: discard RTT %.2f + traced data mgmt %.2f = "
        "%.2f us vs measured %.2f us (%+.2f%%)\n",
        discard.mean_rtt_us(), extra_ns / 1000.0, reconstructed_us,
        lsm.mean_rtt_us(), err * 100.0);
    if (check_attr) {
      if (err > 0.01 || err < -0.01) {
        std::printf("attribution check: FAIL (|error| > 1%%)\n");
        return 1;
      } else {
        std::printf("attribution check: OK\n");
      }
    }
  }

  if (want_metrics) {
    std::printf("\n--- PM flush/fence accounting (lsm window) ---\n");
    const auto& f = lsm.flush;
    const double ops = lsm.ops > 0 ? static_cast<double>(lsm.ops) : 1.0;
    std::printf("clwb: %llu (%.1f/op)  sfence: %llu (%.2f/op)  "
                "flushed: %llu B (%.0f B/op)\n",
                static_cast<unsigned long long>(f.clwb),
                static_cast<double>(f.clwb) / ops,
                static_cast<unsigned long long>(f.sfence),
                static_cast<double>(f.sfence) / ops,
                static_cast<unsigned long long>(f.bytes_flushed),
                static_cast<double>(f.bytes_flushed) / ops);
    std::printf("dirty-line hwm: %llu  pending-line hwm: %llu\n",
                static_cast<unsigned long long>(f.dirty_hwm),
                static_cast<unsigned long long>(f.pending_hwm));
    std::printf("\n--- Metric registries (lsm window) ---\n%s",
                lsm.metrics_report.c_str());
  }

  if (!json_path.empty()) {
    benchio::JsonWriter w;
    w.begin_object();
    benchio::write_metadata(w, "table1");
    w.field("networking_rtt_us", discard.mean_rtt_us());
    w.field("lsm_rtt_us", lsm.mean_rtt_us());
    w.field("prep_us", static_cast<double>(bd.prep_ns) / 1000.0);
    w.field("checksum_us", static_cast<double>(bd.checksum_ns) / 1000.0);
    w.field("copy_us", static_cast<double>(bd.copy_ns) / 1000.0);
    w.field("alloc_insert_us", static_cast<double>(bd.alloc_insert_ns) / 1000.0);
    w.field("persist_us", static_cast<double>(bd.persist_ns) / 1000.0);
    w.field("ops", static_cast<long long>(lsm.ops));
    benchio::write_flush_per_op(w, lsm.flush, lsm.ops);
    w.end_object();
    if (!w.write(json_path)) {
      std::fprintf(stderr, "bench_table1: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (!trace_path.empty()) {
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_table1: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::fwrite(lsm.trace_json.data(), 1, lsm.trace_json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nwrote %s (Chrome trace_events; load in Perfetto or "
                "chrome://tracing)\n",
                trace_path.c_str());
  }

  // Replication row: what the quorum gate adds to a pktstore PUT, and
  // whether the traced repl stage accounts for exactly that gap.
  if (benchio::has_flag(argc, argv, "--repl")) {
    auto off_cfg = base(Backend::pktstore);
    off_cfg.server.trace = want_trace;
    const auto off = run_experiment(off_cfg);
    auto on_cfg = off_cfg;
    on_cfg.repl = true;
    on_cfg.repl_opts.quorum = 2;
    const auto on = run_experiment(on_cfg);
    std::printf("\n--- Replication (pktstore 1KB PUT, quorum=2, R=2) ---\n");
    std::printf("repl off RTT %.2f us, repl on RTT %.2f us, "
                "quorum tax %.2f us (server-measured %.2f us)\n",
                off.mean_rtt_us(), on.mean_rtt_us(),
                on.mean_rtt_us() - off.mean_rtt_us(),
                static_cast<double>(on.repl_tax_ns) / 1000.0);
    if (want_trace) {
      // Composition self-check, same shape as Table 1's: the norepl RTT
      // plus the traced server-side *delta* (dominated by the repl stage
      // — locally-ready -> quorum release — with the shared stages'
      // second-order shifts differenced out, as the Table 1 check does
      // for parse) must reproduce the gated RTT.
      const double repl_us = on.attribution.mean_ns(obs::Stage::repl) / 1e3;
      const double server_delta_us =
          (on.attribution.server_sum_ns() - off.attribution.server_sum_ns()) /
          1e3;
      const double reconstructed_us = off.mean_rtt_us() + server_delta_us;
      const double err =
          (reconstructed_us - on.mean_rtt_us()) / on.mean_rtt_us();
      std::printf("repl attribution check: norepl RTT %.2f + traced delta "
                  "%.2f (repl stage %.2f) = %.2f us vs measured %.2f us "
                  "(%+.2f%%)\n",
                  off.mean_rtt_us(), server_delta_us, repl_us,
                  reconstructed_us, on.mean_rtt_us(), err * 100.0);
      if (check_attr) {
        if (err > 0.01 || err < -0.01) {
          std::printf("repl attribution check: FAIL (|error| > 1%%)\n");
          return 1;
        }
        std::printf("repl attribution check: OK\n");
      }
    }
  }

  // Cross-check by skipping one logical operation at a time (§3: "we
  // obtain the breakdown ... by further modifying the storage stack to
  // skip one or more logical operations").
  std::printf("\n--- Cross-check: RTT deltas from skipping each step ---\n");
  std::printf("%-38s %9s %9s\n", "skipped step", "RTT[us]", "delta[us]");
  struct Variant {
    const char* name;
    void (*tweak)(storage::StoreKnobs&);
  };
  const Variant variants[] = {
      {"none (full stack)", [](storage::StoreKnobs&) {}},
      {"request preparation",
       [](storage::StoreKnobs& k) { k.request_prep = false; }},
      {"checksum calculation",
       [](storage::StoreKnobs& k) { k.checksum = false; }},
      {"data copy", [](storage::StoreKnobs& k) { k.data_copy = false; }},
      {"buffer allocation and insertion",
       [](storage::StoreKnobs& k) { k.index_insert = false; }},
      {"persistence", [](storage::StoreKnobs& k) { k.persistence = false; }},
  };
  const double full_rtt = lsm.mean_rtt_us();
  for (const auto& v : variants) {
    auto cfg = base(Backend::lsm);
    v.tweak(cfg.server.knobs);
    const auto r = run_experiment(cfg);
    std::printf("%-38s %9.2f %9.2f\n", v.name, r.mean_rtt_us(),
                full_rtt - r.mean_rtt_us());
  }
  return 0;
}
