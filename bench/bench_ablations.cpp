// Grab-bag ablations around DESIGN.md's design choices:
//
//  (W)  WAL on/off — NoveLSM's design point is dropping the log for a PM
//       memtable (§2.1); what does keeping it cost?
//  (O)  NIC checksum offload on/off — the paper's testbed enables it
//       ("both machines enable checksum offloading"); without it the
//       stacks compute Internet checksums in software per segment.
//  (V)  Value-size sweep — how the baseline-vs-proposal gap scales from
//       64 B to 16 KB (multi-segment values included).
//  (Z)  Key skew — uniform vs Zipfian (YCSB-style theta 0.99): skew turns
//       inserts into updates, exercising the in-place republish path.
#include <cstdio>

#include "app/harness.h"

using namespace papm;
using namespace papm::app;

namespace {

RunConfig base(Backend b) {
  RunConfig cfg;
  cfg.server.backend = b;
  cfg.connections = 1;
  cfg.warmup_ns = 10 * kNsPerMs;
  cfg.measure_ns = 80 * kNsPerMs;
  return cfg;
}

}  // namespace

int main() {
  std::printf("=== (W) write-ahead log: LevelDB-on-PM vs NoveLSM design ===\n");
  {
    auto no_wal = base(Backend::lsm);
    auto with_wal = base(Backend::lsm);
    with_wal.server.lsm_wal = true;
    const auto a = run_experiment(no_wal);
    const auto b = run_experiment(with_wal);
    std::printf("  no WAL (NoveLSM-like):  %7.2f us\n", a.mean_rtt_us());
    std::printf("  WAL    (LevelDB-like):  %7.2f us  (+%.2f us/op: the log\n"
                "  append+crc+flush that the PM memtable makes redundant)\n\n",
                b.mean_rtt_us(), b.mean_rtt_us() - a.mean_rtt_us());
  }

  std::printf("=== (O) NIC checksum offload on/off ===\n");
  std::printf("%-12s %12s %12s %9s\n", "backend", "offload[us]", "software[us]",
              "delta");
  for (const Backend b : {Backend::discard, Backend::lsm, Backend::pktstore}) {
    auto on = base(b);
    auto off = base(b);
    off.nic.csum_offload_tx = false;
    off.nic.csum_offload_rx = false;
    // Without offload the stack verifies checksums in software (charged
    // per segment); the store can still reuse the word the stack
    // computed — reuse does not require hardware, just the stack.
    const auto ron = run_experiment(on);
    const auto roff = run_experiment(off);
    std::printf("%-12s %12.2f %12.2f %8.2f\n",
                std::string(to_string(b)).c_str(), ron.mean_rtt_us(),
                roff.mean_rtt_us(), roff.mean_rtt_us() - ron.mean_rtt_us());
  }

  std::printf("\n=== (V) value-size sweep: baseline vs proposal ===\n");
  std::printf("%7s %10s %10s %10s %10s\n", "bytes", "lsm[us]", "pkt[us]",
              "saved[us]", "saved%");
  for (const std::size_t vs : {64u, 256u, 1024u, 4096u, 16384u}) {
    auto l = base(Backend::lsm);
    l.value_size = vs;
    auto p = base(Backend::pktstore);
    p.value_size = vs;
    const auto rl = run_experiment(l);
    const auto rp = run_experiment(p);
    std::printf("%7zu %10.2f %10.2f %10.2f %9.1f%%\n", vs, rl.mean_rtt_us(),
                rp.mean_rtt_us(), rl.mean_rtt_us() - rp.mean_rtt_us(),
                (rl.mean_rtt_us() - rp.mean_rtt_us()) / rl.mean_rtt_us() * 100);
  }

  std::printf("\n=== (Z) key skew: uniform vs Zipf(0.99) ===\n");
  std::printf("%-10s %12s %12s\n", "backend", "uniform[us]", "zipf[us]");
  for (const Backend b : {Backend::lsm, Backend::pktstore}) {
    auto uni = base(b);
    auto zip = base(b);
    zip.zipf_theta = 0.99;
    const auto ru = run_experiment(uni);
    const auto rz = run_experiment(zip);
    std::printf("%-10s %12.2f %12.2f\n", std::string(to_string(b)).c_str(),
                ru.mean_rtt_us(), rz.mean_rtt_us());
  }
  std::printf(
      "\n(skew makes most writes updates: the index republishes an 8-byte\n"
      " payload instead of inserting a node, so skewed workloads are\n"
      " slightly cheaper for both stores)\n");
  return 0;
}
