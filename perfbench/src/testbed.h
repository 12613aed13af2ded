// One repetition of a benchmark workload: assembles the testbed from the
// public app/repl classes (the way app::run_experiment does), runs warmup,
// the measured window, drain, a seeded GET readback and — for the
// replicated workload — failover and restart, timing every phase on the
// host clock and collecting the simulated-clock results.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace perfbench {

using papm::SimTime;
using papm::u32;
using papm::u64;

struct Workload {
  std::string name;
  bool open_loop = false;
  int server_cores = 1;
  u64 pm_size = 512u << 20;
  int connections = 50;
  double rate_rps = 0;  // open loop: aggregate Poisson rate
  std::size_t value_size = 1024;
  double get_ratio = 0.0;
  u64 keyspace = 4096;
  bool prime = false;        // load the keyspace before the run
  SimTime deadline_ns = 0;   // open loop: SLO deadline per request
  SimTime warmup_ns = 0;
  SimTime measure_ns = 0;
  bool repl = false;         // 2 backups, quorum 2, failover + restart
  bool slicing = false;      // NIC payload slicing + auto insert policy
  u64 readback_keys = 0;     // seeded post-run GET sample (0 = whole keyspace)
  // Distinct simulations per run: their window samples pool into the
  // simulated-clock metrics, so the tail rests on sub_seeds windows.
  int sub_seeds = 4;
  // Open loop only: rate ladder for slo_krps (ascending, stops at the first
  // failing rung) and the p99 limit a rung must meet.
  std::vector<double> ladder_rps;
  SimTime ladder_measure_ns = 0;
  SimTime slo_p99_ns = 0;
};

// The seed of a run's i-th distinct simulation (i < Workload::sub_seeds).
[[nodiscard]] constexpr u64 sub_seed(u64 seed, int i) {
  return seed * 64 + static_cast<u64>(i);
}

// The three benchmark workloads, by name; nullopt for an unknown name.
std::optional<Workload> find_workload(const std::string& name);
std::vector<std::string> workload_names();

// Simulated-clock results: deterministic for a given workload and seed,
// compared bit-for-bit across repetitions.
struct SimResult {
  u64 samples = 0;          // latency samples in the window
  double kreq_per_s = 0;
  double p50_us = 0, p99_us = 0, p999_us = 0;
  double mean_us = 0;
  double max_us = 0;        // with the rest, a fingerprint of the samples
  u64 attempted = 0;        // requests + readback GETs + durability checks
  u64 failed = 0;
  u64 unanswered = 0;       // requests with no response after the drain
  u64 http_errors = 0;      // non-2xx responses (whole run)
  u64 readback_bad = 0;     // readback mismatches or unanswered readbacks
  u64 acked_keys = 0;       // put16k_repl: keys acked before the cut
  u64 acked_lost = 0;       // ... missing or corrupt after failover/restart
  double slo_miss_rate = 0; // (deadline misses + failed) / window requests
  double failover_us = 0;   // put16k_repl only
  double restart_us = 0;    // put16k_repl only
  double detect_us = 0;     // put16k_repl only
  bool operator==(const SimResult&) const = default;
};

// Per-layer simulated results from a traced repetition.
struct LayerSim {
  double stage_us[12] = {};   // obs::Stage self-time means per request
  double repl_apply_us = 0;   // per replica apply span
  double clwb_per_op = 0, sfence_per_op = 0;
  double imbalance = 1.0;
  double cpu_util = 0;        // window-clipped
  double wait_us = 0;         // mean latency - sum of server self-times
  u64 tcp_retransmits = 0;
  double repl_forwards_per_op = 0;
  u64 repl_retransmits = 0;
  double tower_rebuild_us = 0;  // restart of the server image
  u64 trace_spans = 0;
};

// Host-clock phase timings of one repetition, seconds.
struct HostTimes {
  double setup_hosts = 0, prime = 0, warmup = 0;  // set-up phases
  double window = 0;                              // measured window
  double post = 0;  // drain, readback, failover, restart, verification
  double clone_ms = 0, recover_ms = 0;  // traced reps: restart spans
  [[nodiscard]] double setup() const { return setup_hosts + prime + warmup; }
  [[nodiscard]] double wall() const { return window + post; }
};

struct RepOptions {
  u64 seed = 1;
  bool trace = false;          // server + client tracing, restart of image
  std::string trace_path;      // traced reps: Chrome trace output ("" = none)
  // Self-test: cut the server's link halfway through the window.
  bool cut_link_mid_window = false;
};

struct RepResult {
  SimResult sim;
  HostTimes host;
  LayerSim layer;  // filled for traced reps
  papm::Stats latencies;  // window samples, ns
  u64 window_requests = 0;
  // Attempted-but-unanswered requests at mid-window and at its end, and
  // the requests attempted in the second half.
  u64 backlog_mid = 0, backlog_end = 0, second_half_attempted = 0;
};

RepResult run_rep(const Workload& w, const RepOptions& opt);

// Open-loop rate ladder: w's testbed at each rate of w.ladder_rps, for
// w.ladder_measure_ns; a rung passes with p99 within w.slo_p99_ns, no
// failures and no growing backlog. Stops at the first failing rung.
// Deterministic per seed.
struct LadderRung {
  double rate_rps = 0;
  double p99_us = 0;
  u64 samples = 0;
  u64 backlog_first = 0, backlog_second = 0;  // outstanding at mid / end
  bool growing = false;
  bool pass = false;
};
std::vector<LadderRung> run_ladder(const Workload& w, u64 seed);

}  // namespace perfbench
