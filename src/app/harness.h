// Experiment harness: builds the two-machine testbed of §3 (a busy-polling
// PM server — one datapath shard per configured core, the paper's
// configuration being one — + multi-core client over a 25 GbE fabric), runs
// a closed-loop workload and reports latency, throughput and the
// per-operation breakdown. Every bench target (Table 1, Figure 2, the
// ablations) is a thin loop over run_experiment().
#pragma once

#include "app/client.h"
#include "app/openloop.h"
#include "app/rebalance.h"
#include "app/server.h"
#include "nic/fabric.h"

namespace papm::app {

struct RunConfig {
  // Server. server.trace also collects the client's spans and fills the
  // attribution and trace JSON below.
  ServerConfig server;
  int server_cores = 1;  // "the server uses only one CPU core"
  u64 pm_size = 512u << 20;  // server PM device, split across core shards

  // Workload.
  int connections = 1;
  std::size_t value_size = 1024;
  double get_ratio = 0.0;
  u64 keyspace = 4096;
  double zipf_theta = 0.0;  // 0 = uniform keys

  // Timing. Defaults keep a single run under a second of wall time while
  // collecting thousands of samples.
  SimTime warmup_ns = 20 * kNsPerMs;
  SimTime measure_ns = 200 * kNsPerMs;

  // Scale-out rebalancing: run the shard-load monitor during the whole
  // experiment (warmup included, so the table settles before the
  // measurement window). No-op with one server core.
  bool rebalance = false;
  RebalanceConfig rebalance_cfg;

  // Replication (src/repl/): R backup hosts on the fabric; pktstore
  // mutations ack only once a quorum of hosts holds them durably.
  // Requires server.backend == pktstore (other backends ignore it).
  bool repl = false;
  u32 repl_replicas = 2;
  repl::ReplOptions repl_opts;

  // Environment.
  sim::CostModel cost;
  nic::Fabric::Options fabric;
  nic::Nic::Options nic;
  u64 seed = 42;

  // Observability, measurement-window scoped (reset at the warmup
  // boundary): fill metrics_report / metrics_json.
  bool collect_metrics = false;
};

struct RunResult {
  Stats rtt;             // per-request RTT samples, ns
  double kreq_per_s;     // completed requests per second (thousands)
  u64 ops = 0;           // requests completed in the measurement window
  storage::OpBreakdown avg_breakdown;  // server-side, per op
  double server_cpu_util = 0.0;        // busy fraction of the server core
  u64 server_errors = 0;
  u64 retransmits_hint = 0;  // fabric drops (loss experiments)

  // Shard-load spread over the measurement window: requests dispatched
  // per server shard, and max/mean of that vector (1.0 = perfectly even;
  // the S1 rebalancing criterion is a >= 25% drop in this ratio).
  std::vector<u64> shard_requests;
  double imbalance = 1.0;
  // Rebalancer activity (zeros when cfg.rebalance is off).
  u64 rebalance_rounds = 0;
  u64 bucket_moves = 0;
  u64 conns_migrated = 0;

  // Replication activity (zeros when cfg.repl is off).
  u64 repl_forwards = 0;
  u64 repl_acks_rx = 0;
  u64 repl_retransmits = 0;
  u64 repl_degraded_acks = 0;
  u64 repl_tax_ns = 0;  // mean added ack latency per quorum-gated op

  // Observability results (populated per the RunConfig flags).
  obs::Attribution attribution{};       // per-stage means over the window
  pm::PmDevice::FlushEpoch flush{};     // clwb/sfence totals for the window
  std::string metrics_report;           // human table: server + client
  std::string metrics_json;             // {"server": {...}, "client": {...}}
  std::string trace_json;               // Chrome trace_events (Perfetto);
                                        // includes replica apply tracks
                                        // when repl + trace are both on
  u64 flightrec_records = 0;  // flight records appended in the window
  u64 flightrec_wraps = 0;    // ring wraps among them
  u64 trace_dropped = 0;      // spans evicted by the trace ring

  [[nodiscard]] double mean_rtt_us() const { return rtt.mean() / 1000.0; }
  [[nodiscard]] double p99_rtt_us() const {
    return const_cast<Stats&>(rtt).percentile(99) / 1000.0;
  }
};

RunResult run_experiment(const RunConfig& cfg);

// --- Open-loop (production load) experiments ------------------------------

struct OpenLoopRunConfig {
  // Server. server.admin arms /stats, /metrics and /trace/recent;
  // armed-but-unscraped costs zero simulated time (the admin branch only
  // fires on admin URLs), so an admin run without a scraper is
  // byte-identical to one without. /trace/recent serves the span rings
  // that server.trace with a nonzero server.trace_capacity fills.
  ServerConfig server = [] {
    ServerConfig c;
    c.backend = Backend::pktstore;
    return c;
  }();
  int server_cores = 4;
  u64 pm_size = 512u << 20;

  // Offered load.
  int connections = 10'000;
  double rate_rps = 200'000;  // aggregate Poisson arrival rate
  std::size_t value_size = 512;
  double get_ratio = 0.5;
  u64 keyspace = 16384;
  double zipf_theta = 0.0;
  SimTime deadline_ns = kNsPerMs;

  // Timing. Warmup must cover connection setup (the harness widens the
  // connect window automatically for big sweeps).
  SimTime warmup_ns = 50 * kNsPerMs;
  SimTime measure_ns = 200 * kNsPerMs;

  // Rebalancing (as in RunConfig).
  bool rebalance = false;
  RebalanceConfig rebalance_cfg;

  // Environment.
  sim::CostModel cost;
  nic::Fabric::Options fabric;
  nic::Nic::Options nic;
  u64 seed = 42;
  bool collect_metrics = false;

  // With server.admin, a nonzero period runs a scrape probe from its own
  // client host, cycling the three admin endpoints — the configuration
  // the <1% p99 overhead budget is measured in.
  SimTime admin_interval_ns = 0;
};

struct OpenLoopResult {
  Stats sojourn;  // per-request sojourn times (arrival -> response), ns
  u64 arrivals = 0;   // Poisson arrivals in the measurement window
  u64 completed = 0;  // responses received in the window
  u64 deadline_misses = 0;
  double miss_rate = 0.0;  // deadline_misses / completed
  double kreq_per_s = 0.0;
  double offered_krps = 0.0;  // arrivals over the window, for comparison
  u64 errors = 0;
  double server_cpu_util = 0.0;

  // Shard balance + rebalancer activity (see RunResult).
  std::vector<u64> shard_requests;
  double imbalance = 1.0;
  u64 rebalance_rounds = 0;
  u64 bucket_moves = 0;
  u64 conns_migrated = 0;
  u64 indir_remaps = 0;

  // Telemetry plane activity (zeros unless cfg.admin / flight_recorder).
  u64 admin_requests = 0;  // admin GETs the server answered
  u64 admin_scrapes = 0;   // responses the scrape probe completed
  u64 admin_bytes = 0;     // admin response body bytes delivered
  u64 flightrec_records = 0;
  u64 flightrec_wraps = 0;
  u64 trace_dropped = 0;

  std::string metrics_report;
  std::string metrics_json;

  [[nodiscard]] double p50_us() const {
    return const_cast<Stats&>(sojourn).percentile(50) / 1000.0;
  }
  [[nodiscard]] double p99_us() const {
    return const_cast<Stats&>(sojourn).percentile(99) / 1000.0;
  }
  [[nodiscard]] double p999_us() const {
    return const_cast<Stats&>(sojourn).percentile(99.9) / 1000.0;
  }
};

// Runs the two-machine testbed under open-loop load. Beyond ~16k
// connections the client side is sharded across several hosts (distinct
// IPs; the u16 ephemeral-port space caps one host) and their sample sets
// merge into one distribution.
OpenLoopResult run_openloop(const OpenLoopRunConfig& cfg);

// --- Whole-host failover experiments (availability A4) --------------------
//
// Kill the primary mid-load and measure the cluster's recovery: how long
// until a backup declares the primary suspect, how long until the winner
// (max durable seq) is promoted with its apply pipeline drained, and —
// the invariant the quorum bought — that every write the *client* saw
// acked is present and intact on the promoted host.

struct FailoverConfig {
  // Primary (pktstore backend; replication requires it).
  core::PktStoreOptions pkt_opts;
  int server_cores = 1;
  u64 pm_size = 128u << 20;

  // Replication group.
  u32 replicas = 2;
  repl::ReplOptions repl;  // quorum, heartbeat cadence, degrade policy

  // Open-loop PUT-only load (GETs would dilute the acked-write set; the
  // keyspace is left unprimed so every byte on the backups arrived via
  // the replication stream). One client host: one seed, so the per-key
  // value convention Rng(seed * 1315423911 + k) verifies the survivors.
  int connections = 64;
  double rate_rps = 40'000;
  std::size_t value_size = 512;
  u64 keyspace = 1024;

  // The cut: at cut_at_ns the primary's NIC link drops and its forwarder
  // dies (whole-host loss — no goodbye traffic). Must leave room for the
  // client's connect ramp (connections * 5 us) before it.
  SimTime cut_at_ns = 30 * kNsPerMs;
  SimTime detect_budget_ns = 50 * kNsPerMs;  // give-up bound on suspect
  SimTime settle_budget_ns = 50 * kNsPerMs;  // give-up bound on drain

  // Environment.
  sim::CostModel cost;
  nic::Fabric::Options fabric;
  nic::Nic::Options nic;
  u64 seed = 42;
};

struct FailoverResult {
  // Client-visible acked writes before the cut, and how many of those
  // keys the promoted host is missing or holds corrupt (the headline
  // number; the quorum contract says it must be zero).
  u64 acked_puts = 0;
  u64 acked_keys = 0;  // distinct keys among them
  u64 acked_lost = 0;

  bool detected = false;  // a backup declared the primary suspect in budget
  bool settled = false;   // winner drained (durable == applied) in budget
  double detect_us = 0;   // cut -> first suspect declaration
  double failover_us = 0; // cut -> promoted winner fully durable

  u32 winner_ip = 0;
  u64 winner_durable_seq = 0;
  u64 winner_applies = 0;

  // Primary-side replication activity up to the cut.
  u64 repl_forwards = 0;
  u64 repl_acks_rx = 0;
  u64 repl_retransmits = 0;
  u64 degraded_acks = 0;
};

FailoverResult run_failover(const FailoverConfig& cfg);

}  // namespace papm::app
