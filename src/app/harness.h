// Experiment harness: the two-machine testbed of §3 (a busy-polling PM
// server — one datapath shard per configured core, the paper's
// configuration being one — + multi-core client over a 25 GbE fabric)
// and three workload drivers over it. run_experiment runs a closed-loop
// workload and reports latency, throughput and the per-operation
// breakdown; every bench target (Table 1, Figure 2, the ablations) is a
// thin loop over it. run_openloop and run_failover drive the same
// testbed under production load and through the primary's loss.
#pragma once

#include <deque>

#include "app/client.h"
#include "app/openloop.h"
#include "app/rebalance.h"
#include "app/server.h"
#include "nic/fabric.h"
#include "repl/replica.h"

namespace papm::app {

// Backups in every replicated run: three hosts with the primary, so
// quorum 2 survives one loss and quorum 3 waits for every host.
constexpr u32 kReplBackups = 2;

// What every harness config sets alike: server machine and environment.
struct TestbedConfig {
  int server_cores = 1;  // "the server uses only one CPU core"
  u64 pm_size = 512u << 20;  // server PM device, split across core shards
  sim::CostModel cost;
  nic::Fabric::Options fabric;
  nic::Nic::Options nic;  // every host's NIC: server, clients, backups
  u64 seed = 42;
};

// Server-side results of a load run's measurement window
// (Testbed::collect).
struct TestbedResult {
  double kreq_per_s = 0.0;  // completed requests per second (thousands)
  double server_cpu_util = 0.0;  // busy fraction of the server cores
  // Requests per server shard and their max/mean (1.0 = perfectly even;
  // the S1 rebalancing criterion is a >= 25% drop in this ratio).
  std::vector<u64> shard_requests;
  double imbalance = 1.0;
  u64 rebalance_rounds = 0;  // rebalancer activity (zeros without one)
  u64 bucket_moves = 0;
  u64 conns_migrated = 0;
  u64 flightrec_records = 0;  // flight records appended in the window
  u64 flightrec_wraps = 0;
  u64 trace_dropped = 0;  // spans evicted by the trace rings
  // Server and client machines as separate sections, so same-named
  // metrics (http.parse_errors) don't merge.
  std::string metrics_report;  // human table
  std::string metrics_json;    // {"server": {...}, "client": {...}}
};

// One run's machines: the environment, the fabric, the PM server and its
// KvServer, client machines, an optional backup group and rebalancer.
// Drivers build the parts in a fixed order (PM carve-outs and event
// sequence numbers depend on it) and run the workload; the Testbed owns
// the warmup/measure boundary and the server-side results.
class Testbed {
 public:
  // The environment, the fabric and the server machine (busy-polling,
  // PM-backed, one datapath shard per core).
  explicit Testbed(const TestbedConfig& cfg);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] sim::Env& env() noexcept { return env_; }
  [[nodiscard]] nic::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] Host& server_host() noexcept { return server_host_; }
  [[nodiscard]] std::vector<std::unique_ptr<repl::ReplicaNode>>& backups() {
    return backups_;
  }

  // Builds the KvServer; every call below but add_client needs it.
  KvServer& start_server(const ServerConfig& cfg);

  // A client machine: cores = 0 (not the bottleneck), no busy-poll.
  // Measured ones reset at the warmup boundary and fill the client
  // metrics section.
  Host& add_client(u32 ip, bool measured = true);

  // kReplBackups backups at 10.0.0.241+ and the server's Replicator,
  // heartbeating. `monitor` arms each backup's primary-silence detector.
  repl::Replicator& add_backups(const repl::ReplOptions& opts,
                                const core::PktStoreOptions& store_opts,
                                bool monitor);

  // Runs the shard-load monitor; no-op with one server core.
  void start_rebalancer(const RebalanceConfig& cfg);

  // Stores every key's value_for() bytes; charges no simulated time.
  void prime(u64 keyspace, std::size_t value_size);

  // Warmup/measure boundary: zeroes the server's stats, every measured
  // host's counters and spans, and the backups' span logs (a stitched
  // trace must not carry apply spans whose primary side is gone).
  void begin_measurement();

  // Server spans, then `client`'s, then the backups' apply spans (keyed
  // by the primary's trace ids): one stitched log of the run.
  [[nodiscard]] obs::TraceLog trace(const obs::TraceLog* client = nullptr) const;

  // Stops the rebalancer and fills r for `completed` requests over a
  // measurement window of `measure_ns`.
  void collect(TestbedResult& r, u64 completed, SimTime measure_ns,
               bool metrics);

 private:
  TestbedConfig cfg_;
  sim::Env env_;
  nic::Fabric fabric_;
  Host server_host_;
  std::optional<KvServer> server_;
  std::deque<Host> clients_;  // deque: Host is pinned
  std::vector<Host*> measured_;
  std::vector<std::unique_ptr<repl::ReplicaNode>> backups_;
  std::optional<repl::Replicator> replicator_;
  std::optional<Rebalancer> rebalancer_;
  SimTime busy_before_ = 0;
  u64 flightrec_before_ = 0;
};

struct RunConfig : TestbedConfig {
  // Server. server.trace also collects the client's spans and fills the
  // attribution and trace JSON below.
  ServerConfig server;

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

  // Replication (src/repl/): kReplBackups hosts on the fabric; pktstore
  // mutations ack only once a quorum of hosts holds them durably.
  // Requires server.backend == pktstore (other backends ignore it).
  bool repl = false;
  repl::ReplOptions repl_opts;

  // Observability, measurement-window scoped (reset at the warmup
  // boundary): fill metrics_report / metrics_json.
  bool collect_metrics = false;
};

struct RunResult : TestbedResult {
  Stats rtt;             // per-request RTT samples, ns
  u64 ops = 0;           // requests completed in the measurement window
  storage::OpBreakdown avg_breakdown;  // server-side, per op
  u64 server_errors = 0;   // server errors + client HTTP errors (not misses)
  u64 gets_checked = 0;    // GET bodies byte-checked by the client
  u64 retransmits_hint = 0;  // fabric drops (loss experiments)

  // Replication activity (zeros when cfg.repl is off).
  u64 repl_forwards = 0;
  u64 repl_acks_rx = 0;
  u64 repl_retransmits = 0;
  u64 repl_degraded_acks = 0;
  u64 repl_tax_ns = 0;  // mean added ack latency per quorum-gated op

  // Observability results (populated per the RunConfig flags).
  obs::Attribution attribution{};       // per-stage means over the window
  pm::PmDevice::FlushEpoch flush{};     // clwb/sfence totals for the window
  std::string trace_json;               // Chrome trace_events (Perfetto);
                                        // includes replica apply tracks
                                        // when repl + trace are both on

  [[nodiscard]] double mean_rtt_us() const { return rtt.mean() / 1000.0; }
  [[nodiscard]] double p99_rtt_us() const {
    return const_cast<Stats&>(rtt).percentile(99) / 1000.0;
  }
};

RunResult run_experiment(const RunConfig& cfg);

// --- Open-loop (production load) experiments ------------------------------

struct OpenLoopRunConfig : TestbedConfig {
  OpenLoopRunConfig() { server_cores = 4; }

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

  // Rebalancing (as in RunConfig), with the default policy.
  bool rebalance = false;

  bool collect_metrics = false;

  // With server.admin, a nonzero period runs a scrape probe from its own
  // client host, cycling the three admin endpoints — the configuration
  // the <1% p99 overhead budget is measured in.
  SimTime admin_interval_ns = 0;
};

struct OpenLoopResult : TestbedResult {
  Stats sojourn;  // per-request sojourn times (arrival -> response), ns
  u64 arrivals = 0;   // Poisson arrivals in the measurement window
  u64 completed = 0;  // responses received in the window
  u64 deadline_misses = 0;
  double miss_rate = 0.0;  // deadline_misses / completed
  double offered_krps = 0.0;  // arrivals over the window, for comparison
  u64 errors = 0;  // server errors + client HTTP errors (404s are misses)
  u64 gets_checked = 0;  // GET bodies byte-checked by the clients
  u64 indir_remaps = 0;  // NIC indirection-table rewrites (rebalancer)

  // Telemetry plane activity (zeros unless cfg.admin).
  u64 admin_requests = 0;  // admin GETs the server answered
  u64 admin_scrapes = 0;   // responses the scrape probe completed
  u64 admin_bytes = 0;     // admin response body bytes delivered

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

struct FailoverConfig : TestbedConfig {
  FailoverConfig() { pm_size = 128u << 20; }

  // Primary (pktstore backend; replication requires it).
  core::PktStoreOptions pkt_opts;

  // Replication group (kReplBackups backups).
  repl::ReplOptions repl;  // quorum, heartbeat cadence, degrade policy

  // Open-loop PUT-only load (GETs would dilute the acked-write set; the
  // keyspace is left unprimed so every byte on the backups arrived via
  // the replication stream). PUT values derive from the run's seed, so
  // value_for() verifies the survivors.
  int connections = 64;
  double rate_rps = 40'000;
  std::size_t value_size = 512;
  u64 keyspace = 1024;

  // The cut: at cut_at_ns the primary's NIC link drops and its forwarder
  // dies (whole-host loss — no goodbye traffic). Must leave room for the
  // client's connect ramp (connections * 5 us) before it.
  SimTime cut_at_ns = 30 * kNsPerMs;
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
