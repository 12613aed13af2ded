#include "app/harness.h"

#include <map>

#include "repl/replica.h"

namespace papm::app {

namespace {
constexpr u32 kClientIp = 0x0a000001;
constexpr u32 kServerIp = 0x0a000002;
// Backup hosts for cfg.repl: 10.0.0.241+, clear of clients and server.
constexpr u32 kReplicaIpBase = 0x0a0000f1;
// Open-loop client hosts: 10.1.0.x, clear of the closed-loop pair above.
constexpr u32 kOpenLoopClientBase = 0x0a010000;
// Connections one client host may open (u16 ephemeral ports from 33000
// leave ~32k; half that keeps a comfortable margin).
constexpr int kMaxConnsPerClientHost = 16'000;

// Admin host: 10.0.0.3, a dedicated machine for the scrape probe so its
// (tiny) client-side costs never touch the load generators.
constexpr u32 kAdminIp = 0x0a000003;

// Periodic scrape of the admin plane — the Prometheus-sidecar role. One
// connection cycling GET /stats -> /metrics -> /trace/recent at a fixed
// period, sharing the fabric and the server's datapath cores with the
// measured load; whatever it costs the tail is the admin overhead.
class AdminProbe {
 public:
  AdminProbe(Host& host, u32 server_ip, u16 port, SimTime period)
      : host_(host), server_ip_(server_ip), port_(port), period_(period) {}

  void start() {
    conn_ = host_.stack().connect(server_ip_, port_);
    conn_->on_established = [this](net::TcpConn&) { tick(); };
    conn_->on_readable = [this](net::TcpConn&) { on_readable(); };
  }
  void stop() noexcept { stopped_ = true; }
  [[nodiscard]] u64 scrapes() const noexcept { return scrapes_; }
  [[nodiscard]] u64 bytes() const noexcept { return bytes_; }
  void reset_stats() noexcept { scrapes_ = bytes_ = 0; }

 private:
  void tick() {
    if (stopped_ || conn_ == nullptr ||
        conn_->state() != net::TcpState::established) {
      return;
    }
    host_.env().engine.schedule_in(period_, [this] { tick(); });
    if (in_flight_) return;  // slow scrape: skip a beat, never pipeline
    in_flight_ = true;
    static constexpr const char* kTargets[3] = {"/stats", "/metrics",
                                                "/trace/recent"};
    auto& env = host_.env();
    env.clock().advance(env.cost.scaled(env.cost.client_http_build_ns));
    http::Request req;
    req.method = http::Method::get;
    req.target = kTargets[next_++ % 3];
    (void)conn_->send(http::serialize(req));
  }
  void on_readable() {
    std::size_t n;
    while ((n = conn_->read(rx_buf_)) > 0) {
      const auto resp = parser_.feed(std::span<const u8>(rx_buf_.data(), n));
      if (!resp.has_value()) continue;
      in_flight_ = false;
      scrapes_++;
      bytes_ += resp->body.size();
    }
  }

  Host& host_;
  u32 server_ip_;
  u16 port_;
  SimTime period_;
  net::TcpConn* conn_ = nullptr;
  http::ResponseParser parser_;
  std::vector<u8> rx_buf_ = std::vector<u8>(4096);  // on_readable scratch
  std::size_t next_ = 0;
  bool in_flight_ = false;
  bool stopped_ = false;
  u64 scrapes_ = 0;
  u64 bytes_ = 0;
};

// The server machine of every testbed: busy-polling, PM-backed, one
// datapath shard per core.
HostConfig server_host_config(int cores, u64 pm_size,
                              const nic::Nic::Options& nic) {
  HostConfig c;
  c.ip = kServerIp;
  c.cores = cores;
  c.busy_poll = true;
  c.pm_backed = true;
  c.pm_size = pm_size;
  c.nic = nic;
  return c;
}

// max/mean of the per-shard request counts (1.0 when even or trivial).
double shard_imbalance(const std::vector<u64>& reqs) {
  if (reqs.size() < 2) return 1.0;
  u64 total = 0, peak = 0;
  for (u64 r : reqs) {
    total += r;
    peak = std::max(peak, r);
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(reqs.size());
  return static_cast<double>(peak) / mean;
}
}  // namespace

RunResult run_experiment(const RunConfig& cfg) {
  sim::Env env;
  env.cost = cfg.cost;
  env.rng = Rng(cfg.seed);

  nic::Fabric fabric(env, cfg.fabric);

  Host server_host(env, fabric,
                   server_host_config(cfg.server_cores, cfg.pm_size, cfg.nic));

  HostConfig client_cfg;
  client_cfg.ip = kClientIp;
  client_cfg.cores = 0;  // the client machine is not the bottleneck
  client_cfg.busy_poll = false;
  client_cfg.nic = cfg.nic;
  Host client_host(env, fabric, client_cfg);

  KvServer server(server_host, cfg.server);

  // Replication testbed: R backup hosts plus the primary-side forwarder.
  std::vector<std::unique_ptr<repl::ReplicaNode>> replicas;
  std::optional<repl::Replicator> replicator;
  if (cfg.repl && cfg.server.backend == Backend::pktstore) {
    std::vector<u32> peer_ips;
    for (u32 i = 0; i < cfg.repl_replicas; i++) {
      repl::ReplicaConfig rc;
      rc.ip = kReplicaIpBase + i;
      rc.primary_ip = kServerIp;
      rc.index = i;
      rc.opts = cfg.repl_opts;
      rc.store_opts = cfg.server.pkt_opts;
      replicas.push_back(std::make_unique<repl::ReplicaNode>(env, fabric, rc));
      peer_ips.push_back(rc.ip);
    }
    replicator.emplace(env, server_host.udp(), cfg.repl_opts,
                       std::move(peer_ips));
    replicator->start_heartbeats();
    server.set_replicator(&*replicator);
  }

  ClientConfig ccfg;
  ccfg.server_ip = kServerIp;
  ccfg.connections = cfg.connections;
  ccfg.value_size = cfg.value_size;
  ccfg.get_ratio = cfg.get_ratio;
  ccfg.keyspace = cfg.keyspace;
  ccfg.zipf_theta = cfg.zipf_theta;
  ccfg.seed = cfg.seed;
  WrkClient client(client_host, ccfg);
  client.set_tracing(cfg.server.trace);

  std::optional<Rebalancer> rebalancer;
  if (cfg.rebalance && cfg.server_cores > 1) {
    rebalancer.emplace(server_host, server, cfg.rebalance_cfg);
    rebalancer->start();
  }

  client.start();
  env.engine.run_until(cfg.warmup_ns);
  client.reset_stats();
  server.reset_stats();
  // Warmup/measure boundary: zero every counter and span so the exported
  // observability covers exactly the measurement window. The replica
  // hosts' logs too — a stitched trace must not carry warmup-era apply
  // spans that no longer have a primary-side counterpart.
  server_host.reset_obs();
  client_host.reset_obs();
  for (auto& node : replicas) node->trace().clear();
  const SimTime busy_before = server_host.cpu().busy_ns();

  env.engine.run_until(cfg.warmup_ns + cfg.measure_ns);
  client.stop();

  RunResult r;
  r.rtt = client.latencies();
  r.ops = client.completed();
  r.kreq_per_s = static_cast<double>(client.completed()) /
                 (static_cast<double>(cfg.measure_ns) / 1e9) / 1000.0;
  if (server.breakdown_ops() > 0) {
    r.avg_breakdown = server.breakdown_sum();
    r.avg_breakdown /= static_cast<SimTime>(server.breakdown_ops());
  }
  r.server_cpu_util =
      static_cast<double>(server_host.cpu().busy_ns() - busy_before) /
      static_cast<double>(cfg.measure_ns * std::max(1, cfg.server_cores));
  r.server_errors = server.errors() + client.http_errors();
  r.retransmits_hint = fabric.dropped();
  for (u32 i = 0; i < server_host.datapaths(); i++) {
    r.shard_requests.push_back(server.shard_requests(i));
  }
  r.imbalance = shard_imbalance(r.shard_requests);
  if (rebalancer.has_value()) {
    rebalancer->stop();
    r.rebalance_rounds = rebalancer->rounds();
    r.bucket_moves = rebalancer->bucket_moves();
    r.conns_migrated = rebalancer->conns_moved();
  }

  if (replicator.has_value()) {
    r.repl_forwards = replicator->forwards();
    r.repl_acks_rx = replicator->acks_rx();
    r.repl_retransmits = replicator->retransmits();
    r.repl_degraded_acks = replicator->degraded_acks();
    if (server.repl_gated_ops() > 0) {
      r.repl_tax_ns = server.repl_tax_ns() / server.repl_gated_ops();
    }
  }

  r.flush = server_host.pm_device().obs_epoch();
  if (cfg.collect_metrics) {
    // Server and client are distinct machines: report them as separate
    // sections so same-named metrics (http.parse_errors) don't merge.
    const obs::MetricRegistry sm = server_host.merged_metrics();
    const obs::MetricRegistry cm = client_host.merged_metrics();
    r.metrics_report =
        "== server ==\n" + sm.report() + "== client ==\n" + cm.report();
    r.metrics_json =
        "{\"server\": " + sm.to_json() + ", \"client\": " + cm.to_json() + "}";
  }
  if (cfg.server.trace) {
    obs::TraceLog merged = server_host.merged_trace();
    merged.merge_from(client.trace());
    // Cross-host stitching: the replicas' apply spans carry the primary's
    // trace ids, so merging their logs puts primary, client and replicas
    // in one Perfetto trace — the quorum tax as a cross-track span.
    for (const auto& node : replicas) merged.merge_from(node->trace());
    r.attribution = obs::attribute(merged);
    r.trace_json = obs::chrome_trace_json(merged);
    r.trace_dropped = merged.dropped();
  }
  r.flightrec_records = server.flightrec_records();
  r.flightrec_wraps = server.flightrec_wraps();
  return r;
}

FailoverResult run_failover(const FailoverConfig& cfg) {
  FailoverResult r;
  sim::Env env;
  env.cost = cfg.cost;
  env.rng = Rng(cfg.seed);
  nic::Fabric fabric(env, cfg.fabric);

  Host server_host(env, fabric,
                   server_host_config(cfg.server_cores, cfg.pm_size, cfg.nic));

  ServerConfig scfg;
  scfg.backend = Backend::pktstore;
  scfg.pkt_opts = cfg.pkt_opts;
  KvServer server(server_host, scfg);

  // Backups, armed to detect the primary's silence.
  std::vector<std::unique_ptr<repl::ReplicaNode>> replicas;
  std::vector<u32> peer_ips;
  std::vector<SimTime> suspect_at(cfg.replicas, 0);
  for (u32 i = 0; i < cfg.replicas; i++) {
    repl::ReplicaConfig rc;
    rc.ip = kReplicaIpBase + i;
    rc.primary_ip = kServerIp;
    rc.index = i;
    rc.opts = cfg.repl;
    rc.store_opts = cfg.pkt_opts;
    rc.nic = cfg.nic;
    auto node = std::make_unique<repl::ReplicaNode>(env, fabric, rc);
    node->on_primary_suspect = [&env, &suspect_at, i] {
      suspect_at[i] = env.now();
    };
    node->monitor_primary();
    replicas.push_back(std::move(node));
    peer_ips.push_back(rc.ip);
  }
  repl::Replicator replicator(env, server_host.udp(), cfg.repl,
                              std::move(peer_ips));
  replicator.start_heartbeats();
  server.set_replicator(&replicator);

  // One PUT-only open-loop client host; its acked-key set is what the
  // promoted store must fully contain.
  HostConfig chc;
  chc.ip = kOpenLoopClientBase;
  chc.cores = 0;
  chc.busy_poll = false;
  chc.nic = cfg.nic;
  Host client_host(env, fabric, chc);
  OpenLoopConfig occ;
  occ.server_ip = kServerIp;
  occ.connections = cfg.connections;
  occ.rate_rps = cfg.rate_rps;
  occ.value_size = cfg.value_size;
  occ.get_ratio = 0.0;
  occ.keyspace = cfg.keyspace;
  occ.seed = cfg.seed;
  occ.connect_window_ns = static_cast<SimTime>(cfg.connections) * 5 * kNsPerUs;
  OpenLoopClient client(client_host, occ);
  std::map<u64, u64> acked;  // key idx -> acked-put count
  client.on_put_ok = [&acked, &r](u64 key_idx) {
    acked[key_idx]++;
    r.acked_puts++;
  };

  client.start();
  env.engine.run_until(cfg.cut_at_ns);

  // The cut: link down, forwarder dead, load stops. Frames already on
  // the wire (including client acks the quorum released) still deliver —
  // an ack in flight at the cut is an ack the client will count, so the
  // survivors set keeps growing for one propagation delay. That is the
  // honest accounting: those writes WERE quorum-durable when acked.
  const SimTime cut = env.now();
  server_host.nic().set_link_up(false);
  replicator.stop();
  client.stop();

  // Detection: run until some backup declares the primary suspect.
  while (env.now() < cut + cfg.detect_budget_ns) {
    env.engine.run_until(env.now() + 20 * kNsPerUs);
    bool fired = false;
    for (u32 i = 0; i < cfg.replicas; i++) fired = fired || suspect_at[i] != 0;
    if (fired) break;
  }
  SimTime first_suspect = 0;
  for (u32 i = 0; i < cfg.replicas; i++) {
    if (suspect_at[i] != 0 &&
        (first_suspect == 0 || suspect_at[i] < first_suspect)) {
      first_suspect = suspect_at[i];
    }
  }
  if (first_suspect == 0) return r;  // budget blown: report the failure
  r.detected = true;
  r.detect_us = static_cast<double>(first_suspect - cut) / 1000.0;

  // Election: highest durable seq wins (cumulative acks make it a
  // superset of every acked write); ties break toward the lower IP.
  repl::ReplicaNode* winner = replicas[0].get();
  for (auto& node : replicas) {
    if (node->durable_seq() > winner->durable_seq()) winner = node.get();
  }
  winner->promote();

  // Settle: the winner's in-flight apply epochs drain (group-commit
  // watchdogs close them without new traffic).
  while (env.now() < cut + cfg.detect_budget_ns + cfg.settle_budget_ns) {
    if (winner->durable_seq() == winner->applied_seq()) {
      r.settled = true;
      break;
    }
    env.engine.run_until(env.now() + 20 * kNsPerUs);
  }
  r.settled = r.settled || winner->durable_seq() == winner->applied_seq();
  r.failover_us = static_cast<double>(env.now() - cut) / 1000.0;
  r.winner_ip = winner->ip();
  r.winner_durable_seq = winner->durable_seq();
  r.winner_applies = winner->applies();

  // The contract check: every client-acked key must read back from the
  // promoted store with exactly the deterministic per-key value.
  r.acked_keys = acked.size();
  for (const auto& [key_idx, n] : acked) {
    Rng vr(cfg.seed * 1315423911ULL + key_idx);
    std::vector<u8> want(cfg.value_size);
    for (auto& b : want) b = static_cast<u8>(vr.next());
    const auto got = winner->store().get("key" + std::to_string(key_idx));
    if (!got.ok() || got.value() != want) r.acked_lost++;
  }

  r.repl_forwards = replicator.forwards();
  r.repl_acks_rx = replicator.acks_rx();
  r.repl_retransmits = replicator.retransmits();
  r.degraded_acks = replicator.degraded_acks();
  return r;
}

OpenLoopResult run_openloop(const OpenLoopRunConfig& cfg) {
  sim::Env env;
  env.cost = cfg.cost;
  env.rng = Rng(cfg.seed);

  nic::Fabric fabric(env, cfg.fabric);

  Host server_host(env, fabric,
                   server_host_config(cfg.server_cores, cfg.pm_size, cfg.nic));

  KvServer server(server_host, cfg.server);

  // Big sweeps need their SYNs spread out and the warmup stretched to
  // cover establishment: 100k handshakes cannot hide inside a 50 ms
  // warmup, so the effective warmup grows with the connection count. The
  // pacing matters as much as the stretch — at 2 µs/SYN the accept storm
  // outruns 4 cores (each accept + SYN-ACK costs several µs on top of
  // the offered request load), the backlog grows for the whole window,
  // and the 1 ms initial RTO turns the un-drained queue into a
  // retransmit flood that persists into measurement. 5 µs/SYN keeps the
  // accept rate inside capacity, and the settling time scales with the
  // window so whatever transient does form drains before stats reset.
  // The measurement window itself is untouched.
  const SimTime connect_window =
      static_cast<SimTime>(cfg.connections) * 5 * kNsPerUs;
  const SimTime warmup = std::max<SimTime>(
      cfg.warmup_ns, connect_window + connect_window / 4 + 20 * kNsPerMs);

  // Shard the client side: one host per ~16k connections (ephemeral-port
  // space), each with its own IP and its own slice of the offered load.
  const int n_hosts =
      (cfg.connections + kMaxConnsPerClientHost - 1) / kMaxConnsPerClientHost;
  std::vector<std::unique_ptr<Host>> client_hosts;
  std::vector<std::unique_ptr<OpenLoopClient>> clients;
  int assigned = 0;
  for (int h = 0; h < n_hosts; h++) {
    HostConfig chc;
    chc.ip = kOpenLoopClientBase + static_cast<u32>(h);
    chc.cores = 0;  // client machines are not the bottleneck
    chc.busy_poll = false;
    chc.nic = cfg.nic;
    client_hosts.push_back(std::make_unique<Host>(env, fabric, chc));

    const int remaining_hosts = n_hosts - h;
    const int conns = (cfg.connections - assigned) / remaining_hosts;
    assigned += conns;

    OpenLoopConfig occ;
    occ.server_ip = kServerIp;
    occ.connections = conns;
    occ.rate_rps = cfg.rate_rps * conns / std::max(1, cfg.connections);
    occ.value_size = cfg.value_size;
    occ.get_ratio = cfg.get_ratio;
    occ.keyspace = cfg.keyspace;
    occ.zipf_theta = cfg.zipf_theta;
    occ.seed = cfg.seed + static_cast<u64>(h) * 86243;
    occ.deadline_ns = cfg.deadline_ns;
    occ.connect_window_ns = connect_window;
    clients.push_back(
        std::make_unique<OpenLoopClient>(*client_hosts.back(), occ));
  }

  std::optional<Rebalancer> rebalancer;
  if (cfg.rebalance && cfg.server_cores > 1) {
    rebalancer.emplace(server_host, server, cfg.rebalance_cfg);
    rebalancer->start();
  }

  // The scrape probe, on its own machine. Only with a nonzero period:
  // cfg.admin alone arms the endpoints without generating any traffic
  // (the byte-identity configuration).
  std::optional<Host> admin_host;
  std::optional<AdminProbe> probe;
  if (cfg.server.admin && cfg.admin_interval_ns > 0) {
    HostConfig ahc;
    ahc.ip = kAdminIp;
    ahc.cores = 0;
    ahc.busy_poll = false;
    ahc.nic = cfg.nic;
    admin_host.emplace(env, fabric, ahc);
    probe.emplace(*admin_host, kServerIp, cfg.server.port,
                  cfg.admin_interval_ns);
  }

  // Prime the whole keyspace (same per-key value convention as the
  // generators) so measured GETs read real data instead of 404ing on a
  // cold store. Priming is setup: it charges no simulated time.
  for (u64 k = 0; k < cfg.keyspace; k++) {
    Rng vr(cfg.seed * 1315423911ULL + k);
    std::vector<u8> v(cfg.value_size);
    for (auto& b : v) b = static_cast<u8>(vr.next());
    server.prime("key" + std::to_string(k), v);
  }

  for (auto& c : clients) c->start();
  if (probe.has_value()) probe->start();  // scraping spans the warmup too
  env.engine.run_until(warmup);
  for (auto& c : clients) c->reset_stats();
  server.reset_stats();
  server_host.reset_obs();
  for (auto& ch : client_hosts) ch->reset_obs();
  if (probe.has_value()) probe->reset_stats();
  const u64 admin_before = server.admin_requests();
  const u64 flightrec_before = server.flightrec_records();
  const SimTime busy_before = server_host.cpu().busy_ns();

  env.engine.run_until(warmup + cfg.measure_ns);
  for (auto& c : clients) c->stop();
  if (probe.has_value()) probe->stop();

  OpenLoopResult r;
  for (auto& c : clients) {
    r.sojourn.merge_from(c->sojourns());
    r.arrivals += c->arrivals();
    r.completed += c->completed();
    r.deadline_misses += c->deadline_misses();
    r.errors += c->http_errors();
  }
  r.errors += server.errors();
  r.miss_rate = r.completed > 0 ? static_cast<double>(r.deadline_misses) /
                                      static_cast<double>(r.completed)
                                : 0.0;
  const double window_s = static_cast<double>(cfg.measure_ns) / 1e9;
  r.kreq_per_s = static_cast<double>(r.completed) / window_s / 1000.0;
  r.offered_krps = static_cast<double>(r.arrivals) / window_s / 1000.0;
  r.server_cpu_util =
      static_cast<double>(server_host.cpu().busy_ns() - busy_before) /
      static_cast<double>(cfg.measure_ns * std::max(1, cfg.server_cores));
  for (u32 i = 0; i < server_host.datapaths(); i++) {
    r.shard_requests.push_back(server.shard_requests(i));
  }
  r.imbalance = shard_imbalance(r.shard_requests);
  r.indir_remaps = server_host.nic().indir_remaps();
  if (rebalancer.has_value()) {
    rebalancer->stop();
    r.rebalance_rounds = rebalancer->rounds();
    r.bucket_moves = rebalancer->bucket_moves();
    r.conns_migrated = rebalancer->conns_moved();
  }
  r.admin_requests = server.admin_requests() - admin_before;
  if (probe.has_value()) {
    r.admin_scrapes = probe->scrapes();
    r.admin_bytes = probe->bytes();
  }
  r.flightrec_records = server.flightrec_records() - flightrec_before;
  r.flightrec_wraps = server.flightrec_wraps();
  if (cfg.server.trace) {
    r.trace_dropped = server_host.merged_trace().dropped();
  }
  if (cfg.collect_metrics) {
    const obs::MetricRegistry sm = server_host.merged_metrics();
    obs::MetricRegistry cm;
    for (auto& ch : client_hosts) cm.merge_from(ch->merged_metrics());
    r.metrics_report =
        "== server ==\n" + sm.report() + "== client ==\n" + cm.report();
    r.metrics_json =
        "{\"server\": " + sm.to_json() + ", \"client\": " + cm.to_json() + "}";
  }
  return r;
}

}  // namespace papm::app
