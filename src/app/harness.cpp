#include "app/harness.h"

#include <algorithm>
#include <numeric>
#include <set>

namespace papm::app {

namespace {

// The server (pm_size > 0) polls its cores; clients take interrupts.
HostConfig host_config(u32 ip, int cores, const nic::Nic::Options& nic,
                       u64 pm_size = 0) {
  HostConfig c;
  c.ip = ip;
  c.cores = cores;
  c.busy_poll = c.pm_backed = pm_size > 0;
  c.pm_size = pm_size;
  c.nic = nic;
  return c;
}

// The addressing plan: server 10.0.0.2, backups 10.0.0.241+, and each
// driver's own clients — closed loop 10.0.0.1, open loop 10.1.0.h,
// failover 10.1.0.0, and the admin probe on a machine of its own at
// 10.0.0.3, so its client-side costs never touch the load generators.
// RSS hashes addresses: moving a client moves its flows between queues,
// and with them the simulated results.
constexpr u32 kServerIp = 0x0a000002;
constexpr u32 kBackupIpBase = 0x0a0000f1;
constexpr u32 kClientIp = 0x0a000001;
constexpr u32 kOpenLoopClientBase = 0x0a010000;
constexpr u32 kAdminIp = 0x0a000003;
// Connections one client host may open (u16 ephemeral ports from 33000
// leave ~32k; half that keeps a comfortable margin).
constexpr int kMaxConnsPerClientHost = 16'000;
// run_failover's give-up bounds after the cut: until a backup declares
// the primary suspect, then until the winner drains (durable == applied).
constexpr SimTime kDetectBudgetNs = 50 * kNsPerMs;
constexpr SimTime kSettleBudgetNs = 50 * kNsPerMs;

// Periodic scrape of the admin plane — the Prometheus-sidecar role. One
// connection cycling GET /stats -> /metrics -> /trace/recent at a fixed
// period, sharing the fabric and the server's datapath cores with the
// measured load; whatever it costs the tail is the admin overhead.
class AdminProbe {
 public:
  AdminProbe(Host& host, u16 port, SimTime period)
      : host_(host), port_(port), period_(period) {}

  void start() {
    conn_ = host_.stack().connect(kServerIp, port_);
    conn_->on_established = [this](net::TcpConn&) { tick(); };
    conn_->on_readable = [this](net::TcpConn&) {
      while (const auto resp = read_response(*conn_, parser_)) {
        in_flight_ = false;
        scrapes++;
        bytes += resp->body.size();
      }
    };
  }
  void stop() noexcept { stopped_ = true; }

  u64 scrapes = 0;  // responses completed
  u64 bytes = 0;    // response body bytes delivered

 private:
  void tick() {
    if (stopped_ || conn_->state() != net::TcpState::established) return;
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

  Host& host_;
  u16 port_;
  SimTime period_;
  net::TcpConn* conn_ = nullptr;
  http::ResponseParser parser_;
  std::size_t next_ = 0;
  bool in_flight_ = false;
  bool stopped_ = false;
};

}  // namespace

Testbed::Testbed(const TestbedConfig& cfg)
    : cfg_(cfg),
      env_{.engine = {}, .cost = cfg.cost, .rng = Rng(cfg.seed)},
      fabric_(env_, cfg.fabric),
      server_host_(env_, fabric_,
                   host_config(kServerIp, cfg.server_cores, cfg.nic,
                               cfg.pm_size)) {}

KvServer& Testbed::start_server(const ServerConfig& cfg) {
  return server_.emplace(server_host_, cfg);
}

Host& Testbed::add_client(u32 ip, bool measured) {
  Host& h = clients_.emplace_back(env_, fabric_, host_config(ip, 0, cfg_.nic));
  if (measured) measured_.push_back(&h);
  return h;
}

repl::Replicator& Testbed::add_backups(const repl::ReplOptions& opts,
                                       const core::PktStoreOptions& store_opts,
                                       bool monitor) {
  std::vector<u32> peer_ips;
  for (u32 i = 0; i < kReplBackups; i++) {
    repl::ReplicaConfig rc;
    rc.ip = kBackupIpBase + i;
    rc.primary_ip = kServerIp;
    rc.index = i;
    rc.opts = opts;
    rc.store_opts = store_opts;
    rc.nic = cfg_.nic;
    auto& node = backups_.emplace_back(
        std::make_unique<repl::ReplicaNode>(env_, fabric_, rc));
    if (monitor) node->monitor_primary();
    peer_ips.push_back(rc.ip);
  }
  replicator_.emplace(env_, server_host_.udp(), opts, std::move(peer_ips));
  replicator_->start_heartbeats();
  server_->set_replicator(&*replicator_);
  return *replicator_;
}

void Testbed::start_rebalancer(const RebalanceConfig& cfg) {
  if (cfg_.server_cores <= 1) return;
  rebalancer_.emplace(server_host_, *server_, cfg);
  rebalancer_->start();
}

void Testbed::prime(u64 keyspace, std::size_t value_size) {
  for (u64 k = 0; k < keyspace; k++) {
    server_->prime("key" + std::to_string(k), value_for(cfg_.seed, k, value_size));
  }
}

void Testbed::begin_measurement() {
  server_->reset_stats();
  server_host_.reset_obs();
  for (Host* h : measured_) h->reset_obs();
  for (auto& node : backups_) node->trace().clear();
  busy_before_ = server_host_.cpu().busy_ns();
  flightrec_before_ = server_->flightrec_records();
}

obs::TraceLog Testbed::trace(const obs::TraceLog* client) const {
  obs::TraceLog t = server_host_.merged_trace();
  if (client != nullptr) t.merge_from(*client);
  for (const auto& node : backups_) t.merge_from(node->trace());
  return t;
}

void Testbed::collect(TestbedResult& r, u64 completed, SimTime measure_ns,
                      bool metrics) {
  const double window_s = static_cast<double>(measure_ns) / 1e9;
  r.kreq_per_s = static_cast<double>(completed) / window_s / 1000.0;
  r.server_cpu_util =
      static_cast<double>(server_host_.cpu().busy_ns() - busy_before_) /
      static_cast<double>(measure_ns * std::max(1, cfg_.server_cores));
  for (u32 i = 0; i < server_host_.datapaths(); i++) {
    r.shard_requests.push_back(server_->shard_requests(i));
  }
  const auto& q = r.shard_requests;
  const u64 total = std::accumulate(q.begin(), q.end(), u64{0});
  if (q.size() > 1 && total > 0) {
    r.imbalance = static_cast<double>(*std::max_element(q.begin(), q.end())) /
                  (static_cast<double>(total) / static_cast<double>(q.size()));
  }
  if (rebalancer_.has_value()) {
    rebalancer_->stop();
    r.rebalance_rounds = rebalancer_->rounds();
    r.bucket_moves = rebalancer_->bucket_moves();
    r.conns_migrated = rebalancer_->conns_moved();
  }
  r.flightrec_records = server_->flightrec_records() - flightrec_before_;
  r.flightrec_wraps = server_->flightrec_wraps();
  r.trace_dropped = trace().dropped();
  if (metrics) {
    const obs::MetricRegistry sm = server_host_.merged_metrics();
    obs::MetricRegistry cm;
    for (Host* h : measured_) cm.merge_from(h->merged_metrics());
    r.metrics_report =
        "== server ==\n" + sm.report() + "== client ==\n" + cm.report();
    r.metrics_json =
        "{\"server\": " + sm.to_json() + ", \"client\": " + cm.to_json() + "}";
  }
}

RunResult run_experiment(const RunConfig& cfg) {
  Testbed tb(cfg);
  Host& client_host = tb.add_client(kClientIp);
  KvServer& server = tb.start_server(cfg.server);
  const repl::Replicator* rep = nullptr;
  if (cfg.repl && cfg.server.backend == Backend::pktstore) {
    rep = &tb.add_backups(cfg.repl_opts, cfg.server.pkt_opts,
                          /*monitor=*/false);
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
  if (cfg.rebalance) tb.start_rebalancer(cfg.rebalance_cfg);

  client.start();
  tb.env().engine.run_until(cfg.warmup_ns);
  client.reset_stats();
  tb.begin_measurement();
  tb.env().engine.run_until(cfg.warmup_ns + cfg.measure_ns);
  client.stop();

  RunResult r;
  r.rtt = client.latencies();
  r.ops = client.completed();
  if (server.breakdown_ops() > 0) {
    r.avg_breakdown = server.breakdown_sum();
    r.avg_breakdown /= static_cast<SimTime>(server.breakdown_ops());
  }
  r.server_errors = server.errors() + client.http_errors();
  r.gets_checked = client.gets_checked();
  r.retransmits_hint = tb.fabric().dropped();
  tb.collect(r, r.ops, cfg.measure_ns, cfg.collect_metrics);
  if (rep != nullptr) {
    r.repl_forwards = rep->forwards();
    r.repl_acks_rx = rep->acks_rx();
    r.repl_retransmits = rep->retransmits();
    r.repl_degraded_acks = rep->degraded_acks();
    if (server.repl_gated_ops() > 0) {
      r.repl_tax_ns = server.repl_tax_ns() / server.repl_gated_ops();
    }
  }

  r.flush = tb.server_host().pm_device().obs_epoch();
  if (cfg.server.trace) {
    // Primary, client and replicas in one Perfetto trace — the quorum
    // tax as a cross-track span.
    const obs::TraceLog merged = tb.trace(&client.trace());
    r.attribution = obs::attribute(merged);
    r.trace_json = obs::chrome_trace_json(merged);
  }
  return r;
}

FailoverResult run_failover(const FailoverConfig& cfg) {
  FailoverResult r;
  Testbed tb(cfg);
  sim::Env& env = tb.env();
  ServerConfig scfg;
  scfg.backend = Backend::pktstore;
  scfg.pkt_opts = cfg.pkt_opts;
  tb.start_server(scfg);

  // Backups, armed to detect the primary's silence.
  repl::Replicator& replicator =
      tb.add_backups(cfg.repl, cfg.pkt_opts, /*monitor=*/true);
  auto& replicas = tb.backups();
  SimTime first_suspect = 0;  // earliest suspect declaration
  for (auto& node : replicas) {
    node->on_primary_suspect = [&env, &first_suspect] {
      if (first_suspect == 0 || env.now() < first_suspect) {
        first_suspect = env.now();
      }
    };
  }

  // One PUT-only open-loop client host; its acked-key set is what the
  // promoted store must fully contain.
  OpenLoopConfig occ;
  occ.server_ip = kServerIp;
  occ.connections = cfg.connections;
  occ.rate_rps = cfg.rate_rps;
  occ.value_size = cfg.value_size;
  occ.get_ratio = 0.0;
  occ.keyspace = cfg.keyspace;
  occ.seed = cfg.seed;
  occ.connect_window_ns = static_cast<SimTime>(cfg.connections) * 5 * kNsPerUs;
  OpenLoopClient client(tb.add_client(kOpenLoopClientBase), occ);
  std::set<u64> acked;  // key indices
  client.on_put_ok = [&acked, &r](u64 key_idx) {
    acked.insert(key_idx);
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
  tb.server_host().nic().set_link_up(false);
  replicator.stop();
  client.stop();

  // Detection: run until some backup declares the primary suspect.
  while (env.now() < cut + kDetectBudgetNs) {
    env.engine.run_until(env.now() + 20 * kNsPerUs);
    if (first_suspect != 0) break;
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

  // Settle: the winner's in-flight apply epochs drain (its batcher's idle
  // and deadline checks close them without new traffic).
  while (env.now() < cut + kDetectBudgetNs + kSettleBudgetNs &&
         winner->durable_seq() != winner->applied_seq()) {
    env.engine.run_until(env.now() + 20 * kNsPerUs);
  }
  r.settled = winner->durable_seq() == winner->applied_seq();
  r.failover_us = static_cast<double>(env.now() - cut) / 1000.0;
  r.winner_ip = winner->ip();
  r.winner_durable_seq = winner->durable_seq();
  r.winner_applies = winner->applies();

  // The contract check: every client-acked key must read back from the
  // promoted store with exactly the deterministic per-key value.
  r.acked_keys = acked.size();
  for (const u64 key_idx : acked) {
    const auto got = winner->store().get("key" + std::to_string(key_idx));
    if (!got.ok() ||
        !value_matches(cfg.seed, key_idx, cfg.value_size, got.value())) {
      r.acked_lost++;
    }
  }

  r.repl_forwards = replicator.forwards();
  r.repl_acks_rx = replicator.acks_rx();
  r.repl_retransmits = replicator.retransmits();
  r.degraded_acks = replicator.degraded_acks();
  return r;
}

OpenLoopResult run_openloop(const OpenLoopRunConfig& cfg) {
  Testbed tb(cfg);
  KvServer& server = tb.start_server(cfg.server);

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
  std::vector<std::unique_ptr<OpenLoopClient>> clients;
  int assigned = 0;
  for (int h = 0; h < n_hosts; h++) {
    Host& host = tb.add_client(kOpenLoopClientBase + static_cast<u32>(h));
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
    occ.seed = cfg.seed;
    occ.deadline_ns = cfg.deadline_ns;
    occ.connect_window_ns = connect_window;
    clients.push_back(std::make_unique<OpenLoopClient>(host, occ, h));
  }
  if (cfg.rebalance) tb.start_rebalancer(RebalanceConfig{});

  // The scrape probe, on its own (unmeasured) machine. Only with a
  // nonzero period: cfg.admin alone arms the endpoints without generating
  // any traffic (the byte-identity configuration).
  std::optional<AdminProbe> probe;
  if (cfg.server.admin && cfg.admin_interval_ns > 0) {
    probe.emplace(tb.add_client(kAdminIp, /*measured=*/false),
                  cfg.server.port, cfg.admin_interval_ns);
  }
  tb.prime(cfg.keyspace, cfg.value_size);

  for (auto& c : clients) c->start();
  if (probe.has_value()) probe->start();  // scraping spans the warmup too
  tb.env().engine.run_until(warmup);
  for (auto& c : clients) c->reset_stats();
  if (probe.has_value()) probe->scrapes = probe->bytes = 0;
  tb.begin_measurement();
  const u64 admin_before = server.admin_requests();

  tb.env().engine.run_until(warmup + cfg.measure_ns);
  for (auto& c : clients) c->stop();
  if (probe.has_value()) probe->stop();

  OpenLoopResult r;
  for (auto& c : clients) {
    r.sojourn.merge_from(c->sojourns());
    r.arrivals += c->arrivals();
    r.completed += c->completed();
    r.deadline_misses += c->deadline_misses();
    r.errors += c->http_errors();
    r.gets_checked += c->gets_checked();
  }
  r.errors += server.errors();
  r.miss_rate = r.completed > 0 ? static_cast<double>(r.deadline_misses) /
                                      static_cast<double>(r.completed)
                                : 0.0;
  r.offered_krps = static_cast<double>(r.arrivals) /
                   (static_cast<double>(cfg.measure_ns) / 1e9) / 1000.0;
  tb.collect(r, r.completed, cfg.measure_ns, cfg.collect_metrics);
  r.indir_remaps = tb.server_host().nic().indir_remaps();
  r.admin_requests = server.admin_requests() - admin_before;
  if (probe.has_value()) {
    r.admin_scrapes = probe->scrapes;
    r.admin_bytes = probe->bytes;
  }
  return r;
}

}  // namespace papm::app
