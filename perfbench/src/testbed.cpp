#include "testbed.h"

#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "app/client.h"
#include "app/openloop.h"
#include "app/server.h"
#include "nic/fabric.h"
#include "obs/export.h"
#include "repl/replica.h"
#include "repl/replicator.h"

namespace perfbench {

namespace app = papm::app;
namespace net = papm::net;
namespace nic = papm::nic;
namespace obs = papm::obs;
namespace pm = papm::pm;
namespace repl = papm::repl;
namespace sim = papm::sim;
using papm::kNsPerMs;
using papm::kNsPerUs;
using papm::Rng;
using papm::Stats;
using papm::u8;

namespace {

// Same addressing plan as app::run_experiment.
constexpr u32 kClientIp = 0x0a000001;
constexpr u32 kServerIp = 0x0a000002;
constexpr u32 kReplicaIpBase = 0x0a0000f1;
constexpr papm::u16 kPort = 9000;
constexpr u32 kReplicas = 2;  // backups of a replicated workload

// Give-up bounds for the post-window phases, in simulated time.
constexpr SimTime kDrainBudgetNs = 100 * kNsPerMs;
constexpr SimTime kDetectBudgetNs = 50 * kNsPerMs;
constexpr SimTime kSettleBudgetNs = 50 * kNsPerMs;
// Failover is polled at app::run_failover's 20 us granularity.
constexpr SimTime kFailoverStepNs = 20 * kNsPerUs;

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The clients' per-key value convention: every PUT of key k carries these
// bytes, so any stored copy can be byte-checked without remembering it.
std::vector<u8> value_for(u64 seed, u64 key, std::size_t len) {
  Rng rng(seed * 1315423911ULL + key);
  std::vector<u8> v(len);
  for (auto& b : v) b = static_cast<u8>(rng.next());
  return v;
}

std::string key_name(u64 k) { return "key" + std::to_string(k); }

std::string shard_name(const std::string& base, u32 shard) {
  return shard == 0 ? base : base + ".s" + std::to_string(shard);
}

// Runs the engine in `step`s until `done()` or `budget` simulated ns have
// passed (periodic timers mean the event heap never empties).
template <typename Done>
void run_while_pending(sim::Env& env, SimTime budget, Done&& done,
                       SimTime step = kNsPerMs) {
  const SimTime deadline = env.now() + budget;
  while (!done() && env.now() < deadline) {
    env.engine.run_until(std::min(deadline, env.now() + step));
  }
}

// Seeded post-run readback: one connection issuing GET /kv/key<k> for each
// key in turn and byte-checking every 200 body against the per-key value.
// A 404 is a failure when the keyspace was primed (every key must exist).
//
// The connection first GETs kProbes keys outside the keyspace, which must
// answer 404: their acks open the server's congestion window past one
// large value, as on any connection that has carried traffic. A fresh
// connection's first zero-copy GET of a value larger than the initial
// window loses its tail today (the truncated-GET hole in ROADMAP.md).
class Readback {
 public:
  static constexpr u64 kProbes = 4;

  Readback(app::Host& host, const std::vector<u64>& keys, u64 keyspace,
           std::size_t value_size, u64 seed, bool absent_ok)
      : host_(host), value_size_(value_size), seed_(seed), absent_ok_(absent_ok) {
    for (u64 i = 0; i < kProbes; i++) keys_.push_back(keyspace + i);
    keys_.insert(keys_.end(), keys.begin(), keys.end());
  }

  void start() {
    conn_ = host_.stack().connect(kServerIp, kPort);
    conn_->on_established = [this](net::TcpConn&) { issue(); };
    conn_->on_readable = [this](net::TcpConn&) { on_readable(); };
  }
  [[nodiscard]] bool done() const { return answered_ == keys_.size(); }
  [[nodiscard]] u64 attempted() const { return keys_.size(); }
  // Mismatches, unexpected statuses and unanswered GETs.
  [[nodiscard]] u64 bad() const { return bad_ + (keys_.size() - answered_); }
  // Keys that read back 200 with the right bytes.
  [[nodiscard]] const std::vector<u64>& present() const { return present_; }

 private:
  void issue() {
    if (next_ >= keys_.size()) return;
    papm::http::Request req;
    req.method = papm::http::Method::get;
    req.target = "/kv/" + key_name(keys_[next_]);
    (void)conn_->send(papm::http::serialize(req));
  }
  void on_readable() {
    std::vector<u8> buf(4096);
    std::size_t n;
    while ((n = conn_->read(buf)) > 0) {
      auto resp = parser_.feed(std::span<const u8>(buf.data(), n));
      if (!resp.has_value()) continue;
      const bool probe = next_ < kProbes;
      const u64 k = keys_[next_++];
      answered_++;
      if (probe) {
        if (resp->status != 404) bad_++;
      } else if (resp->status == 200 &&
          resp->body == value_for(seed_, k, value_size_)) {
        present_.push_back(k);
      } else if (!(resp->status == 404 && absent_ok_)) {
        bad_++;
      }
      issue();
      return;
    }
  }

  app::Host& host_;
  std::vector<u64> keys_;
  std::size_t value_size_;
  u64 seed_;
  bool absent_ok_;
  net::TcpConn* conn_ = nullptr;
  papm::http::ResponseParser parser_;
  std::size_t next_ = 0;
  u64 answered_ = 0;
  u64 bad_ = 0;
  std::vector<u64> present_;
};

// A seeded sample of the keyspace (or all of it), in seeded order.
std::vector<u64> readback_keys(const Workload& w, u64 seed) {
  std::vector<u64> keys(w.keyspace);
  for (u64 k = 0; k < w.keyspace; k++) keys[k] = k;
  Rng rng(seed ^ 0x7265616462616b31ULL);
  for (u64 i = w.keyspace; i > 1; i--) {
    std::swap(keys[i - 1], keys[rng.next_below(i)]);
  }
  if (w.readback_keys != 0 && w.readback_keys < keys.size()) {
    keys.resize(w.readback_keys);
  }
  return keys;
}

// Server CPU busy share over exactly the window: work charged before the
// window but executing inside it counts, work charged inside but running
// past its end does not (HostCpu books a charge when it is scheduled).
struct CpuMark {
  std::vector<SimTime> busy, free_at;
  SimTime at = 0;
};
CpuMark cpu_mark(sim::HostCpu& cpu, SimTime now) {
  CpuMark m;
  m.at = now;
  for (int c = 0; c < cpu.cores(); c++) {
    m.busy.push_back(cpu.busy_ns(static_cast<std::size_t>(c)));
    m.free_at.push_back(cpu.free_at(static_cast<std::size_t>(c)));
  }
  return m;
}
double clipped_util(const CpuMark& a, const CpuMark& b) {
  if (a.busy.empty() || b.at <= a.at) return 0.0;
  double busy = 0;
  for (std::size_t c = 0; c < a.busy.size(); c++) {
    const SimTime carry_in = std::max<SimTime>(0, a.free_at[c] - a.at);
    const SimTime carry_out = std::max<SimTime>(0, b.free_at[c] - b.at);
    busy += static_cast<double>(b.busy[c] - a.busy[c] + carry_in - carry_out);
  }
  return busy / (static_cast<double>(b.at - a.at) *
                 static_cast<double>(a.busy.size()));
}

double shard_imbalance(const app::KvServer& server, u32 shards) {
  if (shards < 2) return 1.0;
  u64 total = 0, peak = 0;
  for (u32 i = 0; i < shards; i++) {
    total += server.shard_requests(i);
    peak = std::max(peak, server.shard_requests(i));
  }
  return total == 0 ? 1.0
                    : static_cast<double>(peak) * shards /
                          static_cast<double>(total);
}

double pct_us(Stats& s, double p) { return s.percentile(p) / 1000.0; }

// Restart of a cut host from its persisted PM image: clone the persisted
// image, recover every shard's pool and store. Holds the recovered objects
// so the caller can byte-check them.
struct Restart {
  std::unique_ptr<pm::PmDevice> dev;
  std::vector<std::unique_ptr<pm::PmPool>> pools;
  std::vector<std::unique_ptr<net::PmArena>> arenas;
  std::vector<std::unique_ptr<net::PktBufPool>> pktpools;
  std::vector<std::unique_ptr<papm::core::PktStore>> stores;
  SimTime sim_ns = 0;     // simulated recovery time
  SimTime tower_ns = 0;   // PSkipList tower rebuild, summed over shards
  double clone_ms = 0, recover_ms = 0;  // host clock
  bool ok = true;

  Restart(sim::Env& env, pm::PmDevice& image, u32 shards,
          const papm::core::PktStoreOptions& opts) {
    const double t0 = host_now();
    dev = image.clone_persisted();
    const double t1 = host_now();
    const SimTime s0 = env.now();
    for (u32 i = 0; i < shards && ok; i++) {
      auto pool = pm::PmPool::recover(*dev, shard_name("pkts", i));
      if (!pool.ok()) {
        ok = false;
        break;
      }
      pools.push_back(std::make_unique<pm::PmPool>(std::move(pool.value())));
      arenas.push_back(std::make_unique<net::PmArena>(*dev, *pools.back()));
      pktpools.push_back(
          std::make_unique<net::PktBufPool>(env, *arenas.back()));
      auto st = papm::core::PktStore::recover(*pktpools.back(),
                                              shard_name("store", i), opts);
      if (!st.ok()) {
        ok = false;
        break;
      }
      tower_ns += st->index_recover_stats().tower_ns;
      stores.push_back(
          std::make_unique<papm::core::PktStore>(std::move(st.value())));
    }
    sim_ns = env.now() - s0;
    clone_ms = (t1 - t0) * 1e3;
    recover_ms = (host_now() - t1) * 1e3;
  }

  // Keys of `keys` missing or corrupt in every recovered shard.
  u64 lost(const std::vector<u64>& keys, u64 seed, std::size_t len) const {
    if (!ok) return keys.size();
    u64 n = 0;
    for (u64 k : keys) {
      const auto want = value_for(seed, k, len);
      bool found = false;
      for (const auto& s : stores) {
        const auto got = s->get(key_name(k));
        if (got.ok() && got.value() == want) {
          found = true;
          break;
        }
      }
      if (!found) n++;
    }
    return n;
  }
};

// Closed- or open-loop load on one client host, behind one interface.
struct Load {
  std::optional<app::WrkClient> closed;
  std::optional<app::OpenLoopClient> open;
  app::Host* host = nullptr;

  void start() { closed ? closed->start() : open->start(); }
  void stop() { closed ? closed->stop() : open->stop(); }
  // Requests attempted so far: issued (closed) or arrived (open).
  [[nodiscard]] u64 attempted() const {
    if (closed) return host->metrics(0).counter("client.requests").value();
    return open->arrivals();
  }
  [[nodiscard]] u64 answered() const {
    return closed ? closed->completed() : open->completed();
  }
  [[nodiscard]] u64 http_errors() const {
    return closed ? closed->http_errors() : open->http_errors();
  }
  [[nodiscard]] Stats& latencies() {
    return closed ? closed->latencies() : open->sojourns();
  }
  void reset_stats() { closed ? closed->reset_stats() : open->reset_stats(); }
};

std::vector<Workload> all_workloads() {
  std::vector<Workload> ws;
  {
    Workload w;
    w.name = "put1k_closed";
    w.open_loop = false;
    w.server_cores = 1;
    w.connections = 50;
    w.value_size = 1024;
    w.get_ratio = 0.0;
    w.keyspace = 4096;
    w.warmup_ns = 20 * kNsPerMs;
    w.measure_ns = 200 * kNsPerMs;
    ws.push_back(w);
  }
  {
    Workload w;
    w.name = "mix512_open";
    w.open_loop = true;
    w.server_cores = 4;
    w.connections = 10'000;
    w.rate_rps = 200'000;
    w.value_size = 512;
    w.get_ratio = 0.5;
    w.keyspace = 16384;
    w.prime = true;
    w.deadline_ns = 200 * kNsPerUs;
    w.warmup_ns = 50 * kNsPerMs;
    w.measure_ns = 200 * kNsPerMs;
    w.readback_keys = 2048;
    for (double r = 150'000; r <= 300'000; r += 25'000) w.ladder_rps.push_back(r);
    w.ladder_measure_ns = 50 * kNsPerMs;
    w.slo_p99_ns = 200 * kNsPerUs;
    ws.push_back(w);
  }
  {
    Workload w;
    w.name = "put16k_repl";
    w.open_loop = false;
    w.server_cores = 1;
    w.connections = 16;
    w.value_size = 16384;
    w.get_ratio = 0.0;
    w.keyspace = 1024;
    w.pm_size = 128u << 20;  // 16 MB of live values; the rest is headroom
    w.warmup_ns = 20 * kNsPerMs;
    w.measure_ns = 500 * kNsPerMs;
    w.sub_seeds = 6;
    w.repl = true;
    w.slicing = true;
    ws.push_back(w);
  }
  return ws;
}

}  // namespace

std::optional<Workload> find_workload(const std::string& name) {
  for (auto& w : all_workloads()) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& w : all_workloads()) names.push_back(w.name);
  return names;
}

RepResult run_rep(const Workload& w, const RepOptions& opt) {
  RepResult r;
  const double t_start = host_now();

  sim::Env env;
  env.rng = Rng(opt.seed);
  nic::Fabric fabric(env, nic::Fabric::Options{});
  nic::Nic::Options nic_opts;
  nic_opts.payload_slicing = w.slicing;

  app::HostConfig shc;
  shc.ip = kServerIp;
  shc.cores = w.server_cores;
  shc.busy_poll = true;
  shc.pm_backed = true;
  shc.pm_size = w.pm_size;
  shc.nic = nic_opts;
  app::Host server_host(env, fabric, shc);

  app::ServerConfig sc;
  sc.backend = app::Backend::pktstore;
  sc.pkt_opts.insert =
      w.slicing ? papm::core::InsertPolicy::auto_ : papm::core::InsertPolicy::host;
  sc.trace = opt.trace;
  app::KvServer server(server_host, sc);

  // Backups and the primary-side forwarder, armed to detect a silent
  // primary (as app::run_failover does).
  std::vector<std::unique_ptr<repl::ReplicaNode>> replicas;
  std::vector<SimTime> suspect_at(w.repl ? kReplicas : 0, 0);
  std::optional<repl::Replicator> replicator;
  repl::ReplOptions ropts;
  ropts.quorum = 2;  // the primary plus one backup
  if (w.repl) {
    std::vector<u32> peer_ips;
    for (u32 i = 0; i < kReplicas; i++) {
      repl::ReplicaConfig rc;
      rc.ip = kReplicaIpBase + i;
      rc.primary_ip = kServerIp;
      rc.index = i;
      rc.opts = ropts;
      rc.store_opts = sc.pkt_opts;
      rc.nic = nic_opts;
      auto node = std::make_unique<repl::ReplicaNode>(env, fabric, rc);
      node->on_primary_suspect = [&env, &suspect_at, i] {
        suspect_at[i] = env.now();
      };
      replicas.push_back(std::move(node));
      peer_ips.push_back(rc.ip);
    }
    replicator.emplace(env, server_host.udp(), ropts, std::move(peer_ips));
    replicator->start_heartbeats();
    server.set_replicator(&*replicator);
  }

  app::HostConfig chc;
  chc.ip = kClientIp;
  chc.cores = 0;  // the client machine is not the bottleneck
  chc.busy_poll = false;
  app::Host client_host(env, fabric, chc);

  Load load;
  load.host = &client_host;
  SimTime warmup = w.warmup_ns;
  if (w.open_loop) {
    // Pace the SYNs and stretch the warmup over connection set-up, with
    // the same formula as app::run_openloop.
    const SimTime connect_window =
        static_cast<SimTime>(w.connections) * 5 * kNsPerUs;
    warmup = std::max<SimTime>(
        w.warmup_ns, connect_window + connect_window / 4 + 20 * kNsPerMs);
    app::OpenLoopConfig occ;
    occ.server_ip = kServerIp;
    occ.connections = w.connections;
    occ.rate_rps = w.rate_rps;
    occ.value_size = w.value_size;
    occ.get_ratio = w.get_ratio;
    occ.keyspace = w.keyspace;
    occ.seed = opt.seed;
    occ.deadline_ns = w.deadline_ns;
    occ.connect_window_ns = connect_window;
    load.open.emplace(client_host, occ);
  } else {
    app::ClientConfig ccfg;
    ccfg.server_ip = kServerIp;
    ccfg.connections = w.connections;
    ccfg.value_size = w.value_size;
    ccfg.get_ratio = w.get_ratio;
    ccfg.keyspace = w.keyspace;
    ccfg.seed = opt.seed;
    load.closed.emplace(client_host, ccfg);
    load.closed->set_tracing(opt.trace);
  }
  const double t_hosts = host_now();
  r.host.setup_hosts = t_hosts - t_start;

  if (w.prime) {
    for (u64 k = 0; k < w.keyspace; k++) {
      (void)server.prime(key_name(k), value_for(opt.seed, k, w.value_size));
    }
  }
  const double t_primed = host_now();
  r.host.prime = t_primed - t_hosts;

  load.start();
  env.engine.run_until(warmup);
  // Warmup/measure boundary. Whole-run failure accounting keeps the
  // warmup's attempts and answers; window metrics start from zero.
  const u64 warm_attempted = load.attempted();
  const u64 warm_answered = load.answered();
  const u64 warm_errors = load.http_errors();
  load.reset_stats();
  server.reset_stats();
  server_host.reset_obs();
  client_host.reset_obs();
  for (auto& node : replicas) node->trace().clear();
  const u64 fwd_before = replicator ? replicator->forwards() : 0;
  const u64 rtx_before = replicator ? replicator->retransmits() : 0;
  const CpuMark cpu_a = cpu_mark(server_host.cpu(), env.now());
  const double t_warm = host_now();
  r.host.warmup = t_warm - t_primed;

  // Backlog (attempted but unanswered) at the middle and the end of the
  // window: the rate ladder's growing-backlog test.
  auto backlog = [&] {
    const u64 attempted = warm_attempted + load.attempted();
    return attempted - std::min(attempted, warm_answered + load.answered());
  };
  env.engine.run_until(warmup + w.measure_ns / 2);
  const u64 mid_attempted = load.attempted();
  r.backlog_mid = backlog();
  if (opt.cut_link_mid_window) server_host.nic().set_link_up(false);
  env.engine.run_until(warmup + w.measure_ns);
  r.backlog_end = backlog();
  r.second_half_attempted = load.attempted() - mid_attempted;
  load.stop();
  const double t_window = host_now();
  r.host.window = t_window - t_warm;

  // --- Window results (simulated clock) ---------------------------------
  SimResult& s = r.sim;
  Stats& lat = r.latencies = load.latencies();  // responses in the window
  const u64 window_answered = load.answered();
  const CpuMark cpu_b = cpu_mark(server_host.cpu(), env.now());
  const pm::PmDevice::FlushEpoch flush = server_host.pm_device().obs_epoch();
  const u64 window_deadline_misses =
      load.open ? load.open->deadline_misses() : 0;
  const u64 window_arrivals = load.open ? load.open->arrivals() : 0;
  s.samples = lat.count();
  r.window_requests = window_answered;
  s.kreq_per_s = static_cast<double>(window_answered) /
                 (static_cast<double>(w.measure_ns) / 1e9) / 1000.0;
  s.p50_us = pct_us(lat, 50);
  s.p99_us = pct_us(lat, 99);
  s.p999_us = pct_us(lat, 99.9);
  s.mean_us = lat.mean() / 1000.0;
  s.max_us = lat.max() / 1000.0;

  // --- Per-layer simulated results over the window (traced reps) ---------
  LayerSim& L = r.layer;
  obs::TraceLog window_trace;
  if (opt.trace) {
    window_trace = server_host.merged_trace();
    if (load.closed) window_trace.merge_from(load.closed->trace());
    for (const auto& node : replicas) window_trace.merge_from(node->trace());
    const obs::Attribution att = obs::attribute(window_trace);
    for (int i = 0; i < obs::kStages; i++) {
      L.stage_us[i] = att.mean_ns(static_cast<obs::Stage>(i)) / 1000.0;
    }
    const int apply = static_cast<int>(obs::Stage::repl_apply);
    L.repl_apply_us = att.spans[apply] == 0
                          ? 0.0
                          : static_cast<double>(att.total_ns[apply]) /
                                static_cast<double>(att.spans[apply]) / 1000.0;
    const double ops = static_cast<double>(std::max<u64>(1, window_answered));
    L.clwb_per_op = static_cast<double>(flush.clwb) / ops;
    L.sfence_per_op = static_cast<double>(flush.sfence) / ops;
    L.imbalance = shard_imbalance(server, server_host.datapaths());
    L.cpu_util = clipped_util(cpu_a, cpu_b);
    L.wait_us = s.mean_us - att.server_sum_ns() / 1000.0;
    L.tcp_retransmits =
        server_host.merged_metrics().counter("tcp.retransmits").value() +
        client_host.merged_metrics().counter("tcp.retransmits").value();
    if (replicator) {
      L.repl_forwards_per_op =
          static_cast<double>(replicator->forwards() - fwd_before) / ops;
      L.repl_retransmits = replicator->retransmits() - rtx_before;
    }
    L.trace_spans = window_trace.size();
  }

  // --- Drain: every attempted request must get its one response ----------
  run_while_pending(env, kDrainBudgetNs, [&] {
    return warm_answered + load.answered() >= warm_attempted + load.attempted();
  });
  const u64 attempted_reqs = warm_attempted + load.attempted();
  const u64 answered_reqs = warm_answered + load.answered();
  s.unanswered = attempted_reqs - std::min(attempted_reqs, answered_reqs);
  s.http_errors = warm_errors + load.http_errors();

  // --- Seeded readback over the network ----------------------------------
  Readback rb(client_host, readback_keys(w, opt.seed), w.keyspace,
              w.value_size, opt.seed, /*absent_ok=*/!w.prime);
  rb.start();
  run_while_pending(
      env, 10 * kNsPerMs + static_cast<SimTime>(rb.attempted()) * 200 * kNsPerUs,
      [&] { return rb.done(); });
  s.readback_bad = rb.bad();
  s.attempted = attempted_reqs + rb.attempted();

  // --- put16k_repl: cut, failover, restart, byte-check acked keys --------
  // Every request was answered 2xx (else failed > 0 already), so the keys
  // the primary served are exactly the acked ones.
  std::optional<Restart> restart;
  if (w.repl) {
    const std::vector<u64>& acked = rb.present();
    s.acked_keys = acked.size();
    // Liveness monitors arm at the cut: a saturated primary core can delay
    // heartbeats past the timeout, and a suspicion raised under load would
    // be a different experiment from the failover measured here.
    for (auto& node : replicas) node->monitor_primary();
    const SimTime cut = env.now();
    server_host.nic().set_link_up(false);
    replicator->stop();
    run_while_pending(
        env, kDetectBudgetNs,
        [&] {
          for (SimTime t : suspect_at) {
            if (t != 0) return true;
          }
          return false;
        },
        kFailoverStepNs);
    SimTime first = 0;
    for (SimTime t : suspect_at) {
      if (t != 0 && (first == 0 || t < first)) first = t;
    }
    repl::ReplicaNode* winner = nullptr;
    if (first != 0) {
      s.detect_us = static_cast<double>(first - cut) / 1000.0;
      // Highest durable seq wins; ties go to the lower address.
      winner = replicas[0].get();
      for (auto& node : replicas) {
        if (node->durable_seq() > winner->durable_seq()) winner = node.get();
      }
      winner->promote();
      run_while_pending(
          env, kSettleBudgetNs,
          [&] { return winner->durable_seq() == winner->applied_seq(); },
          kFailoverStepNs);
      s.failover_us = static_cast<double>(env.now() - cut) / 1000.0;
    }
    if (winner == nullptr) {
      s.acked_lost += acked.size();  // no backup detected the cut in budget
    } else {
      for (u64 k : acked) {
        const auto got = winner->store().get(key_name(k));
        if (!got.ok() || got.value() != value_for(opt.seed, k, w.value_size)) {
          s.acked_lost++;
        }
      }
      // A winner still applying when the budget ran out never failed over.
      if (winner->durable_seq() != winner->applied_seq()) s.acked_lost++;
    }
    restart.emplace(env, server_host.pm_device(), 1, sc.pkt_opts);
    s.restart_us = static_cast<double>(restart->sim_ns) / 1000.0;
    s.acked_lost += restart->lost(acked, opt.seed, w.value_size);
    s.attempted += 2 * acked.size();
  } else if (opt.trace) {
    // Traced reps restart every workload's server image, for the recovery
    // layer metrics; the check rides outside SimResult so traced and
    // untraced reps stay comparable.
    restart.emplace(env, server_host.pm_device(),
                    static_cast<u32>(w.server_cores), sc.pkt_opts);
    if (restart->lost(rb.present(), opt.seed, w.value_size) != 0) {
      throw std::runtime_error("restart lost keys the server had served");
    }
  }
  s.failed = s.unanswered + s.http_errors + s.readback_bad + s.acked_lost;
  const u64 window_base = w.open_loop ? window_arrivals : window_answered;
  s.slo_miss_rate =
      window_base == 0
          ? 1.0
          : std::min(1.0, static_cast<double>(window_deadline_misses + s.failed) /
                              static_cast<double>(window_base));
  r.host.post = host_now() - t_window;
  if (restart) {
    r.host.clone_ms = restart->clone_ms;
    r.host.recover_ms = restart->recover_ms;
  }

  if (restart) {
    L.tower_rebuild_us = static_cast<double>(restart->tower_ns) / 1000.0;
  }
  if (!opt.trace_path.empty()) {
    std::ofstream out(opt.trace_path);
    out << obs::chrome_trace_json(window_trace);
  }
  return r;
}

std::vector<LadderRung> run_ladder(const Workload& w, u64 seed) {
  std::vector<LadderRung> rungs;
  for (double rate : w.ladder_rps) {
    Workload rw = w;
    rw.rate_rps = rate;
    rw.measure_ns = w.ladder_measure_ns;
    RepOptions o;
    o.seed = seed;
    const RepResult r = run_rep(rw, o);
    LadderRung g;
    g.rate_rps = rate;
    g.samples = r.sim.samples;
    g.p99_us = r.sim.p99_us;
    g.backlog_first = r.backlog_mid;
    g.backlog_second = r.backlog_end;
    // Growing: the second half added more than 2% of its arrivals.
    g.growing = static_cast<double>(r.backlog_end) >
                static_cast<double>(r.backlog_mid) +
                    0.02 * static_cast<double>(r.second_half_attempted);
    g.pass = !g.growing && r.sim.failed == 0 &&
             g.p99_us * 1000.0 <= static_cast<double>(w.slo_p99_ns);
    rungs.push_back(g);
    if (!g.pass) break;  // past the knee: higher rungs only collapse harder
  }
  return rungs;
}

}  // namespace perfbench
