// RSS indirection-table rebalancing: remap determinism, flow-group
// migration correctness (per-flow FIFO, zero acked-write loss, epoch
// safety), and the open-loop harness that drives it.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "app/harness.h"
#include "app/rebalance.h"
#include "app/server.h"
#include "http/http.h"
#include "nic/fabric.h"

using namespace papm;
using namespace papm::app;

namespace {

// Two-machine testbed with a multi-shard server, plus one raw client
// connection whose responses are collected in arrival order — the
// instrument for observing per-flow FIFO across a migration.
struct RebalanceRig {
  sim::Env env;
  nic::Fabric fabric{env};
  Host server;
  Host client;
  KvServer srv;
  net::TcpConn* conn = nullptr;
  http::ResponseParser parser;
  std::vector<http::Response> responses;

  explicit RebalanceRig(const ServerConfig& sc, int server_cores = 4)
      : server(env, fabric, server_cfg(server_cores)),
        client(env, fabric, client_cfg()),
        srv(server, sc) {
    conn = client.stack().connect(2, 9000);
    conn->on_readable = [this](net::TcpConn& c) {
      std::vector<u8> buf(8192);
      std::size_t n;
      while ((n = c.read(buf)) > 0) {
        // One read may carry several pipelined responses; the parser
        // buffers leftovers, so drain it with empty feeds.
        auto r = parser.feed(std::span<const u8>(buf.data(), n));
        while (r.has_value()) {
          responses.push_back(std::move(*r));
          r = parser.feed({});
        }
      }
    };
    env.engine.run_until_idle();
  }

  static HostConfig server_cfg(int cores) {
    HostConfig c;
    c.ip = 2;
    c.cores = cores;
    c.busy_poll = true;
    c.pm_backed = true;
    c.pm_size = 256u << 20;
    return c;
  }
  static HostConfig client_cfg() {
    HostConfig c;
    c.ip = 1;
    c.cores = 0;
    return c;
  }

  // The indirection-table bucket (and current queue) this connection's
  // frames hit on the *server* NIC: src = client, dst = server.
  [[nodiscard]] u32 bucket() const {
    return nic::Nic::rss_bucket_of(
        nic::rss_toeplitz(1, 2, conn->local_port(), 9000));
  }
  [[nodiscard]] u32 queue() { return server.nic().indirection(bucket()); }

  void send(http::Method m, std::string target, std::vector<u8> body = {}) {
    http::Request req;
    req.method = m;
    req.target = std::move(target);
    req.body = std::move(body);
    (void)conn->send(http::serialize(req));
  }
  // Send and run to completion (non-pipelined).
  const http::Response& request(http::Method m, std::string target,
                                std::vector<u8> body = {}) {
    const std::size_t before = responses.size();
    send(m, std::move(target), std::move(body));
    env.engine.run_until_idle();
    EXPECT_EQ(responses.size(), before + 1);
    return responses.back();
  }
};

std::vector<u8> body_for(int i) {
  return std::vector<u8>(64 + static_cast<std::size_t>(i) * 7,
                         static_cast<u8>('a' + i));
}

}  // namespace

// --- Indirection table unit behavior ---------------------------------------

TEST(Indirection, DefaultTableMatchesModuloSteering) {
  ServerConfig sc;
  sc.backend = Backend::pktstore;
  RebalanceRig t(sc, /*server_cores=*/4);
  nic::Nic& nic = t.server.nic();
  for (u32 b = 0; b < nic::Nic::kIndirEntries; b++) {
    EXPECT_EQ(nic.indirection(b), b % 4u);
  }
  // Two-step steering: rx_queue_for goes through the table.
  const u32 hash = nic::rss_toeplitz(1, 2, 40000, 9000);
  EXPECT_EQ(nic.rx_queue_for(1, 2, 40000, 9000),
            nic.indirection(nic::Nic::rss_bucket_of(hash)));
}

TEST(Indirection, RemapIsDeterministicClampedAndCounted) {
  ServerConfig sc;
  sc.backend = Backend::pktstore;
  RebalanceRig t(sc, /*server_cores=*/4);
  nic::Nic& nic = t.server.nic();
  EXPECT_EQ(nic.indir_remaps(), 0u);

  // Default entry for bucket 7 is 7 % 4 == 3; remap it elsewhere.
  nic.set_indirection(7, 2);
  EXPECT_EQ(nic.indirection(7), 2u);
  EXPECT_EQ(nic.indir_remaps(), 1u);
  // Re-setting the same mapping is a no-op, not a remap.
  nic.set_indirection(7, 2);
  EXPECT_EQ(nic.indir_remaps(), 1u);
  // Out-of-range queue clamps to the last real queue (bucket 9's default
  // is 1, so this counts as a remap).
  nic.set_indirection(9, 99);
  EXPECT_EQ(nic.indirection(9), 3u);
  EXPECT_EQ(nic.indir_remaps(), 2u);
  // Bucket index wraps modulo the table size (entry 5's default is 1).
  nic.set_indirection(nic::Nic::kIndirEntries + 5, 2);
  EXPECT_EQ(nic.indirection(5), 2u);
}

// --- Flow-group migration correctness --------------------------------------

// Migrating a connection's flow group mid-pipeline must preserve per-flow
// FIFO ordering and lose no acknowledged write: values PUT before the
// migration (stored on the source shard) read back byte-identical through
// the destination shard afterwards.
TEST(Migration, PreservesFifoAndAckedWrites) {
  ServerConfig sc;
  sc.backend = Backend::pktstore;
  RebalanceRig t(sc);
  Rebalancer rebal(t.server, t.srv);

  const u32 from = t.queue();
  const u32 to = (from + 1) % 4;
  ASSERT_EQ(t.server.stack(from).conn_count(), 1u);

  // Acked writes on the source shard.
  constexpr int kKeys = 8;
  for (int i = 0; i < kKeys; i++) {
    const auto& r =
        t.request(http::Method::put, "/kv/mig" + std::to_string(i), body_for(i));
    ASSERT_EQ(r.status, 201);
  }

  // Pipeline GETs for every key, then fire the migration while their
  // frames and responses are in flight.
  t.responses.clear();
  for (int i = 0; i < kKeys; i++) {
    t.send(http::Method::get, "/kv/mig" + std::to_string(i));
  }
  t.env.engine.schedule_in(5'000, [&] { rebal.migrate_bucket(t.bucket(), from, to); });
  t.env.engine.run_until_idle();

  // The connection now lives on the destination stack...
  EXPECT_EQ(t.server.stack(from).conn_count(), 0u);
  EXPECT_EQ(t.server.stack(to).conn_count(), 1u);
  EXPECT_EQ(t.server.nic().indirection(t.bucket()), to);
  EXPECT_EQ(rebal.bucket_moves(), 1u);
  EXPECT_EQ(rebal.conns_moved(), 1u);

  // ...and every response arrived, in request order, byte-identical.
  ASSERT_EQ(t.responses.size(), static_cast<std::size_t>(kKeys));
  for (int i = 0; i < kKeys; i++) {
    EXPECT_EQ(t.responses[i].status, 200) << "key mig" << i;
    EXPECT_EQ(t.responses[i].body, body_for(i)) << "key mig" << i;
  }
  EXPECT_EQ(t.srv.errors(), 0u);

  // New writes after the migration land on the new shard and read back.
  const auto& w = t.request(http::Method::put, "/kv/post", body_for(3));
  ASSERT_EQ(w.status, 201);
  const auto& g = t.request(http::Method::get, "/kv/post");
  EXPECT_EQ(g.status, 200);
  EXPECT_EQ(g.body, body_for(3));
}

// Same scenario under group/epoch commit: the migration must first close
// the source shard's open epoch so deferred publications and held acks
// drain — nothing may be stranded on the old core.
TEST(Migration, DrainsOpenGroupCommitEpoch) {
  ServerConfig sc;
  sc.backend = Backend::pktstore;
  sc.knobs.group_commit.max_epoch_ops = 64;
  // Deadlines far beyond the test horizon: only migrate_bucket's
  // close_epoch (or the batcher's idle check) can release held acks.
  sc.knobs.group_commit.max_deferral_ns = 500 * kNsPerMs;
  RebalanceRig t(sc);
  Rebalancer rebal(t.server, t.srv);

  const u32 from = t.queue();
  const u32 to = (from + 1) % 4;

  // Pipeline a burst of PUTs (they join one open epoch on the source
  // shard; acks are deferred) and migrate while it is in flight.
  constexpr int kKeys = 6;
  for (int i = 0; i < kKeys; i++) {
    t.send(http::Method::put, "/kv/ep" + std::to_string(i), body_for(i));
  }
  t.env.engine.schedule_in(5'000, [&] { rebal.migrate_bucket(t.bucket(), from, to); });
  t.env.engine.run_until_idle();

  // Every deferred ack arrived in order; none stranded on the old shard.
  ASSERT_EQ(t.responses.size(), static_cast<std::size_t>(kKeys));
  for (int i = 0; i < kKeys; i++) EXPECT_EQ(t.responses[i].status, 201);
  EXPECT_EQ(t.srv.errors(), 0u);

  // The writes are durable and visible through the destination shard.
  for (int i = 0; i < kKeys; i++) {
    const auto& g = t.request(http::Method::get, "/kv/ep" + std::to_string(i));
    EXPECT_EQ(g.status, 200);
    EXPECT_EQ(g.body, body_for(i));
  }
}

// A migration to the queue the group already lives on is a no-op.
TEST(Migration, SameQueueIsNoOp) {
  ServerConfig sc;
  sc.backend = Backend::pktstore;
  RebalanceRig t(sc);
  Rebalancer rebal(t.server, t.srv);
  const u32 q = t.queue();
  rebal.migrate_bucket(t.bucket(), q, q);
  t.env.engine.run_until_idle();
  EXPECT_EQ(rebal.conns_moved(), 0u);
  EXPECT_EQ(t.server.stack(q).conn_count(), 1u);
  const auto& r = t.request(http::Method::put, "/kv/noop", body_for(1));
  EXPECT_EQ(r.status, 201);
}

// --- Rebalancer policy + harness integration -------------------------------

// With few connections the static Toeplitz spread is lumpy; the monitor
// must detect it, move buckets, and end the run no more imbalanced than
// the static table left it. A move must not flip the skew, so the hot
// queue needs two connections more than the cold one: at 10 connections
// the static spread leaves 1.47× the mean on the hot shard. (At 25, now
// that a request's ACK rides its response, the cores keep up: the hot
// shard serves 1.07× the mean, under two connections' load above the
// cold one, so no move fits.)
TEST(Rebalance, MonitorReducesImbalance) {
  RunConfig cfg;
  cfg.server.backend = Backend::pktstore;
  cfg.server_cores = 4;
  cfg.connections = 10;
  cfg.pm_size = 1u << 30;
  cfg.keyspace = 2048;
  cfg.warmup_ns = 10 * kNsPerMs;
  cfg.measure_ns = 40 * kNsPerMs;

  const RunResult base = run_experiment(cfg);

  cfg.rebalance = true;
  cfg.rebalance_cfg.trigger_ratio = 1.05;
  cfg.rebalance_cfg.min_frames_per_round = 64;
  const RunResult rebal = run_experiment(cfg);

  EXPECT_GT(rebal.bucket_moves, 0u);
  EXPECT_GT(rebal.conns_migrated, 0u);
  EXPECT_LE(rebal.imbalance, base.imbalance);
  EXPECT_EQ(rebal.server_errors, 0u);
  // Migration must not cost throughput beyond noise.
  EXPECT_GT(rebal.kreq_per_s, base.kreq_per_s * 0.9);
}

TEST(Rebalance, RunIsDeterministicForSeed) {
  RunConfig cfg;
  cfg.server.backend = Backend::pktstore;
  cfg.server_cores = 4;
  cfg.connections = 25;
  cfg.pm_size = 1u << 30;
  cfg.keyspace = 2048;
  cfg.warmup_ns = 5 * kNsPerMs;
  cfg.measure_ns = 20 * kNsPerMs;
  cfg.rebalance = true;
  cfg.rebalance_cfg.trigger_ratio = 1.05;
  cfg.rebalance_cfg.min_frames_per_round = 64;

  const RunResult a = run_experiment(cfg);
  const RunResult b = run_experiment(cfg);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.bucket_moves, b.bucket_moves);
  EXPECT_EQ(a.conns_migrated, b.conns_migrated);
  EXPECT_DOUBLE_EQ(a.imbalance, b.imbalance);
  EXPECT_DOUBLE_EQ(a.rtt.mean(), b.rtt.mean());
}

// --- Open-loop harness ------------------------------------------------------

namespace {
OpenLoopRunConfig openloop_cfg() {
  OpenLoopRunConfig cfg;
  cfg.server.backend = Backend::pktstore;
  cfg.server_cores = 2;
  cfg.pm_size = 512u << 20;
  cfg.connections = 200;
  cfg.rate_rps = 50'000;
  cfg.value_size = 256;
  cfg.keyspace = 2048;
  cfg.warmup_ns = 10 * kNsPerMs;
  cfg.measure_ns = 30 * kNsPerMs;
  return cfg;
}
}  // namespace

TEST(OpenLoop, DeterministicForSeed) {
  const OpenLoopRunConfig cfg = openloop_cfg();
  const OpenLoopResult a = run_openloop(cfg);
  const OpenLoopResult b = run_openloop(cfg);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_DOUBLE_EQ(a.sojourn.mean(), b.sojourn.mean());
  EXPECT_DOUBLE_EQ(a.p999_us(), b.p999_us());
}

TEST(OpenLoop, OffersTheConfiguredLoadAndCountsMisses) {
  OpenLoopRunConfig cfg = openloop_cfg();
  const OpenLoopResult r = run_openloop(cfg);
  ASSERT_GT(r.completed, 0u);
  // Offered load within 10% of configured (Poisson noise + edges).
  EXPECT_NEAR(r.offered_krps, cfg.rate_rps / 1000.0, cfg.rate_rps / 10'000.0);
  // At this modest load nothing should blow a 1 ms deadline...
  EXPECT_EQ(r.deadline_misses, 0u);
  EXPECT_EQ(r.errors, 0u);

  // ...while an absurdly tight deadline marks every completion a miss.
  cfg.deadline_ns = 1;  // 1 ns
  const OpenLoopResult tight = run_openloop(cfg);
  ASSERT_GT(tight.completed, 0u);
  EXPECT_EQ(tight.deadline_misses, tight.completed);
  EXPECT_DOUBLE_EQ(tight.miss_rate, 1.0);
}
