// Multi-host replication tests (src/repl/): quorum ack accounting,
// idempotent replay over an injected lossy fabric, promotion of the
// longest durable prefix, rejoin re-sync convergence, degraded-mode
// accounting, and whole-host crash sweeps proving I1 (every
// client-acked write survives failover) at every flush/fence boundary
// of the primary and of a replica.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/pktstore.h"
#include "crash_harness.h"
#include "net/udp.h"
#include "nic/fabric.h"
#include "nic/nic.h"
#include "pm/pm_pool.h"
#include "repl/replica.h"
#include "repl/replicator.h"

namespace papm::repl {
namespace {

constexpr u32 kPrimIp = 0x0a000001;
constexpr u32 kR1Ip = 0x0a0000f1;
constexpr u32 kR2Ip = 0x0a0000f2;

std::vector<u8> rand_bytes(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<u8> v(n);
  for (auto& b : v) b = static_cast<u8>(rng.next());
  return v;
}

// Scaled-down timers so retries, give-ups and failovers resolve within
// milliseconds of sim time instead of the production defaults.
ReplOptions fast_opts(u32 quorum) {
  ReplOptions o;
  o.quorum = quorum;
  o.retry_backoff_ns = 100 * kNsPerUs;
  o.hb_interval_ns = 50 * kNsPerUs;
  o.hb_timeout_ns = 250 * kNsPerUs;
  o.homa.sender_timeout_ns = 50 * kNsPerUs;
  o.homa.backoff_mult = 2.0;
  o.homa.max_retries = 2;
  return o;
}

ReplicaConfig replica_cfg(u32 ip, const ReplOptions& opts) {
  ReplicaConfig c;
  c.ip = ip;
  c.primary_ip = kPrimIp;
  c.pm_size = 16u << 20;
  c.opts = opts;
  return c;
}

// The primary host, distilled to what the replication layer sees: a
// PM-backed packet pool (the gather ranges' physical home), a
// kernel-bypass UDP stack, a pass-through PktStore as the local durable
// copy, and the Replicator. Standing in for app::KvServer's datapath.
struct Primary {
  static constexpr u64 kDevSize = 32u << 20;

  Primary(sim::Env& env, nic::Fabric& fabric, const ReplOptions& opts,
          std::vector<u32> peers)
      : dev(env, kDevSize),
        pmpool(pm::PmPool::create(dev, "pkts", dev.data_base(),
                                  kDevSize - 4096)),
        arena(dev, pmpool),
        pool(env, arena),
        nic(env, fabric, kPrimIp, pool),
        udp(env, nic, pool,
            [] {
              net::UdpStack::Options o;
              o.ip = kPrimIp;
              o.kernel_bypass = true;
              return o;
            }()),
        store(core::PktStore::create(pool, "primary")),
        repl(env, udp, opts, std::move(peers)) {
    pmpool.set_charges(env.cost.pool_alloc_ns, env.cost.pool_alloc_ns / 2);
    nic.set_sink([this](net::PktBuf* pb) { udp.rx(pb); });
  }

  // Stages `val` in a pool block and submits it as a single gather range
  // — the unit-test analogue of repl::gather_from_pkts over a request's
  // TCP segments. The Replicator takes its own reference; ours drops.
  u64 submit_put(std::string_view key, std::span<const u8> val,
                 Replicator::Done done, u64 trace = 0) {
    net::PktBuf* pb = pool.alloc(static_cast<u32>(val.size()));
    EXPECT_NE(pb, nullptr);
    auto w = pool.writable(*pb, static_cast<u32>(val.size()));
    std::memcpy(w.data(), val.data(), val.size());
    pb->len = static_cast<u32>(val.size());
    const Replicator::GatherSeg seg{pb->data_h, 0, pb->len, pb->cap};
    const u64 seq =
        repl.submit_put(key, {&seg, 1}, static_cast<u32>(val.size()), pool,
                        std::move(done), trace);
    net::PktBufPool::release(pb);
    return seq;
  }

  pm::PmDevice dev;
  pm::PmPool pmpool;
  net::PmArena arena;
  net::PktBufPool pool;
  nic::Nic nic;
  net::UdpStack udp;
  core::PktStore store;
  Replicator repl;
};

void pump_for(sim::Env& env, SimTime d) {
  env.engine.run_until(env.now() + d);
}

// Advances the sim in fixed 20 us slices until `pred` holds. Slices keep
// the advance deterministic (event order never depends on the slicing)
// while self-rescheduling timers (heartbeats) can't spin run_until_idle.
template <class Pred>
[[nodiscard]] bool pump_until(sim::Env& env, Pred&& pred,
                              SimTime limit = 100 * kNsPerMs) {
  const SimTime end = env.now() + limit;
  while (!pred() && env.now() < end) {
    env.engine.run_until(env.now() + 20 * kNsPerUs);
  }
  return pred();
}

// ---------------------------------------------------------------------------
// Quorum accounting
// ---------------------------------------------------------------------------

TEST(Repl, QuorumAckAccounting) {
  sim::Env env;
  nic::Fabric fabric(env);
  const ReplOptions opts = fast_opts(/*quorum=*/3);  // primary + BOTH remotes
  ReplicaNode r1(env, fabric, replica_cfg(kR1Ip, opts));
  ReplicaNode r2(env, fabric, replica_cfg(kR2Ip, opts));
  Primary p(env, fabric, opts, {kR1Ip, kR2Ip});

  std::map<std::string, std::vector<u8>> written;
  int dones = 0;
  int degraded = 0;
  for (int i = 0; i < 5; i++) {
    const std::string key = "k" + std::to_string(i);
    const auto val = rand_bytes(200 + static_cast<std::size_t>(i) * 37,
                                100 + static_cast<u64>(i));
    written[key] = val;
    bool done = false;
    p.submit_put(key, val, [&](bool deg) {
      done = true;
      dones++;
      if (deg) degraded++;
    });
    ASSERT_TRUE(pump_until(env, [&] { return done; })) << "op " << i;
    // quorum=3: the ack cannot have fired before both replicas held the
    // write durably.
    EXPECT_GE(r1.durable_seq(), static_cast<u64>(i) + 1);
    EXPECT_GE(r2.durable_seq(), static_cast<u64>(i) + 1);
  }
  pump_for(env, 2 * kNsPerMs);  // let the trailing acks retire the records

  EXPECT_EQ(dones, 5);
  EXPECT_EQ(degraded, 0);
  EXPECT_EQ(p.repl.forwards(), 10u);  // 5 ops x 2 peers
  EXPECT_EQ(p.repl.acks_rx(), 10u);   // serial ops: one ack per op per peer
  EXPECT_EQ(p.repl.retransmits(), 0u);
  EXPECT_EQ(p.repl.peer_acked(kR1Ip), 5u);
  EXPECT_EQ(p.repl.peer_acked(kR2Ip), 5u);
  EXPECT_EQ(p.repl.inflight_records(), 0u);  // fully acked => retired
  EXPECT_EQ(r1.applies(), 5u);
  EXPECT_EQ(r2.applies(), 5u);
  for (const auto& [key, val] : written) {
    EXPECT_EQ(r1.store().get(key).value(), val) << key;
    EXPECT_EQ(r2.store().get(key).value(), val) << key;
  }
}

// ---------------------------------------------------------------------------
// Cross-host trace stitching
// ---------------------------------------------------------------------------

TEST(Repl, TraceIdStitchesReplicaApplySpans) {
  sim::Env env;
  nic::Fabric fabric(env);
  const ReplOptions opts = fast_opts(/*quorum=*/2);
  ReplicaConfig rc = replica_cfg(kR1Ip, opts);
  rc.index = 1;  // apply spans land on track kReplicaTrackBase + 1
  ReplicaNode r1(env, fabric, rc);
  Primary p(env, fabric, opts, {kR1Ip});

  // A traced op: the primary's trace id rides the kData header and the
  // replica's apply span is recorded under that id on its own track.
  const u64 trace_id = 0xabc123;
  bool done = false;
  p.submit_put("t", rand_bytes(128, 11), [&](bool) { done = true; },
               trace_id);
  ASSERT_TRUE(pump_until(env, [&] { return done; }));

  ASSERT_EQ(r1.trace().size(), 1u);
  const obs::SpanEvent& e = r1.trace().events()[0];
  EXPECT_EQ(e.req, trace_id);
  EXPECT_EQ(e.stage, obs::Stage::repl_apply);
  EXPECT_EQ(e.track, obs::kReplicaTrackBase + 1);
  EXPECT_GT(e.dur, 0u);  // the span covers the durable apply work

  // An untraced op (trace id 0) records nothing on the replica.
  bool done2 = false;
  p.submit_put("u", rand_bytes(64, 12), [&](bool) { done2 = true; });
  ASSERT_TRUE(pump_until(env, [&] { return done2; }));
  EXPECT_EQ(r1.applies(), 2u);
  EXPECT_EQ(r1.trace().size(), 1u);
}

// ---------------------------------------------------------------------------
// Idempotent replay
// ---------------------------------------------------------------------------

TEST(Repl, IdempotentReplayAfterDuplicatedForward) {
  // Eat every frame towards the primary for the first 500 us: the
  // replica applies the forward but neither its Homa-level ack nor its
  // replication ack gets back. The primary's Homa sender gives up, the
  // repl layer retransmits, and the replica sees the same seq again —
  // which must be applied exactly once and re-acked.
  sim::Env env;
  nic::Fabric fabric(env);
  const ReplOptions opts = fast_opts(/*quorum=*/2);
  ReplicaNode r1(env, fabric, replica_cfg(kR1Ip, opts));
  Primary p(env, fabric, opts, {kR1Ip});

  fabric.set_drop_hook([&](u32 dst, const nic::WireFrame&) {
    return dst == kPrimIp && env.now() < 500 * kNsPerUs;
  });

  const auto val = rand_bytes(300, 7);
  bool done = false;
  bool deg = false;
  p.submit_put("dup", val, [&](bool d) {
    done = true;
    deg = d;
  });
  ASSERT_TRUE(pump_until(env, [&] { return done; }));
  EXPECT_FALSE(deg);
  EXPECT_GE(p.repl.retransmits(), 1u);  // the repl-layer replay happened
  EXPECT_EQ(r1.applies(), 1u);          // ...and was applied exactly once
  EXPECT_EQ(r1.applied_seq(), 1u);
  EXPECT_EQ(p.repl.peer_acked(kR1Ip), 1u);
  EXPECT_EQ(r1.store().get("dup").value(), val);

  // The fault window is over: a follow-up op flows clean.
  const auto val2 = rand_bytes(64, 8);
  bool done2 = false;
  p.submit_put("after", val2, [&](bool) { done2 = true; });
  ASSERT_TRUE(pump_until(env, [&] { return done2; }));
  EXPECT_EQ(r1.applies(), 2u);
  EXPECT_EQ(r1.store().get("after").value(), val2);
}

// ---------------------------------------------------------------------------
// Promotion
// ---------------------------------------------------------------------------

TEST(Repl, PromotionPicksLongestDurablePrefix) {
  // r2's ingress link is fully lossy, so every quorum is met via r1
  // alone. When the primary dies, failover must promote r1 (the longest
  // durable prefix) — and r1 must hold every client-acked write.
  sim::Env env;
  nic::Fabric fabric(env);
  const ReplOptions opts = fast_opts(/*quorum=*/2);
  ReplicaNode r1(env, fabric, replica_cfg(kR1Ip, opts));
  ReplicaNode r2(env, fabric, replica_cfg(kR2Ip, opts));
  Primary p(env, fabric, opts, {kR1Ip, kR2Ip});

  nic::Fabric::Options dead_link;
  dead_link.loss_p = 1.0;
  fabric.set_link_fault(kR2Ip, dead_link);

  bool suspected = false;
  r1.on_primary_suspect = [&] { suspected = true; };
  r1.monitor_primary();
  p.repl.start_heartbeats();

  std::map<std::string, std::vector<u8>> acked;
  for (int i = 0; i < 6; i++) {
    const std::string key = "p" + std::to_string(i);
    const auto val = rand_bytes(128, 200 + static_cast<u64>(i));
    bool done = false;
    p.submit_put(key, val, [&](bool) { done = true; });
    ASSERT_TRUE(pump_until(env, [&] { return done; })) << "op " << i;
    acked[key] = val;
  }
  EXPECT_EQ(r1.durable_seq(), 6u);
  EXPECT_EQ(r2.durable_seq(), 0u);  // partitioned the whole time

  // Whole-host cut of the primary: the heartbeat stream stops and r1's
  // monitor declares it suspect within the timeout.
  const SimTime t_cut = env.now();
  p.repl.stop();
  p.nic.set_link_up(false);
  ASSERT_TRUE(pump_until(env, [&] { return suspected; }));
  EXPECT_LE(env.now() - t_cut, 2 * opts.hb_timeout_ns + opts.hb_interval_ns);

  // Failover: promote the survivor with the longest durable prefix.
  ReplicaNode& winner = r1.durable_seq() >= r2.durable_seq() ? r1 : r2;
  EXPECT_EQ(&winner, &r1);
  winner.promote();
  EXPECT_TRUE(winner.promoted());
  for (const auto& [key, val] : acked) {
    EXPECT_EQ(winner.store().get(key).value(), val) << key;
  }
}

// ---------------------------------------------------------------------------
// Rejoin / re-sync
// ---------------------------------------------------------------------------

TEST(Repl, RejoinResyncConverges) {
  sim::Env env;
  nic::Fabric fabric(env);
  // quorum=1: the primary keeps acking alone while the replica is down,
  // building up exactly the divergence the snapshot must repair.
  const ReplOptions opts = fast_opts(/*quorum=*/1);
  const ReplicaConfig rc1 = replica_cfg(kR1Ip, opts);
  auto r1 = std::make_unique<ReplicaNode>(env, fabric, rc1);
  Primary p(env, fabric, opts, {kR1Ip});

  std::map<std::string, std::vector<u8>> state;
  auto put = [&](const std::string& key, u64 seed, std::size_t n) {
    const auto val = rand_bytes(n, seed);
    ASSERT_TRUE(p.store.put_bytes(key, val).ok());
    p.submit_put(key, val, {});
    state[key] = val;
  };
  auto erase = [&](const std::string& key) {
    p.store.erase(key);
    p.repl.submit_erase(key, {});
    state.erase(key);
  };

  // Phase A: both hosts live.
  put("a", 1, 150);
  put("b", 2, 90);
  put("c", 3, 260);
  put("b", 4, 120);  // overwrite
  erase("c");
  ASSERT_TRUE(pump_until(env, [&] { return r1->durable_seq() == 5; }));

  // Whole-host cut of the replica; its DIMMs (the persisted image) are
  // what a rejoin gets back.
  r1->kill();
  auto dimms = r1->device().clone_persisted();

  // Phase B: the primary keeps mutating while the replica is down.
  put("d", 5, 512);
  erase("a");
  put("e", 6, 40);
  EXPECT_EQ(p.repl.last_seq(), 8u);
  pump_for(env, 2 * kNsPerMs);  // forwards to the dead host give up

  // Rejoin: recover from the snapshot, then re-sync from the primary.
  ReplicaNode r1b(env, fabric, rc1, std::move(dimms));
  EXPECT_EQ(r1b.applied_seq(), 5u);  // what its DIMMs held
  send_snapshot(p.repl.homa(), p.store, kR1Ip, opts.port, p.repl.last_seq());
  ASSERT_TRUE(pump_until(env, [&] { return r1b.applied_seq() == 8; }));
  EXPECT_EQ(r1b.resync_items(), 3u);  // b, d, e
  p.repl.revive_peer(kR1Ip, p.repl.last_seq());

  // Converged: same keys, same values, deletions included.
  for (const auto& [key, val] : state) {
    EXPECT_EQ(r1b.store().get(key).value(), val) << key;
  }
  EXPECT_FALSE(r1b.store().get("a").ok());
  EXPECT_FALSE(r1b.store().get("c").ok());
  EXPECT_EQ(r1b.store().size(), state.size());

  // The revived peer takes the live stream again.
  put("f", 7, 75);
  ASSERT_TRUE(pump_until(env, [&] { return r1b.applied_seq() == 9; }));
  EXPECT_EQ(r1b.store().get("f").value(), state["f"]);
  EXPECT_EQ(p.repl.alive_peers(), 1u);
}

// A backup cut while an apply epoch is open: the epoch's close checks die
// with the host, so nothing the epoch wrote becomes durable after the cut.
TEST(Repl, KilledBackupNeverClosesItsOpenEpoch) {
  sim::Env env;
  nic::Fabric fabric(env);
  const ReplOptions opts = fast_opts(/*quorum=*/1);
  ReplicaNode r1(env, fabric, replica_cfg(kR1Ip, opts));
  Primary p(env, fabric, opts, {kR1Ip});

  p.submit_put("k", rand_bytes(300, 9), {});
  while (r1.applied_seq() == 0 && env.engine.step()) {
  }
  ASSERT_EQ(r1.applied_seq(), 1u);
  ASSERT_EQ(r1.durable_seq(), 0u) << "the apply epoch must still be open";

  r1.kill();
  const auto at_kill = r1.device().clone_persisted();
  pump_for(env, 2 * kNsPerMs);  // far past the idle gap and the deadline
  const auto later = r1.device().clone_persisted();

  EXPECT_EQ(r1.durable_seq(), 0u);
  const u64 size = at_kill->size();
  ASSERT_EQ(later->size(), size);
  const pm::PmDevice& a = *at_kill;
  const pm::PmDevice& b = *later;
  EXPECT_EQ(std::memcmp(a.at(0, size), b.at(0, size), size), 0)
      << "the dead backup's persisted image moved after the cut";
  EXPECT_EQ(later->load_u64(later->get_root("repl.applied").value()), 0u);
}

// ---------------------------------------------------------------------------
// Degraded mode
// ---------------------------------------------------------------------------

TEST(Repl, DegradedLocalAckWhenQuorumUnreachable) {
  sim::Env env;
  nic::Fabric fabric(env);
  ReplOptions opts = fast_opts(/*quorum=*/2);
  opts.degrade = DegradePolicy::local_ack;
  opts.degrade_after_ns = 300 * kNsPerUs;
  // No replica is attached at kR1Ip: the quorum is unreachable from the
  // first forward.
  Primary p(env, fabric, opts, {kR1Ip});

  bool done = false;
  bool deg = false;
  p.submit_put("k", rand_bytes(100, 9), [&](bool d) {
    done = true;
    deg = d;
  });
  const SimTime t0 = env.now();
  ASSERT_TRUE(pump_until(env, [&] { return done; }, 5 * kNsPerMs));
  EXPECT_TRUE(deg);                       // released as a degraded ack...
  EXPECT_GE(env.now() - t0, opts.degrade_after_ns);  // ...not before the
                                                     // deadline
  EXPECT_EQ(p.repl.degraded_acks(), 1u);  // ...and counted, never silent
}

TEST(Repl, StallPolicyHoldsAcksWhenQuorumUnreachable) {
  sim::Env env;
  nic::Fabric fabric(env);
  const ReplOptions opts = fast_opts(/*quorum=*/2);  // degrade = stall
  Primary p(env, fabric, opts, {kR1Ip});

  bool done = false;
  p.submit_put("k", rand_bytes(100, 10), [&](bool) { done = true; });
  EXPECT_FALSE(pump_until(env, [&] { return done; }, 10 * kNsPerMs));
  EXPECT_EQ(p.repl.degraded_acks(), 0u);
  EXPECT_EQ(p.repl.inflight_records(), 1u);  // held, not dropped
}

// ---------------------------------------------------------------------------
// Whole-host crash sweeps
// ---------------------------------------------------------------------------

// Primary + two replicas at quorum 2 — the bench_repl topology.
struct Cluster {
  sim::Env env;
  nic::Fabric fabric{env};
  ReplicaConfig rc1 = replica_cfg(kR1Ip, fast_opts(2));
  ReplicaConfig rc2 = replica_cfg(kR2Ip, fast_opts(2));
  std::optional<ReplicaNode> r1;
  std::optional<ReplicaNode> r2;
  std::optional<Primary> p;

  Cluster() {
    r1.emplace(env, fabric, rc1);
    r2.emplace(env, fabric, rc2);
    p.emplace(env, fabric, fast_opts(2), std::vector<u32>{kR1Ip, kR2Ip});
  }
};

struct WlOp {
  bool erase;
  const char* key;
  u64 seed;
  std::size_t len;
};

// Deterministic replicated workload: overwrites, an erase, and sizes
// spanning one to several Homa segments.
std::vector<WlOp> workload_ops() {
  return {{false, "alpha", 1, 180},
          {false, "beta", 2, 96},
          {false, "alpha", 3, 2400},
          {true, "beta", 0, 0},
          {false, "gamma", 4, 512},
          {false, "delta", 5, 64}};
}

// One client-visible op: local durable apply on the primary, forward,
// and the quorum-gated ack. `on_pump` lets the replica sweep catch the
// PowerFailure a replica's device throws mid-apply; the primary sweep
// lets it propagate (the primary is the host being cut).
void run_op(Cluster& c, crashtest::AckLog& log, const WlOp& op,
            const std::function<void()>& on_power_failure = {}) {
  bool done = false;
  if (op.erase) {
    log.begin_erase(op.key);
    c.p->store.erase(op.key);
    c.p->repl.submit_erase(op.key, [&](bool) { done = true; });
  } else {
    const auto val = rand_bytes(op.len, op.seed);
    log.begin_put(op.key, val);
    ASSERT_TRUE(c.p->store.put_bytes(op.key, val).ok());
    c.p->submit_put(op.key, val, [&](bool) { done = true; });
  }
  const SimTime end = c.env.now() + 200 * kNsPerMs;
  while (!done && c.env.now() < end) {
    if (on_power_failure) {
      try {
        c.env.engine.run_until(c.env.now() + 20 * kNsPerUs);
      } catch (const pm::PowerFailure&) {
        on_power_failure();
      }
    } else {
      c.env.engine.run_until(c.env.now() + 20 * kNsPerUs);
    }
  }
  ASSERT_TRUE(done) << "quorum ack never released for '" << op.key << "'";
  log.ack();
}

TEST(CrashSweep, ReplPrimaryCut) {
  // Size the sweep: count the primary device's flush/fence boundaries
  // across one clean run of the workload.
  u64 boundaries = 0;
  {
    Cluster c;
    pm::FaultPlan counting{};
    counting.crash_at_event = 0;
    c.p->dev.set_fault_plan(counting);
    crashtest::AckLog log;
    for (const auto& op : workload_ops()) {
      run_op(c, log, op);
      if (::testing::Test::HasFatalFailure()) return;
    }
    boundaries = c.p->dev.fault_events();
  }
  ASSERT_GT(boundaries, 0u);

  u64 points = 0;
  for (u64 k = 1; k <= boundaries; k++) {
    SCOPED_TRACE("primary cut at flush/fence event " + std::to_string(k) +
                 " of " + std::to_string(boundaries));
    Cluster c;
    pm::FaultPlan plan{};
    plan.crash_at_event = k;
    c.p->dev.set_fault_plan(plan);
    crashtest::AckLog log;
    bool cut = false;
    try {
      for (const auto& op : workload_ops()) {
        run_op(c, log, op);
        if (::testing::Test::HasFatalFailure()) return;
      }
    } catch (const pm::PowerFailure&) {
      cut = true;
    }
    ASSERT_TRUE(cut) << "workload not deterministic: event never reached";
    c.p->dev.clear_fault_plan();
    c.p->repl.stop();
    c.p->nic.set_link_up(false);
    // Frames already on the wire may still land; replicas drain their
    // open epochs. Either way I1 must hold afterwards.
    pump_for(c.env, 2 * kNsPerMs);

    ReplicaNode& winner =
        c.r1->durable_seq() >= c.r2->durable_seq() ? *c.r1 : *c.r2;
    winner.promote();
    crashtest::verify_kv(log, [&](const std::string& key) {
      return winner.store().get(key);
    });
    points++;
    if (::testing::Test::HasFatalFailure()) break;
  }
  EXPECT_EQ(points, boundaries);
}

TEST(CrashSweep, ReplReplicaCut) {
  // Same sweep, cutting replica r1 instead: the cluster must keep
  // acking through r2, and the cut host must rejoin via snapshot
  // re-sync and converge.
  u64 boundaries = 0;
  {
    Cluster c;
    pm::FaultPlan counting{};
    counting.crash_at_event = 0;
    c.r1->device().set_fault_plan(counting);
    crashtest::AckLog log;
    for (const auto& op : workload_ops()) {
      run_op(c, log, op);
      if (::testing::Test::HasFatalFailure()) return;
    }
    boundaries = c.r1->device().fault_events();
  }
  ASSERT_GT(boundaries, 0u);

  u64 points = 0;
  for (u64 k = 1; k <= boundaries; k++) {
    SCOPED_TRACE("replica cut at flush/fence event " + std::to_string(k) +
                 " of " + std::to_string(boundaries));
    Cluster c;
    pm::FaultPlan plan{};
    plan.crash_at_event = k;
    c.r1->device().set_fault_plan(plan);
    crashtest::AckLog log;
    bool cut = false;
    for (const auto& op : workload_ops()) {
      // The replica's PowerFailure surfaces out of the event loop; the
      // cluster kills the host and keeps serving on the quorum.
      run_op(c, log, op, [&] {
        cut = true;
        c.r1->kill();
      });
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_TRUE(cut) << "workload not deterministic: event never reached";

    // Rejoin from the dead host's persisted image, re-sync, revive.
    auto dimms = c.r1->device().clone_persisted();
    ReplicaNode r1b(c.env, c.fabric, c.rc1, std::move(dimms));
    send_snapshot(c.p->repl.homa(), c.p->store, kR1Ip, c.rc1.opts.port,
                  c.p->repl.last_seq());
    ASSERT_TRUE(pump_until(c.env, [&] {
      return r1b.applied_seq() == c.p->repl.last_seq();
    })) << "re-sync did not converge";
    c.p->repl.revive_peer(kR1Ip, c.p->repl.last_seq());

    // One more replicated op proves the revived host takes the stream.
    run_op(c, log, {false, "omega", 9, 220});
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(pump_until(c.env, [&] {
      return r1b.applied_seq() == c.p->repl.last_seq();
    }));

    // I1 against the rejoined host: every acked write, exactly.
    crashtest::verify_kv(log, [&](const std::string& key) {
      return r1b.store().get(key);
    });
    points++;
    if (::testing::Test::HasFatalFailure()) break;
  }
  EXPECT_EQ(points, boundaries);
}

}  // namespace
}  // namespace papm::repl
