// FlushBatcher unit tests: epoch sizing and deferral bounds, pass-through
// behaviour, the engine-driven idle/deadline closes, deferred-publication
// masking, ack/quarantine ordering at epoch close, and the pool
// seal/restore hysteresis.
//
// Everything here observes the batcher through the PmDevice's lifetime
// flush counters (total_clwb/total_sfence), the event engine and the
// batcher's own introspection accessors.

#include <gtest/gtest.h>

#include <vector>

#include "pm/flush_batch.h"
#include "pm/pm_device.h"
#include "pm/pm_pool.h"
#include "sim/cpu.h"
#include "sim/env.h"

namespace papm {
namespace {

constexpr u64 kHuge = 1'000'000'000;  // deadline that never fires

pm::GroupCommitPolicy policy_of(u32 ops, u64 deferral_ns = kHuge) {
  pm::GroupCommitPolicy p;
  p.max_epoch_ops = ops;
  p.max_deferral_ns = deferral_ns;
  return p;
}

TEST(FlushBatcher, PassThroughWhenNotBacklogged) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 16);
  pm::FlushBatcher b(dev, policy_of(8));
  const u64 off = dev.data_base();

  b.begin_op(/*backlogged=*/false, 0);
  EXPECT_FALSE(b.batching());
  const u64 sfence0 = dev.total_sfence();
  dev.store_u64(off, 1);
  b.persist(off, 8);  // must reach the device immediately
  EXPECT_EQ(dev.total_sfence(), sfence0 + 1);
  EXPECT_EQ(dev.pending_lines(), 0u);
  bool acked = false;
  b.on_committed([&] { acked = true; });
  EXPECT_TRUE(acked) << "pass-through acks must run inline";
  b.end_op();
  EXPECT_EQ(b.epochs_closed(), 0u);
}

TEST(FlushBatcher, EpochClosesAtMaxOpsAndDefersFences) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 16);
  pm::FlushBatcher b(dev, policy_of(3));
  const u64 base = dev.data_base();

  int acks = 0;
  const u64 sfence0 = dev.total_sfence();
  for (int i = 0; i < 9; i++) {
    b.begin_op(true, 0);
    EXPECT_TRUE(b.batching());
    dev.store_u64(base + static_cast<u64>(i) * 64, 0x1000 + i);
    b.persist(base + static_cast<u64>(i) * 64, 8);  // fence deferred
    b.on_committed([&] { acks++; });
    // Acks of the epoch in flight must not have run yet; only whole
    // retired epochs ack (i/3*3 completed ops so far).
    EXPECT_EQ(acks, i / 3 * 3);
    b.end_op();
  }
  EXPECT_EQ(b.epochs_closed(), 3u);
  EXPECT_EQ(acks, 9);
  EXPECT_EQ(b.deferred_fences(), 9u);
  EXPECT_EQ(b.max_epoch_ops_seen(), 3u);
  // One real fence per epoch close (no publications, no pools): the 9
  // per-op fences collapsed to 3.
  EXPECT_EQ(dev.total_sfence(), sfence0 + 3);
  EXPECT_FALSE(b.epoch_open());
}

TEST(FlushBatcher, DeadlineClosesStaleEpochOnNextOp) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 16);
  pm::FlushBatcher b(dev, policy_of(100, /*deferral_ns=*/500));
  const u64 off = dev.data_base();

  b.begin_op(true, 1000);
  dev.store_u64(off, 7);
  b.persist(off, 8);
  b.end_op();
  EXPECT_TRUE(b.epoch_open()) << "1 of 100 ops: epoch must stay open";
  EXPECT_EQ(b.epoch_opened_ns(), 1000u);

  // Within the deadline: the same epoch absorbs the next op.
  b.begin_op(true, 1400);
  const u64 serial = b.epoch_serial();
  b.end_op();
  EXPECT_EQ(b.epochs_closed(), 0u);

  // Past the deadline: the stale epoch retires before the op joins a
  // fresh one.
  b.begin_op(true, 2000);
  EXPECT_EQ(b.epochs_closed(), 1u);
  EXPECT_NE(b.epoch_serial(), serial);
  b.end_op();
  b.close();
}

// One batched op at `env`'s current time.
void one_op(sim::Env& env, pm::FlushBatcher& b) {
  b.begin_op(true, static_cast<u64>(env.now()));
  b.fence();
  b.end_op();
}

TEST(FlushBatcher, OneOpClosesItsEpochAfterTheIdleGap) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 16);
  pm::FlushBatcher b(dev, policy_of(100));
  bool acked = false;
  b.begin_op(true, 0);
  b.fence();
  b.on_committed([&] { acked = true; });
  b.end_op();
  one_op(env, b);  // replaces the idle check, not adds one
  EXPECT_EQ(env.engine.pending(), 2u) << "one deadline + one idle check";
  constexpr auto kIdle = static_cast<SimTime>(pm::FlushBatcher::kIdleCloseNs);
  env.engine.run_until(kIdle - 1);
  EXPECT_TRUE(b.epoch_open());
  EXPECT_FALSE(acked);
  env.engine.run_until(kIdle);
  EXPECT_FALSE(b.epoch_open()) << "idle gap must close the epoch";
  EXPECT_TRUE(acked);
  EXPECT_EQ(b.epochs_closed(), 1u);
}

TEST(FlushBatcher, OpsInsideTheIdleGapCloseAtMaxDeferral) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 16);
  pm::FlushBatcher b(dev, policy_of(100, /*deferral_ns=*/10'000));
  // An op every 1.5 µs: the idle check never gets to fire.
  constexpr SimTime kGap = 1'500;
  static_assert(kGap < static_cast<SimTime>(pm::FlushBatcher::kIdleCloseNs));
  for (SimTime t = 0; t <= 15'000; t += kGap) {
    env.engine.schedule_at(t, [&] { one_op(env, b); });
  }
  env.engine.run_until(9'999);
  EXPECT_EQ(b.epochs_closed(), 0u);
  EXPECT_EQ(b.epoch_serial(), 1u);
  env.engine.run_until(10'000);
  EXPECT_EQ(b.epochs_closed(), 1u) << "the deadline must close the epoch";
  env.engine.run_until_idle();
  EXPECT_EQ(b.epochs_closed(), 2u) << "the second epoch closes idle";
  EXPECT_EQ(b.epoch_serial(), 2u);
}

TEST(FlushBatcher, CloseRunsOnTheAttachedCore) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 16);
  sim::HostCpu cpu(env, 2);
  pm::FlushBatcher b(dev, policy_of(100));
  b.attach_cpu(cpu, 1);
  b.begin_op(true, 0);
  dev.store_u64(dev.data_base(), 1);
  b.persist(dev.data_base(), 8);
  b.end_op();
  env.engine.run_until_idle();
  EXPECT_EQ(b.epochs_closed(), 1u);
  EXPECT_GT(cpu.busy_ns(1), 0) << "the close's fences charge core 1";
  EXPECT_EQ(cpu.busy_ns(0), 0);
}

TEST(FlushBatcher, DestroyedBatcherTimersNeverFire) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 16);
  bool acked = false;
  {
    pm::FlushBatcher b(dev, policy_of(100));
    b.begin_op(true, 0);
    b.on_committed([&] { acked = true; });
    b.end_op();
    EXPECT_EQ(env.engine.pending(), 2u);
  }
  EXPECT_EQ(env.engine.pending(), 0u);
  env.engine.run_until_idle();
  EXPECT_FALSE(acked);
}

TEST(FlushBatcher, DeferredPublicationMaskedFromCrashUntilClose) {
  // Phase 1: a withheld publication is visible to loads but survives no
  // crash — the old (zero) word is what recovery sees.
  {
    sim::Env env;
    pm::PmDevice dev(env, 1u << 16);
    pm::FlushBatcher b(dev, policy_of(8));
    const u64 content = dev.data_base();
    const u64 link = content + 1024;
    b.begin_op(true, 0);
    dev.store_u64(content, 0xc0ffee);
    b.persist(content, 8);
    b.publish_u64(link, content);
    EXPECT_EQ(dev.load_u64(link), content) << "loads must forward the store";
    EXPECT_EQ(dev.deferred_words(), 1u);
    dev.crash();
    EXPECT_EQ(dev.load_u64(link), 0u)
        << "unapplied publication must never become durable";
  }
  // Phase 2: after close() both the content and the publication are
  // durable — the link can never outlive a crash without its bytes.
  {
    sim::Env env;
    pm::PmDevice dev(env, 1u << 16);
    pm::FlushBatcher b(dev, policy_of(8));
    const u64 content = dev.data_base();
    const u64 link = content + 1024;
    b.begin_op(true, 0);
    dev.store_u64(content, 0xc0ffee);
    b.persist(content, 8);
    b.publish_u64(link, content);
    b.end_op();
    b.close();
    EXPECT_EQ(dev.deferred_words(), 0u);
    dev.crash();
    EXPECT_EQ(dev.load_u64(link), content);
    EXPECT_EQ(dev.load_u64(content), 0xc0ffeeu);
  }
}

TEST(FlushBatcher, CloseRunsAcksBeforeQuarantineInFifoOrder) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 16);
  pm::FlushBatcher b(dev, policy_of(8));
  std::vector<int> order;
  b.begin_op(true, 0);
  b.fence();
  b.on_committed([&] { order.push_back(1); });
  b.defer([&] { order.push_back(3); });
  b.on_committed([&] { order.push_back(2); });
  b.defer([&] { order.push_back(4); });
  b.end_op();
  b.close();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}))
      << "acks (FIFO) must precede quarantined frees (FIFO)";
}

TEST(FlushBatcher, PoolSealHysteresisRestoresOnlyAfterSustainedIdle) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 20);
  auto pool = pm::PmPool::create(dev, "p", dev.data_base(), 1u << 18);
  // A non-empty freelist, so sealing has something to zero.
  auto blk = pool.alloc(256);
  ASSERT_TRUE(blk.ok());
  pool.free(blk.value(), 256);

  pm::FlushBatcher b(dev, policy_of(4));
  b.register_pool(pool);
  b.begin_op(true, 0);
  EXPECT_TRUE(pool.in_commit_epoch()) << "activation must seal the pool";
  // Mid-epoch recycling is DRAM-only: a free + alloc round-trip issues no
  // persistence events beyond the bump frontier (already allocated here).
  const u64 sfence0 = dev.total_sfence();
  const u64 clwb0 = dev.total_clwb();
  auto blk2 = pool.alloc(256);
  ASSERT_TRUE(blk2.ok());
  EXPECT_EQ(blk2.value(), blk.value()) << "parked free block must recycle";
  pool.free(blk2.value(), 256);
  EXPECT_EQ(dev.total_sfence(), sfence0);
  EXPECT_EQ(dev.total_clwb(), clwb0);
  b.end_op();

  // A load dip shorter than the hysteresis window must not restore the
  // freelists (that would cost a clwb per parked free plus a re-seal).
  for (int i = 0; i < 63; i++) b.begin_op(false, 0);
  EXPECT_TRUE(pool.in_commit_epoch()) << "momentary dip must not deactivate";
  b.begin_op(false, 0);  // 64th consecutive pass-through op
  EXPECT_FALSE(pool.in_commit_epoch())
      << "sustained idle must restore the durable freelists";

  // The restored freelist serves the parked block again, durably.
  auto blk3 = pool.alloc(256);
  ASSERT_TRUE(blk3.ok());
  EXPECT_EQ(blk3.value(), blk.value());
}

}  // namespace
}  // namespace papm
