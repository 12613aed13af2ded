// Crash-point sweep over every backend (ISSUE 2 tentpole).
//
// Each scenario below crashes its backend at *every* flush/fence boundary
// of a deterministic 1 KB-write workload (see tests/crash_harness.h for
// the driver and the invariants I1-I4), under two failure models:
//
//   drop-only  — unfenced lines race (the baseline crash() semantics);
//   tear+evict — the full DCPMM model: 8-byte-granularity torn lines plus
//                spontaneous eviction of never-flushed dirty lines.
//
// Backends: the raw-region publish protocol (the pattern every structure
// builds on), the LSM store (with and without WAL + rotation), PktStore,
// and two per-shard persistent skip lists with a cross-shard merge.
// Plus targeted unit tests for the FaultPlan semantics themselves and the
// satellite coverage: PmArena reuse-after-recovery and PktBufPool
// exhaustion/refill under an armed fault plan.

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/inet_csum.h"
#include "container/pskiplist.h"
#include "core/pktstore.h"
#include "crash_harness.h"
#include "net/pktbuf.h"
#include "obs/flightrec.h"
#include "pm/fault_plan.h"
#include "pm/flush_batch.h"
#include "pm/pm_device.h"
#include "pm/pm_pool.h"
#include "sim/env.h"
#include "storage/lsm_store.h"

namespace papm {
namespace {

using crashtest::AckLog;
using crashtest::CrashScenario;
using crashtest::SweepOptions;

std::vector<u8> value_of(u64 tag, std::size_t len) {
  std::vector<u8> v(len);
  for (std::size_t i = 0; i < len; i++) {
    v[i] = static_cast<u8>((tag * 31 + i * 7 + 11) & 0xff);
  }
  return v;
}

std::string key_of(std::size_t i) {
  return "k" + std::string(i < 10 ? "0" : "") + std::to_string(i);
}

std::vector<u8> enc_u64(u64 v) {
  std::vector<u8> out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

// The two failure models every sweep runs under.
std::vector<std::pair<std::string, pm::FaultPlan>> sweep_plans() {
  pm::FaultPlan drop;  // reorder/drop only (baseline semantics)
  drop.unfenced_drain_p = 0.5;
  pm::FaultPlan tear;  // full model: torn lines + dirty-line eviction
  tear.unfenced_drain_p = 0.4;
  tear.tear_p = 0.75;
  tear.evict_dirty_p = 0.35;
  tear.seed = 7;
  return {{"drop-only", drop}, {"tear+evict", tear}};
}

// --- FaultPlan semantics (unit level) ------------------------------------

TEST(FaultPlan, CountsEventsAndCutsAtScheduledBoundary) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 16);
  pm::FaultPlan plan;
  plan.crash_at_event = 3;
  dev.set_fault_plan(plan);
  const u64 off = dev.data_base();
  dev.store_u64(off, 0x1111);
  dev.store_u64(off + 64, 0x2222);
  dev.clwb(off, 1);       // event 1
  dev.clwb(off + 64, 1);  // event 2
  // Event 3 is the fence; it drains *before* the cut fires, so both
  // lines are durable even though the fence "crashed".
  EXPECT_THROW(dev.sfence(), pm::PowerFailure);
  EXPECT_EQ(dev.fault_events(), 3u);
  dev.clear_fault_plan();
  EXPECT_EQ(dev.load_u64(off), 0x1111u);
  EXPECT_EQ(dev.load_u64(off + 64), 0x2222u);
}

TEST(FaultPlan, UnfencedLinesVanishWhenDrainProbabilityZero) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 16);
  const u64 off = dev.data_base();
  dev.store_u64(off, 0xaaaa);
  dev.persist(off, 8);  // durable baseline
  pm::FaultPlan plan;
  plan.unfenced_drain_p = 0.0;
  dev.set_fault_plan(plan);
  dev.store_u64(off, 0xbbbb);
  dev.clwb(off, 8);  // in flight, never fenced
  dev.crash();       // plan semantics: the line must not drain
  dev.clear_fault_plan();
  EXPECT_EQ(dev.load_u64(off), 0xaaaau);
}

TEST(FaultPlan, TornLineNeverSplitsAlignedWords) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 16);
  const u64 off = dev.data_base();
  for (u64 w = 0; w < 8; w++) dev.store_u64(off + w * 8, 0xaaaa'0000 + w);
  dev.persist(off, 64);
  pm::FaultPlan plan;
  plan.unfenced_drain_p = 0.0;  // force the tear branch
  plan.tear_p = 1.0;
  for (u64 seed = 1; seed <= 16; seed++) {
    plan.seed = seed;
    for (u64 w = 0; w < 8; w++) dev.store_u64(off + w * 8, 0xbbbb'0000 + w);
    dev.clwb(off, 64);
    dev.set_fault_plan(plan);  // reset counter; next crash uses this seed
    dev.crash();
    dev.clear_fault_plan();
    for (u64 w = 0; w < 8; w++) {
      const u64 v = dev.load_u64(off + w * 8);
      // 8-byte persistence granularity: a word is old or new, never mixed.
      ASSERT_TRUE(v == 0xaaaa'0000 + w || v == 0xbbbb'0000 + w)
          << "word " << w << " torn mid-word";
    }
    // Restore a known-durable old image for the next round.
    for (u64 w = 0; w < 8; w++) dev.store_u64(off + w * 8, 0xaaaa'0000 + w);
    dev.persist(off, 64);
  }
}

TEST(FaultPlan, DirtyLinesMayEvictWithoutAnyFlush) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 16);
  const u64 off = dev.data_base();
  pm::FaultPlan evict;
  evict.evict_dirty_p = 1.0;
  dev.set_fault_plan(evict);
  dev.store_u64(off, 0xcccc);  // dirty, never clwb'd
  dev.crash();
  dev.clear_fault_plan();
  EXPECT_EQ(dev.load_u64(off), 0xccccu) << "eviction should have drained it";

  pm::FaultPlan noevict;
  noevict.evict_dirty_p = 0.0;
  dev.set_fault_plan(noevict);
  dev.store_u64(off, 0xdddd);
  dev.crash();
  dev.clear_fault_plan();
  EXPECT_EQ(dev.load_u64(off), 0xccccu) << "unflushed store must be lost";
}

// --- Backend scenarios ----------------------------------------------------

// The raw publish protocol every structure builds on: persist the value,
// then publish an 8-byte commit word, then persist the word. A slot is
// committed iff its seqno reads back as expected.
class RawRegionScenario final : public CrashScenario {
 public:
  static constexpr u64 kValLen = 1024;
  static constexpr u64 kStride = kValLen + kCacheLine;  // seq on its own line
  static std::size_t slots() { return crashtest::exhaustive() ? 8 : 4; }

  void format(pm::PmDevice& dev) override { base_ = dev.data_base(); }

  void workload(pm::PmDevice& dev, AckLog& log) override {
    for (std::size_t i = 0; i < slots(); i++) {
      auto val = value_of(i, kValLen);
      log.begin_put("slot" + std::to_string(i), val);
      const u64 off = base_ + i * kStride;
      dev.store(off, val);
      dev.persist(off, kValLen);  // value first ...
      dev.store_u64(off + kValLen, i + 1);
      dev.persist(off + kValLen, 8);  // ... then the atomic commit word
      log.ack();
    }
  }

  void verify(pm::PmDevice& dev, const AckLog& log) override {
    auto get = [&](const std::string& key) -> Result<std::vector<u8>> {
      const u64 i = std::stoull(key.substr(4));
      const u64 off = base_ + i * kStride;
      if (dev.load_u64(off + kValLen) != i + 1) return Errc::not_found;
      auto s = dev.span(off, kValLen);
      return std::vector<u8>(s.begin(), s.end());
    };
    crashtest::verify_kv(log, get);
    dev.crash();  // I4: a second cut right after recovery changes nothing
    crashtest::verify_kv(log, get);
  }

 private:
  u64 base_ = 0;
};

class LsmScenario final : public CrashScenario {
 public:
  LsmScenario(bool use_wal, u64 memtable_limit)
      : use_wal_(use_wal), limit_(memtable_limit) {}

  void format(pm::PmDevice& dev) override {
    pool_.emplace(pm::PmPool::create(dev, "pool", dev.data_base(), 1u << 20));
    store_.emplace(storage::LsmStore::create(dev, *pool_, "db", options()));
  }

  void workload(pm::PmDevice&, AckLog& log) override {
    const std::size_t n = crashtest::exhaustive() ? 9 : 5;
    for (std::size_t i = 0; i < n; i++) {
      auto val = value_of(i, 1024);
      log.begin_put(key_of(i), val);
      EXPECT_TRUE(store_->put(key_of(i), val).ok());
      log.ack();
    }
    auto over = value_of(100, 1024);  // overwrite an existing key
    log.begin_put(key_of(1), over);
    EXPECT_TRUE(store_->put(key_of(1), over).ok());
    log.ack();
    log.begin_erase(key_of(0));
    EXPECT_TRUE(store_->erase(key_of(0)).ok());
    log.ack();
    auto res = value_of(101, 200);  // resurrect the erased key
    log.begin_put(key_of(0), res);
    EXPECT_TRUE(store_->put(key_of(0), res).ok());
    log.ack();
  }

  void verify(pm::PmDevice& dev, const AckLog& log) override {
    std::size_t first_entries = 0;
    for (int round = 0; round < 2; round++) {
      SCOPED_TRACE(round == 0 ? "first recovery" : "re-recovery after re-crash");
      auto pool = pm::PmPool::recover(dev, "pool");
      ASSERT_TRUE(pool.ok());
      auto rec = storage::LsmStore::recover(dev, pool.value(), "db", options());
      ASSERT_TRUE(rec.ok()) << "I3: recovery failed";
      auto& store = rec.value();
      crashtest::verify_kv(
          log, [&](const std::string& k) { return store.get(k); });
      if (round == 0) {
        first_entries = store.entries();
        dev.crash();  // I4: idempotent re-recovery
      } else {
        EXPECT_EQ(store.entries(), first_entries) << "I4: state drifted";
      }
    }
  }

 private:
  [[nodiscard]] storage::LsmOptions options() const {
    storage::LsmOptions o;
    o.use_wal = use_wal_;
    o.memtable_limit_bytes = limit_;
    o.wal_bytes = 64u << 10;
    return o;
  }

  bool use_wal_;
  u64 limit_;
  std::optional<pm::PmPool> pool_;
  std::optional<storage::LsmStore> store_;
};

// `shadow_towers = false` sweeps the persist-everything skip-list index.
class PktStoreScenario final : public CrashScenario {
 public:
  explicit PktStoreScenario(bool shadow_towers = true) {
    opts_.index.shadow_towers = shadow_towers;
  }

  void format(pm::PmDevice& dev) override {
    pool_.emplace(pm::PmPool::create(dev, "pkts", dev.data_base(), 1u << 20));
    arena_.emplace(dev, *pool_);
    pktpool_.emplace(dev.env(), *arena_);
    store_.emplace(core::PktStore::create(*pktpool_, "db", opts_));
  }

  void workload(pm::PmDevice&, AckLog& log) override {
    const std::size_t n = crashtest::exhaustive() ? 8 : 4;
    for (std::size_t i = 0; i < n; i++) {
      auto val = value_of(i + 40, 1024);
      log.begin_put(key_of(i), val);
      EXPECT_TRUE(store_->put_bytes(key_of(i), val).ok());
      log.ack();
    }
    auto over = value_of(140, 1024);
    log.begin_put(key_of(1), over);
    EXPECT_TRUE(store_->put_bytes(key_of(1), over).ok());
    log.ack();
    log.begin_erase(key_of(0));
    EXPECT_TRUE(store_->erase(key_of(0)));
    log.ack();
    auto res = value_of(141, 300);
    log.begin_put(key_of(0), res);
    EXPECT_TRUE(store_->put_bytes(key_of(0), res).ok());
    log.ack();
  }

  void verify(pm::PmDevice& dev, const AckLog& log) override {
    std::size_t first_size = 0;
    for (int round = 0; round < 2; round++) {
      SCOPED_TRACE(round == 0 ? "first recovery" : "re-recovery after re-crash");
      auto pool = pm::PmPool::recover(dev, "pkts");
      ASSERT_TRUE(pool.ok());
      net::PmArena arena(dev, pool.value());
      net::PktBufPool pktpool(dev.env(), arena);
      auto rec = core::PktStore::recover(pktpool, "db", opts_);
      ASSERT_TRUE(rec.ok()) << "I3: recovery failed";
      auto& store = rec.value();
      EXPECT_TRUE(store.validate().ok()) << "I3: index invalid";
      crashtest::verify_kv(
          log, [&](const std::string& k) { return store.get(k); });
      if (round == 0) {
        first_size = store.size();
        dev.crash();
      } else {
        EXPECT_EQ(store.size(), first_size) << "I4: state drifted";
      }
    }
  }

 private:
  core::PktStoreOptions opts_;
  std::optional<pm::PmPool> pool_;
  std::optional<net::PmArena> arena_;
  std::optional<net::PktBufPool> pktpool_;
  std::optional<core::PktStore> store_;
};

// Sliced ingest: the NIC slicer has already DMA'd each payload into its
// final arena slot (PmDevice::store_dma — itself a swept fault boundary,
// so the sweep includes a cut landing exactly between payload placement
// and index publication) when the host's put adopts the slice and
// publishes. A cut there must leak the slot, never corrupt: the value is
// durable but unreachable, and recovery sees a store without the key.
// Packets are hand-built sliced descriptors because the harness runs on a
// bare PmDevice with no network stack.
class SlicedIngestScenario final : public CrashScenario {
 public:
  explicit SlicedIngestScenario(core::InsertPolicy insert) : insert_(insert) {}

  static constexpr u32 kHdr = 54;  // eth + ip + tcp

  void format(pm::PmDevice& dev) override {
    pool_.emplace(pm::PmPool::create(dev, "pkts", dev.data_base(), 1u << 20));
    arena_.emplace(dev, *pool_);
    pktpool_.emplace(dev.env(), *arena_);
    core::PktStoreOptions o;
    o.insert = insert_;
    store_.emplace(core::PktStore::create(*pktpool_, "db", o));
  }

  // Builds what the slicer's RX path would deliver: a header-only
  // descriptor whose payload the "NIC" already placed durably.
  net::PktBuf* make_sliced(std::span<const u8> payload) {
    net::PktBuf* pb = pktpool_->alloc(kHdr);
    if (pb == nullptr) return nullptr;
    if (!pktpool_->attach_slice(*pb, static_cast<u32>(payload.size()))) {
      pktpool_->free(pb);
      return nullptr;
    }
    arena_->store_dma(pb->slice_h, payload);  // placement (fault boundary)
    pb->payload_off = kHdr;
    pb->len = kHdr + static_cast<u32>(payload.size());
    pb->csum_verified = true;
    pb->payload_csum = inet_checksum(payload);
    return pb;
  }

  void workload(pm::PmDevice&, AckLog& log) override {
    const std::size_t n = crashtest::exhaustive() ? 6 : 3;
    for (std::size_t i = 0; i < n; i++) {
      auto val = value_of(i + 60, 1024);
      log.begin_put(key_of(i), val);
      net::PktBuf* pb = make_sliced(val);
      ASSERT_NE(pb, nullptr);
      EXPECT_TRUE(store_->put_pkt(key_of(i), *pb, kHdr, 1024).ok());
      pktpool_->free(pb);
      log.ack();
    }
    // A two-segment value: the engine/host appends a chain, and the cut
    // can land between the segments' placements.
    auto big = value_of(200, 2400);
    log.begin_put("big", big);
    net::PktBuf* s0 = make_sliced(std::span<const u8>(big).subspan(0, 1400));
    net::PktBuf* s1 = make_sliced(std::span<const u8>(big).subspan(1400));
    ASSERT_NE(s0, nullptr);
    ASSERT_NE(s1, nullptr);
    net::PktBuf* pkts[2] = {s0, s1};
    const u32 offs[2] = {kHdr, kHdr};
    const u32 lens[2] = {1400, 1000};
    EXPECT_TRUE(store_->put_pkts("big", pkts, offs, lens).ok());
    pktpool_->free(s0);
    pktpool_->free(s1);
    log.ack();
    // Overwrite through the same sliced path (old chain retired).
    auto over = value_of(201, 1024);
    log.begin_put(key_of(0), over);
    net::PktBuf* pb = make_sliced(over);
    ASSERT_NE(pb, nullptr);
    EXPECT_TRUE(store_->put_pkt(key_of(0), *pb, kHdr, 1024).ok());
    pktpool_->free(pb);
    log.ack();
  }

  void verify(pm::PmDevice& dev, const AckLog& log) override {
    std::size_t first_size = 0;
    for (int round = 0; round < 2; round++) {
      SCOPED_TRACE(round == 0 ? "first recovery" : "re-recovery after re-crash");
      auto pool = pm::PmPool::recover(dev, "pkts");
      ASSERT_TRUE(pool.ok());
      net::PmArena arena(dev, pool.value());
      net::PktBufPool pktpool(dev.env(), arena);
      auto rec = core::PktStore::recover(pktpool, "db");
      ASSERT_TRUE(rec.ok()) << "I3: recovery failed";
      auto& store = rec.value();
      EXPECT_TRUE(store.validate().ok()) << "I3: index invalid";
      crashtest::verify_kv(
          log, [&](const std::string& k) { return store.get(k); });
      if (round == 0) {
        first_size = store.size();
        dev.crash();
      } else {
        EXPECT_EQ(store.size(), first_size) << "I4: state drifted";
      }
    }
  }

 private:
  core::InsertPolicy insert_;
  std::optional<pm::PmPool> pool_;
  std::optional<net::PmArena> arena_;
  std::optional<net::PktBufPool> pktpool_;
  std::optional<core::PktStore> store_;
};

// --- Group/epoch commit (mid-epoch power cuts) ---------------------------
//
// The harness's AckLog models exactly one in-flight op; a commit epoch
// carries up to max_epoch_ops of them, all unacked until the epoch's
// second fence retires. These scenarios therefore keep their own log —
// committed_ holds ops whose on_committed callback ran (the ack boundary:
// by then the epoch is durably retired), pending_ the ops of the open or
// mid-close epoch — and verify the epoch-commit invariants directly:
//
//   * a committed op's effect survives exactly (I1);
//   * every pending op resolves to old/new/absent independently, never a
//     torn value or dangling link (I2; keys within one epoch are distinct
//     by construction, so resolutions are independent);
//   * recovery succeeds and is idempotent across a re-crash (I3, I4).
//
// The sweep cuts at every flush/fence boundary, which includes the epoch
// close sequence itself: pool-metadata clwb, content fence, publication
// applies, publication fence, and (at deactivation) the freelist restore.
// Constructed with `backlogged = false`, every op is bracketed as not
// backlogged: begin_op never enters the batched regime, and the same
// scenarios sweep the pass-through fence-per-op protocol instead.
struct GroupOp {
  enum Kind { kPut, kErase };
  Kind kind;
  std::string key;
  std::vector<u8> val;
};

class GroupCommitLog {
 public:
  // Bracket: pend() before the backend op, then hand ack() to
  // FlushBatcher::on_committed. Callbacks retire FIFO, matching the
  // batcher's ack order.
  void pend(GroupOp op) { pending_.push_back(std::move(op)); }
  std::function<void()> ack() {
    return [this] {
      ASSERT_FALSE(pending_.empty()) << "ack without a pending op";
      GroupOp op = std::move(pending_.front());
      pending_.pop_front();
      if (op.kind == GroupOp::kPut) {
        committed_[op.key] = std::move(op.val);
      } else {
        committed_.erase(op.key);
      }
    };
  }

  void verify(const std::function<Result<std::vector<u8>>(
                  const std::string&)>& get) const {
    std::set<std::string> pending_keys;
    for (const GroupOp& op : pending_) pending_keys.insert(op.key);
    for (const auto& [key, val] : committed_) {
      if (pending_keys.count(key) != 0) continue;
      auto r = get(key);
      ASSERT_TRUE(r.ok()) << "I1: acked key '" << key << "' lost ("
                          << to_string(r.errc()) << ")";
      EXPECT_EQ(r.value(), val) << "I1: acked value altered for '" << key
                                << "'";
    }
    for (const GroupOp& op : pending_) {
      const auto prior = committed_.find(op.key);
      const bool has_prior = prior != committed_.end();
      auto r = get(op.key);
      if (op.kind == GroupOp::kPut) {
        if (r.ok()) {
          EXPECT_TRUE(r.value() == op.val ||
                      (has_prior && r.value() == prior->second))
              << "I2: torn/mixed value for in-epoch put '" << op.key << "'";
        } else {
          EXPECT_EQ(r.errc(), Errc::not_found)
              << "I2: in-epoch put '" << op.key << "' read as corrupt";
          EXPECT_FALSE(has_prior)
              << "I1: in-epoch put '" << op.key << "' destroyed prior value";
        }
      } else {
        if (r.ok()) {
          ASSERT_TRUE(has_prior)
              << "I2: in-epoch erase '" << op.key << "' resurrected a value";
          EXPECT_EQ(r.value(), prior->second)
              << "I2: in-epoch erase '" << op.key << "' left a torn value";
        } else {
          EXPECT_EQ(r.errc(), Errc::not_found);
        }
      }
    }
  }

 private:
  std::map<std::string, std::vector<u8>> committed_;
  std::deque<GroupOp> pending_;
};

// Three ops per epoch; the op sequence crosses epoch boundaries with an
// overwrite, an erase and a resurrection so a cut can land between the
// epochs that created and replaced a value. All keys within one epoch are
// distinct.
pm::GroupCommitPolicy crash_test_policy() {
  pm::GroupCommitPolicy p;
  p.max_epoch_ops = 3;
  p.max_deferral_ns = 1'000'000'000;  // op count, never the deadline, closes
  return p;
}

class GroupCommitLsmScenario final : public CrashScenario {
 public:
  explicit GroupCommitLsmScenario(bool backlogged = true)
      : backlogged_(backlogged) {}

  void format(pm::PmDevice& dev) override {
    pool_.emplace(pm::PmPool::create(dev, "pool", dev.data_base(), 1u << 20));
    store_.emplace(storage::LsmStore::create(dev, *pool_, "db"));
    batcher_.emplace(dev, crash_test_policy());
    batcher_->register_pool(*pool_);
    store_->set_batcher(*batcher_);
  }

  void workload(pm::PmDevice&, AckLog&) override {
    auto put = [&](std::size_t i, u64 tag, std::size_t len) {
      auto val = value_of(tag, len);
      batcher_->begin_op(backlogged_, 0);
      log_.pend({GroupOp::kPut, key_of(i), val});
      EXPECT_TRUE(store_->put(key_of(i), val).ok());
      batcher_->on_committed(log_.ack());
      batcher_->end_op();
    };
    auto erase = [&](std::size_t i) {
      batcher_->begin_op(backlogged_, 0);
      log_.pend({GroupOp::kErase, key_of(i), {}});
      EXPECT_TRUE(store_->erase(key_of(i)).ok());
      batcher_->on_committed(log_.ack());
      batcher_->end_op();
    };
    // Epoch 1: three inserts. Epoch 2: insert + overwrite(k01) +
    // erase(k02). Epoch 3: resurrect(k02) + two inserts. Then leave the
    // batched regime (freelist restore, also swept).
    for (std::size_t i = 0; i < 3; i++) put(i, i, 1024);
    put(3, 3, 1024);
    put(1, 100, 1024);
    erase(2);
    put(2, 101, 300);
    const std::size_t extra = crashtest::exhaustive() ? 4 : 2;
    for (std::size_t i = 0; i < extra; i++) put(4 + i, 50 + i, 1024);
    batcher_->deactivate();
  }

  void verify(pm::PmDevice& dev, const AckLog&) override {
    std::size_t first_entries = 0;
    for (int round = 0; round < 2; round++) {
      SCOPED_TRACE(round == 0 ? "first recovery" : "re-recovery after re-crash");
      auto pool = pm::PmPool::recover(dev, "pool");
      ASSERT_TRUE(pool.ok());
      auto rec = storage::LsmStore::recover(dev, pool.value(), "db");
      ASSERT_TRUE(rec.ok()) << "I3: recovery failed";
      auto& store = rec.value();
      log_.verify([&](const std::string& k) { return store.get(k); });
      if (round == 0) {
        first_entries = store.entries();
        dev.crash();  // I4: idempotent re-recovery
      } else {
        EXPECT_EQ(store.entries(), first_entries) << "I4: state drifted";
      }
    }
  }

 private:
  bool backlogged_;
  std::optional<pm::PmPool> pool_;
  std::optional<storage::LsmStore> store_;
  std::optional<pm::FlushBatcher> batcher_;
  GroupCommitLog log_;
};

class GroupCommitPktScenario final : public CrashScenario {
 public:
  explicit GroupCommitPktScenario(bool backlogged = true)
      : backlogged_(backlogged) {}

  void format(pm::PmDevice& dev) override {
    pool_.emplace(pm::PmPool::create(dev, "pkts", dev.data_base(), 1u << 20));
    arena_.emplace(dev, *pool_);
    pktpool_.emplace(dev.env(), *arena_);
    store_.emplace(core::PktStore::create(*pktpool_, "db"));
    batcher_.emplace(dev, crash_test_policy());
    batcher_->register_pool(*pool_);
    store_->set_batcher(*batcher_);
  }

  void workload(pm::PmDevice&, AckLog&) override {
    auto put = [&](std::size_t i, u64 tag, std::size_t len) {
      auto val = value_of(tag, len);
      batcher_->begin_op(backlogged_, 0);
      log_.pend({GroupOp::kPut, key_of(i), val});
      EXPECT_TRUE(store_->put_bytes(key_of(i), val).ok());
      batcher_->on_committed(log_.ack());
      batcher_->end_op();
    };
    auto erase = [&](std::size_t i) {
      batcher_->begin_op(backlogged_, 0);
      log_.pend({GroupOp::kErase, key_of(i), {}});
      EXPECT_TRUE(store_->erase(key_of(i)));
      batcher_->on_committed(log_.ack());
      batcher_->end_op();
    };
    for (std::size_t i = 0; i < 3; i++) put(i, i + 40, 1024);
    put(3, 43, 1024);
    put(1, 140, 1024);  // overwrite: old chain quarantined past the close
    erase(2);
    put(2, 141, 300);
    const std::size_t extra = crashtest::exhaustive() ? 4 : 2;
    for (std::size_t i = 0; i < extra; i++) put(4 + i, 90 + i, 1024);
    batcher_->deactivate();
  }

  void verify(pm::PmDevice& dev, const AckLog&) override {
    std::size_t first_size = 0;
    for (int round = 0; round < 2; round++) {
      SCOPED_TRACE(round == 0 ? "first recovery" : "re-recovery after re-crash");
      auto pool = pm::PmPool::recover(dev, "pkts");
      ASSERT_TRUE(pool.ok());
      net::PmArena arena(dev, pool.value());
      net::PktBufPool pktpool(dev.env(), arena);
      auto rec = core::PktStore::recover(pktpool, "db");
      ASSERT_TRUE(rec.ok()) << "I3: recovery failed";
      auto& store = rec.value();
      EXPECT_TRUE(store.validate().ok()) << "I3: index invalid";
      log_.verify([&](const std::string& k) { return store.get(k); });
      if (round == 0) {
        first_size = store.size();
        dev.crash();
      } else {
        EXPECT_EQ(store.size(), first_size) << "I4: state drifted";
      }
    }
  }

 private:
  bool backlogged_;
  std::optional<pm::PmPool> pool_;
  std::optional<net::PmArena> arena_;
  std::optional<net::PktBufPool> pktpool_;
  std::optional<core::PktStore> store_;
  std::optional<pm::FlushBatcher> batcher_;
  GroupCommitLog log_;
};

// The PM flight recorder (obs/flightrec.h), swept through every
// flush/fence boundary of a wrapping append workload under group-commit
// epochs. The ring's contract against the ack stream:
//
//   * an acked record survives byte-exact until a wrap reclaims its slot
//     (which takes `capacity` further appends — never mid-epoch, since
//     capacity > max_epoch_ops);
//   * recovery never surfaces a phantom (a seq that was never appended)
//     or a torn body (the seq-bound CRC rejects both);
//   * recovered seqs are distinct, and recovery is idempotent.
class FlightRecorderScenario final : public CrashScenario {
 public:
  static constexpr u32 kCap = 4;  // small ring: the sweep crosses wraps
  static std::size_t ops() { return crashtest::exhaustive() ? 14 : 10; }

  // Deterministic body for seq: recovery can check every surviving slot
  // byte-for-byte without carrying state across the cut.
  static obs::FlightRecord record_of(u64 seq) {
    obs::FlightRecord r;
    r.req = 1000 + seq;
    r.t0_ns = seq * 17;
    for (std::size_t s = 0; s < obs::kStages; s++) {
      r.stage_ns[s] = static_cast<u32>(seq * 100 + s);
    }
    r.result = 201;
    r.op = 'P';
    return r;
  }

  void format(pm::PmDevice& dev) override {
    pool_.emplace(pm::PmPool::create(dev, "pool", dev.data_base(), 1u << 20));
    auto fr = obs::FlightRecorder::create(dev, *pool_, 0, kCap);
    ASSERT_TRUE(fr.ok());
    fr_.emplace(std::move(fr.value()));
    batcher_.emplace(dev, crash_test_policy());
    batcher_->register_pool(*pool_);
    fr_->set_batcher(*batcher_);
  }

  void workload(pm::PmDevice&, AckLog&) override {
    // The ack stream is the recorder's own: on_committed fires once the
    // epoch that carried the record's publication is durably retired —
    // the same boundary at which the server releases the client's ack.
    for (std::size_t i = 0; i < ops(); i++) {
      batcher_->begin_op(true, 0);
      appends_started_++;
      const u64 seq = fr_->append(record_of(appends_started_));
      EXPECT_EQ(seq, appends_started_);
      batcher_->on_committed([this, seq] { acked_.insert(seq); });
      batcher_->end_op();
    }
    batcher_->deactivate();
  }

  void verify(pm::PmDevice& dev, const AckLog&) override {
    auto rec = obs::FlightRecorder::recover(dev, 0);
    ASSERT_TRUE(rec.ok()) << "I3: flight recorder recovery failed";
    obs::FlightRecorder::ScanStats st;
    const auto flights = rec.value().scan(&st);
    EXPECT_LE(flights.size(), kCap);
    std::set<u64> seen;
    for (const auto& f : flights) {
      EXPECT_TRUE(seen.insert(f.seq).second) << "duplicate seq " << f.seq;
      ASSERT_LE(f.seq, appends_started_) << "phantom record " << f.seq;
      const obs::FlightRecord want = record_of(f.seq);
      EXPECT_EQ(f.rec.req, want.req) << "seq " << f.seq;
      EXPECT_EQ(f.rec.t0_ns, want.t0_ns) << "seq " << f.seq;
      EXPECT_EQ(std::memcmp(f.rec.stage_ns, want.stage_ns,
                            sizeof want.stage_ns),
                0)
          << "I2: torn stage table for seq " << f.seq;
      EXPECT_EQ(f.rec.result, want.result) << "seq " << f.seq;
      EXPECT_EQ(f.rec.op, want.op) << "seq " << f.seq;
    }
    // AckLog reconciliation (I1): every acked record whose slot no later
    // append could have reclaimed must be present.
    for (const u64 k : acked_) {
      if (k + kCap <= appends_started_) continue;  // slot reclaimed by wrap
      EXPECT_TRUE(seen.contains(k)) << "I1: acked record " << k << " lost";
    }
    // The attached recorder resumes past every survivor.
    EXPECT_EQ(rec.value().seq(), st.max_seq);
    // I4: a re-crash right after recovery (scan is read-only) changes
    // nothing.
    dev.crash();
    auto rec2 = obs::FlightRecorder::recover(dev, 0);
    ASSERT_TRUE(rec2.ok()) << "I4: re-recovery failed";
    const auto again = rec2.value().scan(nullptr);
    ASSERT_EQ(again.size(), flights.size()) << "I4: state drifted";
    for (std::size_t i = 0; i < again.size(); i++) {
      EXPECT_EQ(again[i].seq, flights[i].seq);
    }
  }

 private:
  std::optional<pm::PmPool> pool_;
  std::optional<obs::FlightRecorder> fr_;
  std::optional<pm::FlushBatcher> batcher_;
  u64 appends_started_ = 0;
  std::set<u64> acked_;
};

// Two datapath shards, each with a private PmPool slice and skip list
// (the PR-1 scale-out layout). Keys route by shard_of(); verification
// recovers both shards, checks shard isolation, and checks the merged
// view is identical across repeated crash+recover cycles.
// `shadow_towers = false` sweeps the persist-everything index.
class ShardedIndexScenario final : public CrashScenario {
 public:
  explicit ShardedIndexScenario(bool shadow_towers = true) {
    opts_.shadow_towers = shadow_towers;
  }

  static int shard_of(const std::string& key) { return (key.back() - '0') % 2; }
  static u64 payload_of(std::size_t i) {
    return ((i + 1) * 0x9e3779b97f4a7c15ULL) | 1;
  }

  void format(pm::PmDevice& dev) override {
    const u64 span = 256u << 10;
    const u64 b0 = dev.data_base();
    const u64 b1 = align_up(b0 + span, kCacheLine);
    pool0_.emplace(pm::PmPool::create(dev, "p0", b0, span));
    pool1_.emplace(pm::PmPool::create(dev, "p1", b1, span));
    idx0_.emplace(container::PSkipList::create(dev, *pool0_, "s0", opts_));
    idx1_.emplace(container::PSkipList::create(dev, *pool1_, "s1", opts_));
  }

  void workload(pm::PmDevice&, AckLog& log) override {
    const std::size_t n = crashtest::exhaustive() ? 16 : 8;
    for (std::size_t i = 0; i < n; i++) {
      const std::string key = key_of(i);
      log.begin_put(key, enc_u64(payload_of(i)));
      EXPECT_TRUE(list(shard_of(key)).put(key, payload_of(i)).ok());
      log.ack();
    }
    const u64 upd = 0xfeed'beef'cafe'f00dULL | 1;  // update (shard 1)
    log.begin_put(key_of(1), enc_u64(upd));
    EXPECT_TRUE(list(shard_of(key_of(1))).put(key_of(1), upd).ok());
    log.ack();
    log.begin_erase(key_of(2));  // erase (shard 0)
    EXPECT_TRUE(list(shard_of(key_of(2))).erase(key_of(2)));
    log.ack();
  }

  void verify(pm::PmDevice& dev, const AckLog& log) override {
    std::map<std::string, u64> first_merge;
    for (int round = 0; round < 2; round++) {
      SCOPED_TRACE(round == 0 ? "first recovery" : "re-recovery after re-crash");
      auto p0 = pm::PmPool::recover(dev, "p0");
      auto p1 = pm::PmPool::recover(dev, "p1");
      ASSERT_TRUE(p0.ok() && p1.ok()) << "per-shard pool root inconsistent";
      auto s0 = container::PSkipList::recover(dev, p0.value(), "s0", opts_);
      auto s1 = container::PSkipList::recover(dev, p1.value(), "s1", opts_);
      ASSERT_TRUE(s0.ok() && s1.ok()) << "per-shard index root inconsistent";
      EXPECT_TRUE(s0.value().validate().ok());
      EXPECT_TRUE(s1.value().validate().ok());
      container::PSkipList* shards[2] = {&s0.value(), &s1.value()};
      crashtest::verify_kv(log,
                           [&](const std::string& k) -> Result<std::vector<u8>> {
                             auto r = shards[shard_of(k)]->get(k);
                             if (!r.ok()) return r.errc();
                             return enc_u64(r.value());
                           });
      // Shard isolation: no key leaks into the other shard.
      for (const auto& [k, v] : log.acked()) {
        EXPECT_FALSE(shards[1 - shard_of(k)]->get(k).ok())
            << "key '" << k << "' visible in the wrong shard";
      }
      // Cross-shard merge: the union view, newest-wins (keys are disjoint
      // across shards, so the merge is a plain union).
      std::map<std::string, u64> merged;
      for (auto* s : shards) {
        s->scan("", "", [&](std::string_view k, u64 p) {
          merged[std::string(k)] = p;
          return true;
        });
      }
      if (round == 0) {
        first_merge = std::move(merged);
        dev.crash();  // I4
      } else {
        EXPECT_EQ(merged, first_merge) << "I4: cross-shard merge not idempotent";
      }
    }
  }

 private:
  [[nodiscard]] container::PSkipList& list(int shard) {
    return shard == 0 ? *idx0_ : *idx1_;
  }

  container::PSkipListOptions opts_;
  std::optional<pm::PmPool> pool0_, pool1_;
  std::optional<container::PSkipList> idx0_, idx1_;
};

// --- The sweeps -----------------------------------------------------------

void run_all_plans(u64 dev_size, const crashtest::ScenarioFactory& make) {
  for (const auto& [name, plan] : sweep_plans()) {
    SCOPED_TRACE("failure model: " + name);
    SweepOptions opt;
    opt.dev_size = dev_size;
    opt.plan = plan;
    auto res = crashtest::run_crash_sweep(opt, make);
    if (!::testing::Test::HasFailure()) {
      EXPECT_EQ(res.points_tested, res.boundaries)
          << "sweep did not cover every flush/fence boundary";
    }
  }
}

TEST(CrashSweep, RawRegionPublishProtocol) {
  run_all_plans(1u << 20, [] { return std::make_unique<RawRegionScenario>(); });
}

TEST(CrashSweep, LsmStoreNoWal) {
  run_all_plans(2u << 20,
                [] { return std::make_unique<LsmScenario>(false, 0); });
}

TEST(CrashSweep, LsmStoreWalAndRotation) {
  run_all_plans(2u << 20,
                [] { return std::make_unique<LsmScenario>(true, 2600); });
}

TEST(CrashSweep, PktStore) {
  run_all_plans(2u << 20, [] { return std::make_unique<PktStoreScenario>(); });
}

TEST(CrashSweep, PktStorePersistentTowers) {
  run_all_plans(2u << 20,
                [] { return std::make_unique<PktStoreScenario>(false); });
}

TEST(CrashSweep, SlicedIngestHostInsert) {
  run_all_plans(2u << 20, [] {
    return std::make_unique<SlicedIngestScenario>(core::InsertPolicy::host);
  });
}

TEST(CrashSweep, SlicedIngestNicInsert) {
  run_all_plans(2u << 20, [] {
    return std::make_unique<SlicedIngestScenario>(core::InsertPolicy::nic);
  });
}

TEST(CrashSweep, ShardedSkipListsMergeIdempotent) {
  run_all_plans(2u << 20,
                [] { return std::make_unique<ShardedIndexScenario>(); });
}

TEST(CrashSweep, ShardedSkipListsPersistentTowers) {
  run_all_plans(2u << 20,
                [] { return std::make_unique<ShardedIndexScenario>(false); });
}

TEST(CrashSweep, GroupCommitLsmEpochBoundaries) {
  run_all_plans(2u << 20,
                [] { return std::make_unique<GroupCommitLsmScenario>(); });
}

TEST(CrashSweep, GroupCommitLsmPassThrough) {
  run_all_plans(2u << 20,
                [] { return std::make_unique<GroupCommitLsmScenario>(false); });
}

TEST(CrashSweep, GroupCommitPktStoreEpochBoundaries) {
  run_all_plans(2u << 20,
                [] { return std::make_unique<GroupCommitPktScenario>(); });
}

TEST(CrashSweep, GroupCommitPktStorePassThrough) {
  run_all_plans(2u << 20,
                [] { return std::make_unique<GroupCommitPktScenario>(false); });
}

TEST(CrashSweep, FlightRecorder) {
  run_all_plans(1u << 20,
                [] { return std::make_unique<FlightRecorderScenario>(); });
}

// --- Satellite coverage ---------------------------------------------------

// PmArena reuse after recovery: allocations from a recovered pool must
// not collide with blocks still referenced by recovered structures, and
// freed blocks must be recyclable.
TEST(CrashRecovery, PmArenaReuseAfterRecovery) {
  sim::Env env;
  pm::PmDevice dev(env, 2u << 20);
  {
    auto pool = pm::PmPool::create(dev, "pkts", dev.data_base(), 1u << 20);
    net::PmArena arena(dev, pool);
    net::PktBufPool pktpool(env, arena);
    auto store = core::PktStore::create(pktpool, "db");
    for (std::size_t i = 0; i < 6; i++) {
      ASSERT_TRUE(store.put_bytes(key_of(i), value_of(i, 1024)).ok());
    }
  }
  dev.crash();

  auto pr = pm::PmPool::recover(dev, "pkts");
  ASSERT_TRUE(pr.ok());
  net::PmArena arena(dev, pr.value());
  net::PktBufPool pktpool(env, arena);
  auto rec = core::PktStore::recover(pktpool, "db");
  ASSERT_TRUE(rec.ok());
  auto& store = rec.value();

  // New allocations from the recovered arena (index nodes, metadata and
  // value blocks all come from it) must leave recovered values intact.
  for (std::size_t i = 6; i < 14; i++) {
    ASSERT_TRUE(store.put_bytes(key_of(i), value_of(i, 1024)).ok());
  }
  for (std::size_t i = 0; i < 14; i++) {
    auto r = store.get(key_of(i));
    ASSERT_TRUE(r.ok()) << key_of(i);
    EXPECT_EQ(r.value(), value_of(i, 1024)) << key_of(i);
  }
  EXPECT_TRUE(store.validate().ok());

  // Recycle: erase half, re-put through the freelists, verify everything.
  for (std::size_t i = 0; i < 14; i += 2) EXPECT_TRUE(store.erase(key_of(i)));
  for (std::size_t i = 0; i < 14; i += 2) {
    ASSERT_TRUE(store.put_bytes(key_of(i), value_of(i + 50, 512)).ok());
  }
  for (std::size_t i = 0; i < 14; i++) {
    auto r = store.get(key_of(i));
    ASSERT_TRUE(r.ok()) << key_of(i);
    EXPECT_EQ(r.value(), i % 2 == 0 ? value_of(i + 50, 512) : value_of(i, 1024));
  }
  EXPECT_TRUE(store.validate().ok());
}

// PktBufPool exhaustion and refill with a fault plan armed, including a
// power cut mid-churn: the pool must recover ("leak, never corrupt") and
// keep serving allocations.
TEST(CrashRecovery, PktBufPoolExhaustionRefillUnderFaultPlan) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 20);
  const u64 span = 64u << 10;
  auto pool = pm::PmPool::create(dev, "pkts", dev.data_base(), span);
  net::PmArena arena(dev, pool);
  net::PktBufPool pktpool(env, arena);

  pm::FaultPlan plan;
  plan.unfenced_drain_p = 0.4;
  plan.tear_p = 0.75;
  plan.evict_dirty_p = 0.35;
  dev.set_fault_plan(plan);  // crash_at_event = 0: count, never cut

  // Exhaust the arena.
  std::vector<net::PktBuf*> held;
  while (net::PktBuf* pb = pktpool.alloc(2048)) held.push_back(pb);
  ASSERT_GE(held.size(), 8u);
  EXPECT_EQ(pktpool.alloc(2048), nullptr) << "exhaustion must be sticky";

  // Refill: freeing makes allocation succeed again.
  const std::size_t half = held.size() / 2;
  for (std::size_t i = 0; i < half; i++) {
    pktpool.free(held.back());
    held.pop_back();
  }
  for (std::size_t i = 0; i < half; i++) {
    net::PktBuf* pb = pktpool.alloc(2048);
    ASSERT_NE(pb, nullptr) << "freelist refill failed at " << i;
    held.push_back(pb);
  }

  // Return everything to the freelists durably: blocks still *held* at a
  // cut are referenced only from DRAM, so they would (correctly) leak.
  const std::size_t returned = held.size();
  for (net::PktBuf* pb : held) pktpool.free(pb);
  held.clear();

  // Cut power mid-churn; the pool header/freelists must stay consistent
  // and lose at most the blocks in flight at the instant of the cut.
  pm::FaultPlan cutting = plan;
  cutting.crash_at_event = 5;
  dev.set_fault_plan(cutting);  // resets the event counter
  bool cut = false;
  try {
    for (;;) {
      net::PktBuf* pb = pktpool.alloc(2048);
      ASSERT_NE(pb, nullptr);
      pktpool.free(pb);
    }
  } catch (const pm::PowerFailure&) {
    cut = true;
  }
  ASSERT_TRUE(cut);
  dev.clear_fault_plan();

  auto pr = pm::PmPool::recover(dev, "pkts");
  ASSERT_TRUE(pr.ok()) << "pool header corrupt after mid-churn cut";
  net::PmArena arena2(dev, pr.value());
  net::PktBufPool pktpool2(env, arena2);
  std::set<u64> offsets;
  std::vector<net::PktBuf*> fresh;
  while (net::PktBuf* pb = pktpool2.alloc(2048)) {
    // Every block the recovered pool hands out is in-span, line-aligned
    // and distinct — a corrupt freelist would violate one of these.
    EXPECT_GE(pb->data_h, dev.data_base());
    EXPECT_LT(pb->data_h + 2048, dev.data_base() + span);
    EXPECT_EQ(pb->data_h % kCacheLine, 0u);
    EXPECT_TRUE(offsets.insert(pb->data_h).second)
        << "freelist loop: block handed out twice";
    fresh.push_back(pb);
  }
  // At most the churn's in-flight blocks (one popped, one mid-push)
  // leaked; every other returned block must be allocatable again.
  EXPECT_GE(fresh.size() + 2, returned);
  for (net::PktBuf* pb : fresh) pktpool2.free(pb);
}

}  // namespace
}  // namespace papm
