// Tests for storage/: WAL, PM memtable (with Table 1 calibration checks),
// LSM store with rotation/tombstones/compaction, crash recovery.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>

#include "common/rng.h"
#include "storage/lsm_store.h"

namespace papm::storage {
namespace {

constexpr u64 kDev = 32u << 20;

std::vector<u8> value_of(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<u8> v(n);
  for (auto& b : v) b = static_cast<u8>(rng.next());
  return v;
}

class StorageTest : public ::testing::Test {
 protected:
  sim::Env env;
  pm::PmDevice dev{env, kDev};
  pm::PmPool pool{pm::PmPool::create(dev, "pool", dev.data_base(), kDev - 4096)};
};

// ---------- WAL ----------

class WalTest : public StorageTest {
 protected:
  Wal wal{Wal::create(dev, "wal", align_up(kDev / 2, kCacheLine), kDev / 4)};
};

TEST_F(WalTest, AppendAndReplay) {
  const auto v1 = value_of(100, 1);
  ASSERT_TRUE(wal.append(WalRecordType::put, "alpha", v1).ok());
  ASSERT_TRUE(wal.append(WalRecordType::erase, "beta", {}).ok());

  std::vector<std::tuple<WalRecordType, std::string, std::vector<u8>>> seen;
  const u64 n = wal.replay([&](WalRecordType t, std::string_view k,
                               std::span<const u8> v) {
    seen.emplace_back(t, std::string(k), std::vector<u8>(v.begin(), v.end()));
  });
  ASSERT_EQ(n, 2u);
  EXPECT_EQ(std::get<0>(seen[0]), WalRecordType::put);
  EXPECT_EQ(std::get<1>(seen[0]), "alpha");
  EXPECT_EQ(std::get<2>(seen[0]), v1);
  EXPECT_EQ(std::get<0>(seen[1]), WalRecordType::erase);
  EXPECT_EQ(std::get<1>(seen[1]), "beta");
}

TEST_F(WalTest, ReplaySurvivesCrash) {
  ASSERT_TRUE(wal.append(WalRecordType::put, "k", value_of(64, 2)).ok());
  dev.crash();
  auto rec = Wal::recover(dev, "wal");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->replay([](WalRecordType, std::string_view, std::span<const u8>) {}),
            1u);
}

TEST_F(WalTest, CorruptTailStopsReplayCleanly) {
  ASSERT_TRUE(wal.append(WalRecordType::put, "good", value_of(32, 3)).ok());
  const u64 tail_before = wal.bytes_used();
  ASSERT_TRUE(wal.append(WalRecordType::put, "torn", value_of(32, 4)).ok());
  // Corrupt a byte inside the second record's body (simulated torn write).
  const u64 base = align_up(kDev / 2, kCacheLine) + 64 + tail_before + 20;
  u8 evil = *dev.at(base, 1) ^ 0xff;
  dev.store(base, {&evil, 1});

  u64 n = 0;
  std::string last;
  wal.replay([&](WalRecordType, std::string_view k, std::span<const u8>) {
    n++;
    last = std::string(k);
  });
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(last, "good");
}

TEST_F(WalTest, TruncateResets) {
  ASSERT_TRUE(wal.append(WalRecordType::put, "x", value_of(16, 5)).ok());
  EXPECT_GT(wal.bytes_used(), 0u);
  wal.truncate();
  EXPECT_EQ(wal.bytes_used(), 0u);
  EXPECT_EQ(wal.replay([](WalRecordType, std::string_view, std::span<const u8>) {}),
            0u);
}

TEST_F(WalTest, FillsUpThenRejects) {
  const auto big = value_of(4096, 6);
  Status st = Errc::ok;
  int appended = 0;
  while ((st = wal.append(WalRecordType::put, "key", big)).ok()) appended++;
  EXPECT_EQ(st.errc(), Errc::out_of_space);
  EXPECT_GT(appended, 100);
  EXPECT_LE(wal.bytes_used(), wal.capacity());
}

// ---------- PmMemtable ----------

class MemtableTest : public StorageTest {
 protected:
  PmMemtable mt{PmMemtable::create(dev, pool, "mt")};
  StoreKnobs all;  // everything on
};

TEST_F(MemtableTest, PutGetRoundTrip) {
  const auto v = value_of(1024, 7);
  ASSERT_TRUE(mt.put("key1", v, all).ok());
  const auto got = mt.get("key1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), v);
}

TEST_F(MemtableTest, OverwriteFreesOldRecord) {
  ASSERT_TRUE(mt.put("k", value_of(512, 8), all).ok());
  const u64 before = pool.allocated_bytes();
  ASSERT_TRUE(mt.put("k", value_of(512, 9), all).ok());
  // Steady state: new record allocated, old freed.
  EXPECT_EQ(pool.allocated_bytes(), before);
  EXPECT_EQ(mt.get("k").value(), value_of(512, 9));
}

TEST_F(MemtableTest, ChecksumDetectsCorruption) {
  const auto v = value_of(256, 10);
  ASSERT_TRUE(mt.put("k", v, all).ok());
  // Find and corrupt the stored value byte via the zero-copy view.
  const auto view = mt.get_view("k");
  ASSERT_TRUE(view.ok());
  u8* p = const_cast<u8*>(view.value().data());
  p[100] ^= 0x40;
  EXPECT_EQ(mt.get("k").errc(), Errc::corrupted);
}

TEST_F(MemtableTest, NoChecksumKnobSkipsVerification) {
  StoreKnobs k = all;
  k.checksum = false;
  const auto v = value_of(256, 11);
  ASSERT_TRUE(mt.put("k", v, k).ok());
  const auto view = mt.get_view("k");
  const_cast<u8*>(view.value().data())[0] ^= 0xff;
  EXPECT_TRUE(mt.get("k").ok());  // silently returns corrupt data
}

TEST_F(MemtableTest, TombstoneLookup) {
  ASSERT_TRUE(mt.put("k", value_of(10, 12), all).ok());
  ASSERT_TRUE(mt.put_tombstone("k", all).ok());
  EXPECT_EQ(mt.get("k").errc(), Errc::not_found);
  const auto e = mt.lookup("k");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e->tombstone);
}

TEST_F(MemtableTest, BreakdownMatchesTable1Calibration) {
  // Populate to a realistic index depth first.
  const auto v = value_of(1024, 13);
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(mt.put("key" + std::to_string(i), v, all).ok());
  }
  // Measure the average 1 KB put breakdown.
  OpBreakdown sum;
  const int n = 500;
  Rng rng(14);
  for (int i = 0; i < n; i++) {
    OpBreakdown bd;
    ASSERT_TRUE(
        mt.put("key" + std::to_string(rng.next_below(4000)), v, all, &bd).ok());
    sum += bd;
  }
  sum /= n;
  // Paper Table 1 (1 KB write): prep 0.70, checksum 1.77, copy 1.14,
  // alloc+insert 2.78, persist 1.94 us. Allow generous tolerances — the
  // shape matters, not the third digit.
  EXPECT_NEAR(static_cast<double>(sum.prep_ns), 700.0, 100.0);
  EXPECT_NEAR(static_cast<double>(sum.checksum_ns), 1770.0, 200.0);
  EXPECT_NEAR(static_cast<double>(sum.copy_ns), 1140.0, 150.0);
  EXPECT_NEAR(static_cast<double>(sum.alloc_insert_ns), 2780.0, 700.0);
  EXPECT_NEAR(static_cast<double>(sum.persist_ns), 1940.0, 200.0);
  EXPECT_NEAR(static_cast<double>(sum.data_mgmt_ns()), 6390.0, 900.0);
}

TEST_F(MemtableTest, KnobsSkipExactlyTheirPhase) {
  const auto v = value_of(1024, 15);
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(mt.put("warm" + std::to_string(i), v, all).ok());
  }
  auto measure = [&](const StoreKnobs& k) {
    OpBreakdown sum;
    for (int i = 0; i < 100; i++) {
      OpBreakdown bd;
      (void)mt.put("probe" + std::to_string(i), v, k, &bd);
      sum += bd;
    }
    sum /= 100;
    return sum;
  };
  const auto base = measure(all);

  StoreKnobs no_csum = all;
  no_csum.checksum = false;
  EXPECT_EQ(measure(no_csum).checksum_ns, 0);

  StoreKnobs no_copy = all;
  no_copy.data_copy = false;
  EXPECT_EQ(measure(no_copy).copy_ns, 0);

  StoreKnobs no_persist = all;
  no_persist.persistence = false;
  EXPECT_EQ(measure(no_persist).persist_ns, 0);

  StoreKnobs no_prep = all;
  no_prep.request_prep = false;
  EXPECT_LT(measure(no_prep).prep_ns, base.prep_ns / 4);
}

TEST_F(MemtableTest, SurvivesCrashAndRecovers) {
  std::map<std::string, std::vector<u8>> model;
  Rng rng(16);
  for (int i = 0; i < 150; i++) {
    const std::string key = "k" + std::to_string(i);
    auto v = value_of(64 + rng.next_below(512), i);
    ASSERT_TRUE(mt.put(key, v, all).ok());
    model[key] = std::move(v);
  }
  dev.crash();
  auto pool2 = pm::PmPool::recover(dev, "pool");
  ASSERT_TRUE(pool2.ok());
  auto rec = PmMemtable::recover(dev, pool2.value(), "mt");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->size(), model.size());
  for (const auto& [k, v] : model) {
    const auto got = rec->get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(got.value(), v) << k;  // checksum verified too
  }
}

TEST_F(MemtableTest, ScanSkipsNothingAndReportsTombstones) {
  ASSERT_TRUE(mt.put("a", value_of(8, 17), all).ok());
  ASSERT_TRUE(mt.put_tombstone("b", all).ok());
  ASSERT_TRUE(mt.put("c", value_of(8, 18), all).ok());
  std::string keys;
  int tombs = 0;
  mt.scan("", "", [&](std::string_view k, std::span<const u8>, bool tomb) {
    keys += k;
    tombs += tomb;
    return true;
  });
  EXPECT_EQ(keys, "abc");
  EXPECT_EQ(tombs, 1);
}

// ---------- LsmStore ----------

class LsmTest : public StorageTest {};

TEST_F(LsmTest, BasicPutGetErase) {
  auto store = LsmStore::create(dev, pool, "db");
  const auto v = value_of(300, 20);
  ASSERT_TRUE(store.put("k", v).ok());
  EXPECT_EQ(store.get("k").value(), v);
  ASSERT_TRUE(store.erase("k").ok());
  EXPECT_EQ(store.get("k").errc(), Errc::not_found);
}

TEST_F(LsmTest, RotationKeepsOldDataReadable) {
  LsmOptions opts;
  opts.memtable_limit_bytes = 64 * 1024;
  auto store = LsmStore::create(dev, pool, "db", opts);
  std::map<std::string, std::vector<u8>> model;
  for (int i = 0; i < 200; i++) {
    const std::string key = "key" + std::to_string(i);
    auto v = value_of(1024, 100 + i);
    ASSERT_TRUE(store.put(key, v).ok());
    model[key] = std::move(v);
  }
  EXPECT_GT(store.table_count(), 1u);
  for (const auto& [k, v] : model) {
    EXPECT_EQ(store.get(k).value(), v) << k;
  }
}

TEST_F(LsmTest, NewerTableShadowsOlder) {
  auto store = LsmStore::create(dev, pool, "db");
  ASSERT_TRUE(store.put("k", value_of(100, 30)).ok());
  ASSERT_TRUE(store.rotate().ok());
  ASSERT_TRUE(store.put("k", value_of(100, 31)).ok());
  EXPECT_EQ(store.get("k").value(), value_of(100, 31));
}

TEST_F(LsmTest, TombstoneShadowsFrozenEntry) {
  auto store = LsmStore::create(dev, pool, "db");
  ASSERT_TRUE(store.put("k", value_of(100, 32)).ok());
  ASSERT_TRUE(store.rotate().ok());
  ASSERT_TRUE(store.erase("k").ok());
  EXPECT_EQ(store.get("k").errc(), Errc::not_found);
}

TEST_F(LsmTest, MergedScanAcrossTables) {
  auto store = LsmStore::create(dev, pool, "db");
  ASSERT_TRUE(store.put("a", value_of(8, 33)).ok());
  ASSERT_TRUE(store.put("b", value_of(8, 34)).ok());
  ASSERT_TRUE(store.rotate().ok());
  ASSERT_TRUE(store.put("b", value_of(8, 35)).ok());  // shadow
  ASSERT_TRUE(store.put("c", value_of(8, 36)).ok());
  ASSERT_TRUE(store.erase("a").ok());                 // tombstone

  std::vector<std::string> keys;
  std::vector<std::vector<u8>> values;
  store.scan("", "", [&](std::string_view k, std::span<const u8> v) {
    keys.emplace_back(k);
    values.emplace_back(v.begin(), v.end());
    return true;
  });
  ASSERT_EQ(keys, (std::vector<std::string>{"b", "c"}));
  EXPECT_EQ(values[0], value_of(8, 35));  // newest wins
}

TEST_F(LsmTest, CompactMergesAndDropsTombstones) {
  auto store = LsmStore::create(dev, pool, "db");
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(store.put("k" + std::to_string(i), value_of(64, 40 + i)).ok());
  }
  ASSERT_TRUE(store.rotate().ok());
  for (int i = 0; i < 25; i++) {
    ASSERT_TRUE(store.erase("k" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(store.rotate().ok());
  EXPECT_EQ(store.table_count(), 3u);

  ASSERT_TRUE(store.compact().ok());
  EXPECT_EQ(store.table_count(), 1u);
  EXPECT_EQ(store.entries(), 25u);  // tombstones dropped
  for (int i = 0; i < 50; i++) {
    const auto got = store.get("k" + std::to_string(i));
    if (i < 25) {
      EXPECT_FALSE(got.ok()) << i;
    } else {
      EXPECT_EQ(got.value(), value_of(64, 40 + i)) << i;
    }
  }
}

TEST_F(LsmTest, RecoversMultiTableStoreAfterCrash) {
  LsmOptions opts;
  opts.memtable_limit_bytes = 32 * 1024;
  auto store = LsmStore::create(dev, pool, "db", opts);
  std::map<std::string, std::vector<u8>> model;
  for (int i = 0; i < 120; i++) {
    const std::string key = "key" + std::to_string(i);
    auto v = value_of(1024, 200 + i);
    ASSERT_TRUE(store.put(key, v).ok());
    model[key] = std::move(v);
  }
  const auto tables = store.table_count();
  ASSERT_GT(tables, 1u);
  dev.crash();

  auto pool2 = pm::PmPool::recover(dev, "pool");
  ASSERT_TRUE(pool2.ok());
  auto rec = LsmStore::recover(dev, pool2.value(), "db", opts);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->table_count(), tables);
  for (const auto& [k, v] : model) {
    EXPECT_EQ(rec->get(k).value(), v) << k;
  }
}

TEST_F(LsmTest, WalReplayRestoresUnflushedishWrites) {
  LsmOptions opts;
  opts.use_wal = true;
  auto store = LsmStore::create(dev, pool, "db", opts);
  ASSERT_TRUE(store.put("logged", value_of(128, 50)).ok());
  dev.crash();
  auto pool2 = pm::PmPool::recover(dev, "pool");
  auto rec = LsmStore::recover(dev, pool2.value(), "db", opts);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->has_wal());
  EXPECT_EQ(rec->get("logged").value(), value_of(128, 50));
}

TEST_F(LsmTest, WalCostsShowUpInLatency) {
  LsmOptions with_wal;
  with_wal.use_wal = true;
  auto a = LsmStore::create(dev, pool, "db1", with_wal);
  auto b = LsmStore::create(dev, pool, "db2");
  const auto v = value_of(1024, 51);

  SimTime t0 = env.now();
  ASSERT_TRUE(a.put("k", v).ok());
  const SimTime wal_cost = env.now() - t0;
  t0 = env.now();
  ASSERT_TRUE(b.put("k", v).ok());
  const SimTime plain_cost = env.now() - t0;
  EXPECT_GT(wal_cost, plain_cost + env.cost.crc32c_cost(1024));
}

TEST_F(LsmTest, RecoverUnknownNameFails) {
  EXPECT_EQ(LsmStore::recover(dev, pool, "ghost").errc(), Errc::not_found);
}

// Crash fuzz: interleave puts/erases/rotations with crashes; acknowledged
// state must always be fully recovered.
class LsmCrashFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(LsmCrashFuzz, AcknowledgedWritesSurvive) {
  sim::Env env;
  env.rng = Rng(GetParam());
  pm::PmDevice dev(env, kDev);
  auto pool = pm::PmPool::create(dev, "pool", dev.data_base(), kDev - 4096);
  auto store = LsmStore::create(dev, pool, "db");

  Rng rng(GetParam() * 17 + 3);
  std::map<std::string, std::vector<u8>> model;
  for (int round = 0; round < 4; round++) {
    for (int i = 0; i < 60; i++) {
      const std::string key = "k" + std::to_string(rng.next_below(80));
      if (!model.empty() && rng.chance(0.25)) {
        const Status st = store.erase(key);
        if (model.count(key) != 0) {
          ASSERT_TRUE(st.ok());
        } else {
          ASSERT_EQ(st.errc(), Errc::not_found);  // a miss writes nothing
        }
        model.erase(key);
      } else {
        auto v = value_of(32 + rng.next_below(900), rng.next());
        ASSERT_TRUE(store.put(key, v).ok());
        model[key] = std::move(v);
      }
      if (rng.chance(0.05)) {
        const Status st = store.rotate();
        if (st.errc() == Errc::out_of_space) {
          ASSERT_TRUE(store.compact().ok());  // table slots full: compact
        } else {
          ASSERT_TRUE(st.ok());
        }
      }
    }
    dev.crash();
    auto pool2 = pm::PmPool::recover(dev, "pool");
    ASSERT_TRUE(pool2.ok());
    pool = std::move(pool2.value());
    auto rec = LsmStore::recover(dev, pool, "db");
    ASSERT_TRUE(rec.ok());
    store = std::move(rec.value());
    for (const auto& [k, v] : model) {
      const auto got = store.get(k);
      ASSERT_TRUE(got.ok()) << "round " << round << " key " << k;
      ASSERT_EQ(got.value(), v) << "round " << round << " key " << k;
    }
    // And deleted keys stay deleted.
    for (int i = 0; i < 80; i++) {
      const std::string key = "k" + std::to_string(i);
      if (!model.contains(key)) {
        EXPECT_FALSE(store.get(key).ok()) << key;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsmCrashFuzz, ::testing::Values(7, 21, 63, 189));

}  // namespace
}  // namespace papm::storage
