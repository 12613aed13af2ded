// Tests for the NIC payload slicer and the index-insert offload engine:
// sliced delivery is byte-identical to the contiguous path (payload
// bytes AND the checksum-complete narrowing), survives out-of-order
// reassembly, zero-copy adoption skips the persist bill (the DMA already
// placed the payload durably), and the host/NIC insert policy picks the
// right side of the measured crossover.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/pktstore.h"
#include "net/gso.h"
#include "nic/nic.h"

namespace papm::core {
namespace {

using net::PktBuf;

constexpr u64 kDev = 32u << 20;
constexpr u32 kClientIp = 0x0a000001;
constexpr u32 kServerIp = 0x0a000002;
constexpr u16 kPort = 9000;

std::vector<u8> rand_bytes(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<u8> v(n);
  for (auto& b : v) b = static_cast<u8>(rng.next());
  return v;
}

// The PmRig of test_core.cpp, parameterized over the server NIC options
// and the fabric (for reorder/loss sweeps). The client stays DRAM-pooled
// — with slicing requested on both NICs it doubles as the fall-back
// check: a heap arena must never yield sliced descriptors.
struct SliceRig {
  SliceRig(sim::Env& env, nic::Nic::Options nopts,
           nic::Fabric::Options fopts = {})
      : fabric(env, fopts),
        dev(env, kDev),
        pmpool(pm::PmPool::create(dev, "pkts", dev.data_base(), kDev - 4096)),
        arena(dev, pmpool),
        pool(env, arena),
        snic(env, fabric, kServerIp, pool, nopts),
        sstack(env, snic, pool,
               [] {
                 net::TcpStack::Options o;
                 o.ip = kServerIp;
                 o.busy_poll = true;
                 return o;
               }()),
        carena(env),
        cpool(env, carena),
        cnic(env, fabric, kClientIp, cpool, nopts),
        cstack(env, cnic, cpool, [] {
          net::TcpStack::Options o;
          o.ip = kClientIp;
          return o;
        }()) {
    pmpool.set_charges(env.cost.pool_alloc_ns, env.cost.pool_alloc_ns / 2);
    snic.set_sink([this](PktBuf* pb) { sstack.rx(pb); });
    cnic.set_sink([this](PktBuf* pb) { cstack.rx(pb); });
  }

  std::vector<PktBuf*> deliver(sim::Env& env, std::span<const u8> payload) {
    std::vector<PktBuf*> got;
    if (!listening) {
      EXPECT_TRUE(sstack
                      .listen(kPort,
                              [&, this](net::TcpConn& c) {
                                c.on_readable = [this](net::TcpConn& cc) {
                                  for (PktBuf* pb : cc.read_pkts()) {
                                    inbox.push_back(pb);
                                  }
                                };
                              })
                      .ok());
      conn = cstack.connect(kServerIp, kPort);
      listening = true;
    }
    env.engine.run_until_idle();
    (void)conn->send(payload);
    env.engine.run_until_idle();
    got.swap(inbox);
    return got;
  }

  nic::Fabric fabric;
  pm::PmDevice dev;
  pm::PmPool pmpool;
  net::PmArena arena;
  net::PktBufPool pool;
  nic::Nic snic;
  net::TcpStack sstack;
  net::HeapArena carena;
  net::PktBufPool cpool;
  nic::Nic cnic;
  net::TcpStack cstack;
  net::TcpConn* conn = nullptr;
  std::vector<PktBuf*> inbox;
  bool listening = false;
};

nic::Nic::Options slicing_on() {
  nic::Nic::Options o;
  o.payload_slicing = true;
  return o;
}

class SlicerTest : public ::testing::Test {
 protected:
  sim::Env env;
  SliceRig rig{env, slicing_on()};
  PktStore store{PktStore::create(rig.pool, "store")};
};

TEST_F(SlicerTest, SlicedDeliveryByteIdenticalToContiguous) {
  const auto value = rand_bytes(1024, 1);
  auto pkts = rig.deliver(env, value);
  ASSERT_EQ(pkts.size(), 1u);
  PktBuf* pb = pkts[0];
  EXPECT_TRUE(pb->sliced());
  EXPECT_TRUE(pb->csum_verified);

  // Payload readable through the representation-blind accessor.
  const auto got = rig.pool.payload(*pb);
  ASSERT_EQ(got.size(), value.size());
  EXPECT_EQ(std::memcmp(got.data(), value.data(), value.size()), 0);

  // The checksum-complete narrowing must be byte-identical to the
  // contiguous path's: same wire bytes through a non-slicing rig.
  sim::Env env2;
  SliceRig plain{env2, nic::Nic::Options{}};
  auto ppkts = plain.deliver(env2, value);
  ASSERT_EQ(ppkts.size(), 1u);
  EXPECT_FALSE(ppkts[0]->sliced());
  EXPECT_EQ(pb->payload_csum, ppkts[0]->payload_csum);
  EXPECT_EQ(pb->payload_len(), ppkts[0]->payload_len());
  plain.pool.free(ppkts[0]);
  rig.pool.free(pb);
}

TEST_F(SlicerTest, DramPoolFallsBackToContiguous) {
  const auto value = rand_bytes(600, 2);
  auto pkts = rig.deliver(env, value);  // drives traffic through BOTH nics
  ASSERT_EQ(pkts.size(), 1u);
  rig.pool.free(pkts[0]);
  // The server's PM-pooled queue sliced; the client's DRAM-pooled NIC —
  // same options, heap arena — never does.
  EXPECT_GT(rig.snic.queue_sliced_frames(0), 0u);
  for (u32 q = 0; q < 4; q++) EXPECT_EQ(rig.cnic.queue_sliced_frames(q), 0u);
}

TEST_F(SlicerTest, SlicedPutSkipsPersistAndVerifies) {
  // Value preceded by an HTTP-style header: the narrowing must subtract
  // the in-payload header bytes from header-side state alone.
  std::vector<u8> payload;
  const std::string header = "PUT /kv/k HTTP/1.1\r\nContent-Length: 700\r\n\r\n";
  payload.insert(payload.end(), header.begin(), header.end());
  const auto value = rand_bytes(700, 3);
  payload.insert(payload.end(), value.begin(), value.end());

  auto pkts = rig.deliver(env, payload);
  ASSERT_EQ(pkts.size(), 1u);
  PktBuf* pb = pkts[0];
  ASSERT_TRUE(pb->sliced());

  storage::OpBreakdown bd;
  const u32 val_off = pb->payload_off + static_cast<u32>(header.size());
  ASSERT_TRUE(store.put_pkt("k", *pb, val_off, 700, &bd).ok());
  rig.pool.free(pb);

  // The DMA already placed the payload durably: no copy, no persist.
  EXPECT_EQ(bd.copy_ns, 0u);
  EXPECT_EQ(bd.persist_ns, 0u);
  EXPECT_LT(bd.checksum_ns, 200u);  // narrowing, not a data pass
  EXPECT_TRUE(store.verify("k").ok());
  EXPECT_EQ(store.get("k").value(), value);
}

TEST_F(SlicerTest, OutOfOrderReassemblyOfSlicedSegments) {
  sim::Env renv;
  nic::Fabric::Options fopts;
  fopts.reorder_p = 0.35;
  SliceRig rrig{renv, slicing_on(), fopts};
  auto rstore = PktStore::create(rrig.pool, "ooostore");

  // Several multi-segment values: reordered sliced segments must be
  // trimmed/sequenced by TCP exactly like contiguous ones.
  for (int i = 0; i < 8; i++) {
    const auto value = rand_bytes(4000 + static_cast<std::size_t>(i) * 613,
                                  100 + static_cast<u64>(i));
    std::vector<PktBuf*> pkts;
    std::vector<u32> offs, lens;
    std::size_t need = value.size();
    while (need > 0) {
      auto got = rrig.deliver(
          renv, std::span<const u8>(value.data() + (value.size() - need),
                                    std::min<std::size_t>(need, 100000)));
      for (PktBuf* pb : got) {
        EXPECT_TRUE(pb->sliced());
        pkts.push_back(pb);
        offs.push_back(pb->payload_off);
        lens.push_back(pb->payload_len());
        need -= pb->payload_len();
      }
    }
    const std::string key = "ooo" + std::to_string(i);
    ASSERT_TRUE(rstore.put_pkts(key, pkts, offs, lens).ok());
    for (auto* pb : pkts) rrig.pool.free(pb);
    ASSERT_TRUE(rstore.verify(key).ok()) << key;
    EXPECT_EQ(rstore.get(key).value(), value) << key;
  }
  EXPECT_GT(rrig.fabric.reordered(), 0u);  // the sweep actually reordered
}

TEST_F(SlicerTest, InsertPolicyNicOffloadsAndRecovers) {
  PktStoreOptions o;
  o.insert = InsertPolicy::nic;
  auto s2 = PktStore::create(rig.pool, "nicins", o);

  const auto value = rand_bytes(1024, 4);
  auto pkts = rig.deliver(env, value);
  ASSERT_EQ(pkts.size(), 1u);
  storage::OpBreakdown bd;
  ASSERT_TRUE(s2.put_pkt("k", *pkts[0], pkts[0]->payload_off, 1024, &bd).ok());
  rig.pool.free(pkts[0]);

  // The whole critical region billed as the offloaded command; the host
  // never pays alloc+insert.
  EXPECT_GT(bd.nic_insert_ns, 0u);
  EXPECT_EQ(bd.alloc_insert_ns, 0u);
  EXPECT_EQ(bd.persist_ns, 0u);
  EXPECT_EQ(s2.get("k").value(), value);

  // Engine-written state recovers like host-written state.
  rig.dev.crash();
  auto pmpool2 = pm::PmPool::recover(rig.dev, "pkts");
  ASSERT_TRUE(pmpool2.ok());
  net::PmArena arena2(rig.dev, pmpool2.value());
  net::PktBufPool pool2(env, arena2);
  auto rec = PktStore::recover(pool2, "nicins");
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec->verify("k").ok());
  EXPECT_EQ(rec->get("k").value(), value);
}

TEST_F(SlicerTest, InsertPolicyAutoFollowsSizeThreshold) {
  PktStoreOptions o;
  o.insert = InsertPolicy::auto_;
  auto s2 = PktStore::create(rig.pool, "autoins", o);

  // Below kNicInsertMinBytes: host path.
  const auto small = rand_bytes(512, 5);
  auto p1 = rig.deliver(env, small);
  ASSERT_EQ(p1.size(), 1u);
  storage::OpBreakdown small_bd;
  ASSERT_TRUE(
      s2.put_pkt("s", *p1[0], p1[0]->payload_off, 512, &small_bd).ok());
  rig.pool.free(p1[0]);
  EXPECT_EQ(small_bd.nic_insert_ns, 0u);
  EXPECT_GT(small_bd.alloc_insert_ns, 0u);

  // At/above the threshold: offloaded.
  const auto big = rand_bytes(4096, 6);
  auto p2 = rig.deliver(env, big);
  std::vector<u32> offs, lens;
  for (PktBuf* pb : p2) {
    ASSERT_TRUE(pb->sliced());
    offs.push_back(pb->payload_off);
    lens.push_back(pb->payload_len());
  }
  storage::OpBreakdown big_bd;
  ASSERT_TRUE(s2.put_pkts("b", p2, offs, lens, &big_bd).ok());
  for (auto* pb : p2) rig.pool.free(pb);
  EXPECT_GT(big_bd.nic_insert_ns, 0u);
  EXPECT_EQ(big_bd.alloc_insert_ns, 0u);
  EXPECT_EQ(s2.get("b").value(), big);
}

TEST_F(SlicerTest, PolicyNicFallsBackOnUnslicedPackets) {
  sim::Env env2;
  SliceRig plain{env2, nic::Nic::Options{}};  // slicing off
  PktStoreOptions o;
  o.insert = InsertPolicy::nic;
  auto s2 = PktStore::create(plain.pool, "fallback", o);
  const auto value = rand_bytes(1024, 7);
  auto pkts = plain.deliver(env2, value);
  ASSERT_EQ(pkts.size(), 1u);
  ASSERT_FALSE(pkts[0]->sliced());
  storage::OpBreakdown bd;
  ASSERT_TRUE(
      s2.put_pkt("k", *pkts[0], pkts[0]->payload_off, 1024, &bd).ok());
  plain.pool.free(pkts[0]);
  // The engine only takes sliced-slot descriptors: host path used.
  EXPECT_EQ(bd.nic_insert_ns, 0u);
  EXPECT_GT(bd.alloc_insert_ns, 0u);
  EXPECT_EQ(s2.get("k").value(), value);
}

TEST_F(SlicerTest, SlicedCloneAndFreeRefcountTheSlice) {
  const auto value = rand_bytes(900, 8);
  auto pkts = rig.deliver(env, value);
  ASSERT_EQ(pkts.size(), 1u);
  PktBuf* pb = pkts[0];
  ASSERT_TRUE(pb->sliced());
  const u64 before = rig.pmpool.allocated_bytes();
  PktBuf* c = rig.pool.clone(*pb);
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->sliced());
  rig.pool.free(pb);
  // Clone still readable after the original is gone.
  const auto got = rig.pool.payload(*c);
  EXPECT_EQ(std::memcmp(got.data(), value.data(), value.size()), 0);
  rig.pool.free(c);
  EXPECT_LT(rig.pmpool.allocated_bytes(), before);  // slice + hdr released
}

TEST_F(SlicerTest, CorruptedSliceDetected) {
  const auto value = rand_bytes(800, 9);
  auto pkts = rig.deliver(env, value);
  ASSERT_EQ(pkts.size(), 1u);
  ASSERT_TRUE(pkts[0]->sliced());
  const u64 slice_off = pkts[0]->slice_h + pkts[0]->slice_off;
  ASSERT_TRUE(
      store.put_pkt("k", *pkts[0], pkts[0]->payload_off, 800).ok());
  rig.pool.free(pkts[0]);
  u8 evil = *rig.dev.at(slice_off + 13, 1) ^ 0x20;
  rig.dev.store(slice_off + 13, {&evil, 1});
  EXPECT_EQ(store.verify("k").errc(), Errc::corrupted);
  EXPECT_EQ(store.get("k").errc(), Errc::corrupted);
}

}  // namespace
}  // namespace papm::core
