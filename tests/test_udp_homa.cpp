// Tests for the datagram substrate (UDP), the MICA-like volatile store,
// and the Homa-like message transport (§2.2 / §5.2 extensions).
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "core/pktstore.h"
#include "net/homa.h"
#include "nic/nic.h"
#include "storage/volatile_kv.h"

namespace papm::net {
namespace {

constexpr u32 kAIp = 0x0a000001;
constexpr u32 kBIp = 0x0a000002;

std::vector<u8> rand_bytes(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<u8> v(n);
  for (auto& b : v) b = static_cast<u8>(rng.next());
  return v;
}

struct UdpHost {
  UdpHost(sim::Env& env, nic::Fabric& fabric, u32 ip, bool bypass,
          nic::Nic::Options nic_opts = {})
      : arena(env),
        pool(env, arena),
        nic(env, fabric, ip, pool, nic_opts),
        udp(env, nic, pool,
            [&] {
              UdpStack::Options o;
              o.ip = ip;
              o.kernel_bypass = bypass;
              return o;
            }()) {
    nic.set_sink([this](PktBuf* pb) {
      ASSERT_EQ(pb->l4_proto, kIpProtoUdp);
      udp.rx(pb);
    });
  }
  HeapArena arena;
  PktBufPool pool;
  nic::Nic nic;
  UdpStack udp;
};

class UdpTest : public ::testing::Test {
 protected:
  sim::Env env;
  nic::Fabric fabric{env};
  UdpHost a{env, fabric, kAIp, false};
  UdpHost b{env, fabric, kBIp, true};
};

TEST_F(UdpTest, DatagramRoundTrip) {
  std::vector<u8> got;
  u32 got_ip = 0;
  u16 got_port = 0;
  ASSERT_TRUE(b.udp
                  .bind(5000,
                        [&](u32 ip, u16 port, PktBuf* pb) {
                          const auto p = b.pool.payload(*pb);
                          got.assign(p.begin(), p.end());
                          got_ip = ip;
                          got_port = port;
                          b.pool.free(pb);
                        })
                  .ok());
  const auto data = rand_bytes(700, 1);
  ASSERT_TRUE(a.udp.send_to(kBIp, 5000, 6000, data).ok());
  env.engine.run_until_idle();
  EXPECT_EQ(got, data);
  EXPECT_EQ(got_ip, kAIp);
  EXPECT_EQ(got_port, 6000);
  EXPECT_EQ(b.udp.datagrams_rx(), 1u);
}

TEST_F(UdpTest, ChecksumVerifiedAndDerived) {
  PktBuf* got = nullptr;
  ASSERT_TRUE(b.udp.bind(5000, [&](u32, u16, PktBuf* pb) { got = pb; }).ok());
  const auto data = rand_bytes(512, 2);
  ASSERT_TRUE(a.udp.send_to(kBIp, 5000, 6000, data).ok());
  env.engine.run_until_idle();
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(got->csum_verified);
  EXPECT_EQ(got->payload_csum, inet_checksum(data));
  b.pool.free(got);
}

TEST_F(UdpTest, UnboundPortDropped) {
  ASSERT_TRUE(a.udp.send_to(kBIp, 9, 6000, rand_bytes(10, 3)).ok());
  env.engine.run_until_idle();
  EXPECT_EQ(b.udp.rx_dropped(), 1u);
}

TEST_F(UdpTest, OversizedPayloadRejected) {
  EXPECT_EQ(a.udp.send_to(kBIp, 5000, 6000, rand_bytes(3000, 4)).errc(),
            Errc::too_large);
}

TEST_F(UdpTest, DoubleBindRejected) {
  ASSERT_TRUE(b.udp.bind(7000, [](u32, u16, PktBuf*) {}).ok());
  EXPECT_EQ(b.udp.bind(7000, [](u32, u16, PktBuf*) {}).errc(),
            Errc::already_exists);
}

// Parameter: the receiving NIC's RX checksum offload. With it the NIC
// drops the corrupted frame; without it the UDP stack must verify in
// software.
class UdpCorruptionTest : public ::testing::TestWithParam<bool> {
 protected:
  static nic::Nic::Options rx_offload(bool on) {
    nic::Nic::Options o;
    o.csum_offload_rx = on;
    return o;
  }
  sim::Env env;
  nic::Fabric fabric{env};
  UdpHost a{env, fabric, kAIp, false};
  UdpHost b{env, fabric, kBIp, true, rx_offload(GetParam())};
};

TEST_P(UdpCorruptionTest, CorruptionCaughtByUdpChecksum) {
  fabric.set_options({.corrupt_p = 1.0});
  int delivered = 0;
  ASSERT_TRUE(b.udp
                  .bind(5000,
                        [&](u32, u16, PktBuf* pb) {
                          delivered++;
                          b.pool.free(pb);
                        })
                  .ok());
  ASSERT_TRUE(a.udp.send_to(kBIp, 5000, 6000, rand_bytes(600, 5)).ok());
  env.engine.run_until_idle();
  EXPECT_EQ(delivered, 0);  // corrupted frame never reaches the app
  EXPECT_GT(b.nic.rx_csum_errors() + b.nic.rx_drops() + b.udp.csum_failures(),
            0u);
}

INSTANTIATE_TEST_SUITE_P(RxOffload, UdpCorruptionTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "on" : "off";
                         });

TEST(UdpSoftwareChecksum, CleanDatagramVerifiedAndDerived) {
  sim::Env env;
  nic::Fabric fabric{env};
  UdpHost a{env, fabric, kAIp, false};
  nic::Nic::Options no_rx_offload;
  no_rx_offload.csum_offload_rx = false;
  UdpHost b{env, fabric, kBIp, true, no_rx_offload};
  PktBuf* got = nullptr;
  ASSERT_TRUE(b.udp.bind(5000, [&](u32, u16, PktBuf* pb) { got = pb; }).ok());
  const auto data = rand_bytes(512, 7);
  ASSERT_TRUE(a.udp.send_to(kBIp, 5000, 6000, data).ok());
  env.engine.run_until_idle();
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(got->csum_verified);
  EXPECT_EQ(got->payload_csum, inet_checksum(data));
  EXPECT_EQ(b.udp.csum_failures(), 0u);
  b.pool.free(got);
}

TEST_F(UdpTest, BypassIsCheaperThanKernel) {
  // a = kernel UDP, b = kernel-bypass.
  ASSERT_TRUE(a.udp.bind(5000, [&](u32, u16, PktBuf* pb) { a.pool.free(pb); }).ok());
  ASSERT_TRUE(b.udp.bind(5000, [&](u32, u16, PktBuf* pb) { b.pool.free(pb); }).ok());
  const auto data = rand_bytes(100, 6);
  const SimTime t0 = a.udp.env().now();
  (void)a.udp.send_to(kBIp, 5000, 1, data);  // kernel tx charge
  const SimTime kernel_tx = a.udp.env().now() - t0;
  const SimTime t1 = b.udp.env().now();
  (void)b.udp.send_to(kAIp, 5000, 1, data);  // bypass tx charge
  const SimTime bypass_tx = b.udp.env().now() - t1;
  EXPECT_GT(kernel_tx, bypass_tx);
}

// ---------- MICA-like volatile store ----------

TEST(VolatileKv, PutGetEraseAndCrashLosesAll) {
  sim::Env env;
  storage::VolatileKv kv(env);
  ASSERT_TRUE(kv.put("k", rand_bytes(100, 7)).ok());
  EXPECT_EQ(kv.get("k").value(), rand_bytes(100, 7));
  EXPECT_EQ(kv.size(), 1u);
  EXPECT_TRUE(kv.erase("k"));
  EXPECT_FALSE(kv.get("k").ok());

  ASSERT_TRUE(kv.put("x", rand_bytes(10, 8)).ok());
  kv.crash();
  EXPECT_EQ(kv.size(), 0u);  // §2.2: no durability
  EXPECT_FALSE(kv.get("x").ok());
}

TEST(VolatileKv, CheaperThanAnyPersistentPut) {
  sim::Env env;
  storage::VolatileKv kv(env);
  const auto v = rand_bytes(1024, 9);
  const SimTime t0 = env.now();
  ASSERT_TRUE(kv.put("k", v).ok());
  const SimTime cost = env.now() - t0;
  // Far below even the bare persistence cost (1.94 us), let alone the
  // full data-management pipeline.
  EXPECT_LT(cost, env.cost.persist_cost(1024));
}

// ---------- Homa ----------

struct HomaHost : UdpHost {
  HomaHost(sim::Env& env, nic::Fabric& fabric, u32 ip, u16 port)
      : UdpHost(env, fabric, ip, /*bypass=*/true), homa(udp, port) {}
  HomaEndpoint homa;
};

class HomaTest : public ::testing::Test {
 protected:
  sim::Env env;
  nic::Fabric fabric{env};
  HomaHost a{env, fabric, kAIp, 4000};
  HomaHost b{env, fabric, kBIp, 4000};
};

TEST_F(HomaTest, SmallMessageRoundTrip) {
  std::vector<u8> got;
  b.homa.on_message = [&](HomaDelivery d) {
    got = d.bytes(b.pool);
    for (auto* pb : d.pkts) b.pool.free(pb);
  };
  bool acked = false;
  a.homa.on_sent = [&](u64) { acked = true; };
  const auto data = rand_bytes(900, 10);
  a.homa.send_msg(kBIp, 4000, data);
  env.engine.run_until_idle();
  EXPECT_EQ(got, data);
  EXPECT_TRUE(acked);
  EXPECT_EQ(b.homa.messages_received(), 1u);
}

TEST_F(HomaTest, LargeMessageUsesGrants) {
  std::vector<u8> got;
  b.homa.on_message = [&](HomaDelivery d) {
    EXPECT_GT(d.pkts.size(), 2u);  // spans several segments
    got = d.bytes(b.pool);
    for (auto* pb : d.pkts) b.pool.free(pb);
  };
  const auto data = rand_bytes(64 * 1024, 11);
  a.homa.send_msg(kBIp, 4000, data);
  env.engine.run_until_idle();
  EXPECT_EQ(got, data);
  EXPECT_GT(b.homa.grants_sent(), 0u);  // receiver-driven flow control
}

TEST_F(HomaTest, EmptyMessage) {
  int delivered = 0;
  b.homa.on_message = [&](HomaDelivery d) {
    delivered++;
    EXPECT_EQ(d.total_len, 0u);
    for (auto* pb : d.pkts) b.pool.free(pb);
  };
  a.homa.send_msg(kBIp, 4000, {});
  env.engine.run_until_idle();
  EXPECT_EQ(delivered, 1);
}

class HomaLossy : public ::testing::TestWithParam<double> {};

TEST_P(HomaLossy, ReliableUnderLoss) {
  sim::Env env;
  nic::Fabric fabric(env, {.loss_p = GetParam()});
  HomaHost a(env, fabric, kAIp, 4000);
  HomaHost b(env, fabric, kBIp, 4000);

  std::map<u64, std::vector<u8>> got;
  b.homa.on_message = [&](HomaDelivery d) {
    got[d.msg_id] = d.bytes(b.pool);
    for (auto* pb : d.pkts) b.pool.free(pb);
  };
  std::map<u64, std::vector<u8>> sent;
  for (int i = 0; i < 10; i++) {
    auto data = rand_bytes(5000 + static_cast<std::size_t>(i) * 700, 100 + i);
    const u64 id = a.homa.send_msg(kBIp, 4000, data);
    sent[id] = std::move(data);
  }
  env.engine.run_until_idle();
  ASSERT_EQ(got.size(), sent.size());
  for (const auto& [id, data] : sent) {
    EXPECT_EQ(got.at(id), data) << "msg " << id;
  }
  if (GetParam() > 0) EXPECT_GT(a.homa.resends() + b.homa.resends(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Loss, HomaLossy, ::testing::Values(0.0, 0.02, 0.1));

namespace {

// Reads a field out of a wire frame's Homa header (which starts right
// after the Ethernet+IP+UDP headers).
template <typename T>
T homa_field(const nic::WireFrame& f, std::size_t off) {
  T v{};
  std::memcpy(&v, f.bytes.data() + kUdpAllHdrLen + off, sizeof(T));
  return v;
}

bool is_homa(const nic::WireFrame& f) {
  return f.bytes.size() >= kUdpAllHdrLen + kHomaHdrLen;
}

}  // namespace

TEST_F(HomaTest, RecoversFromLostGrant) {
  // Cut every grant on its way back to the sender (one lost grant alone
  // is masked by the re-grant the next data arrival triggers). The
  // sender stalls at the unscheduled window; recovery must come from the
  // receiver's resend timer, whose nudge carries the current grant — a
  // transport where only data retransmits would deadlock here.
  int grants_dropped = 0;
  fabric.set_drop_hook([&](u32 dst_ip, const nic::WireFrame& f) {
    if (dst_ip == kAIp && is_homa(f) &&
        homa_field<u8>(f, 0) == static_cast<u8>(HomaPktType::grant)) {
      grants_dropped++;
      return true;
    }
    return false;
  });
  std::vector<u8> got;
  b.homa.on_message = [&](HomaDelivery d) {
    got = d.bytes(b.pool);
    for (auto* pb : d.pkts) b.pool.free(pb);
  };
  bool acked = false;
  a.homa.on_sent = [&](u64) { acked = true; };
  const auto data = rand_bytes(64 * 1024, 21);
  a.homa.send_msg(kBIp, 4000, data);
  env.engine.run_until_idle();
  EXPECT_GT(grants_dropped, 0);
  EXPECT_EQ(got, data);
  EXPECT_TRUE(acked);
  EXPECT_GT(b.homa.resends(), 0u);  // the receiver-side nudge fired
  EXPECT_EQ(a.homa.give_ups(), 0u);
}

TEST_F(HomaTest, RecoversFromLostLastSegment) {
  // Cut exactly the final data segment. Everything granted has been
  // sent, so the sender is idle waiting for the ack; the receiver's gap
  // detection must ask for the tail again.
  int tails_dropped = 0;
  fabric.set_drop_hook([&](u32 dst_ip, const nic::WireFrame& f) {
    if (dst_ip != kBIp || tails_dropped != 0 || !is_homa(f)) return false;
    if (homa_field<u8>(f, 0) != static_cast<u8>(HomaPktType::data)) {
      return false;
    }
    const u32 off = homa_field<u32>(f, 12);
    const u32 total = homa_field<u32>(f, 16);
    const auto seg_len =
        static_cast<u32>(f.bytes.size() - kUdpAllHdrLen - kHomaHdrLen);
    if (off > 0 && off + seg_len == total) {
      tails_dropped++;
      return true;
    }
    return false;
  });
  std::vector<u8> got;
  b.homa.on_message = [&](HomaDelivery d) {
    got = d.bytes(b.pool);
    for (auto* pb : d.pkts) b.pool.free(pb);
  };
  bool acked = false;
  a.homa.on_sent = [&](u64) { acked = true; };
  const auto data = rand_bytes(64 * 1024, 22);
  a.homa.send_msg(kBIp, 4000, data);
  env.engine.run_until_idle();
  EXPECT_EQ(tails_dropped, 1);
  EXPECT_EQ(got, data);
  EXPECT_TRUE(acked);
  EXPECT_GT(b.homa.resends(), 0u);
  EXPECT_EQ(a.homa.give_ups(), 0u);
}

TEST_F(HomaTest, ZeroCopyIngestFromHomaDelivery) {
  // The §5.2 point: a pktstore can adopt Homa segments exactly like TCP
  // segments. Build a PM-backed receiving host to prove it.
  sim::Env env2;
  nic::Fabric fabric2(env2);
  HomaHost client(env2, fabric2, kAIp, 4000);

  pm::PmDevice dev(env2, 32u << 20);
  auto pmpool = pm::PmPool::create(dev, "pkts", dev.data_base(), (32u << 20) - 4096);
  pmpool.set_charges(env2.cost.pool_alloc_ns, env2.cost.pool_alloc_ns / 2);
  PmArena arena(dev, pmpool);
  PktBufPool pool(env2, arena);
  nic::Nic snic(env2, fabric2, kBIp, pool);
  UdpStack::Options uo;
  uo.ip = kBIp;
  uo.kernel_bypass = true;
  UdpStack sudp(env2, snic, pool, uo);
  snic.set_sink([&](PktBuf* pb) { sudp.rx(pb); });
  HomaEndpoint shoma(sudp, 4000);

  auto store = core::PktStore::create(pool, "homa-store");
  shoma.on_message = [&](HomaDelivery d) {
    EXPECT_TRUE(store.put_pkts("msg", d.pkts, d.offs, d.lens).ok());
    for (auto* pb : d.pkts) pool.free(pb);
  };

  const auto data = rand_bytes(4000, 12);
  client.homa.send_msg(kBIp, 4000, data);
  env2.engine.run_until_idle();

  ASSERT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.verify("msg").ok());
  EXPECT_EQ(store.get("msg").value(), data);
  const auto st = store.stat("msg");
  EXPECT_GT(st->segments, 1u);
  EXPECT_EQ(st->csum_kind, core::CsumKind::inet16);  // reused from the NIC
  EXPECT_GT(st->hw_tstamp, 0);
}

}  // namespace
}  // namespace papm::net
