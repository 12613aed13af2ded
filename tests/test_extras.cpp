// Additional edge-case and feature tests: checksum slice narrowing,
// TCP flow-control corner cases, the packet tap, and cross-cutting
// properties that earlier suites did not pin down.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "net/tcp.h"
#include "nic/nic.h"
#include "pkttap.h"

namespace papm {
namespace {

std::vector<u8> rand_bytes(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<u8> v(n);
  for (auto& b : v) b = static_cast<u8>(rng.next());
  return v;
}

// ---------- inet_csum_slice ----------

class CsumSlice : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CsumSlice, MatchesDirectComputation) {
  const auto [size, a, b] = GetParam();
  const auto data = rand_bytes(static_cast<std::size_t>(size), size * 7 + a);
  const u16 full = inet_checksum(data);
  const u16 derived = inet_csum_slice(data, full, static_cast<std::size_t>(a),
                                      static_cast<std::size_t>(b));
  const u16 direct = inet_checksum(
      std::span(data).subspan(static_cast<std::size_t>(a),
                              static_cast<std::size_t>(b - a)));
  EXPECT_EQ(inet_csum_canon(derived), inet_csum_canon(direct))
      << "size=" << size << " [" << a << "," << b << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, CsumSlice,
    ::testing::Values(std::make_tuple(100, 0, 100),   // whole block
                      std::make_tuple(100, 0, 50),    // prefix
                      std::make_tuple(100, 50, 100),  // suffix
                      std::make_tuple(100, 30, 70),   // middle, even offsets
                      std::make_tuple(101, 31, 70),   // odd start
                      std::make_tuple(101, 30, 71),   // odd end
                      std::make_tuple(101, 31, 72),   // both odd
                      std::make_tuple(1500, 61, 1085),  // HTTP-ish ranges
                      std::make_tuple(2, 1, 2),       // single byte
                      std::make_tuple(64, 13, 13)));  // empty slice

TEST(CsumSlice, RandomizedSweep) {
  Rng rng(4242);
  for (int i = 0; i < 500; i++) {
    const std::size_t size = 1 + rng.next_below(600);
    const auto data = rand_bytes(size, rng.next());
    const std::size_t a = rng.next_below(size + 1);
    const std::size_t b = a + rng.next_below(size - a + 1);
    const u16 full = inet_checksum(data);
    const u16 derived = inet_csum_slice(data, full, a, b);
    const u16 direct = inet_checksum(std::span(data).subspan(a, b - a));
    ASSERT_EQ(inet_csum_canon(derived), inet_csum_canon(direct))
        << "size=" << size << " [" << a << "," << b << ")";
  }
}

// ---------- TCP flow control ----------

struct TestHost {
  TestHost(sim::Env& env, nic::Fabric& fabric, u32 ip, bool busy_poll,
           u32 rcv_buf = 1 << 20)
      : arena(env),
        pool(env, arena),
        nic(env, fabric, ip, pool),
        stack(env, nic, pool, [&] {
          net::TcpStack::Options o;
          o.ip = ip;
          o.busy_poll = busy_poll;
          o.rcv_buf = rcv_buf;
          return o;
        }()) {
    nic.set_sink([this](net::PktBuf* pb) { stack.rx(pb); });
  }
  net::HeapArena arena;
  net::PktBufPool pool;
  nic::Nic nic;
  net::TcpStack stack;
};

TEST(TcpFlowControl, ZeroWindowStallsAndRecovers) {
  sim::Env env;
  nic::Fabric fabric(env);
  TestHost client(env, fabric, 1, false);
  // Tiny receive buffer; the app does not read until later.
  TestHost server(env, fabric, 2, true, /*rcv_buf=*/8 * 1024);

  net::TcpConn* srv_conn = nullptr;
  ASSERT_TRUE(server.stack.listen(80, [&](net::TcpConn& c) {
    srv_conn = &c;  // no on_readable: data piles up, window closes
  }).ok());

  const auto data = rand_bytes(64 * 1024, 1);
  net::TcpConn* c = client.stack.connect(2, 80);
  c->on_established = [&](net::TcpConn& cc) { (void)cc.send(data); };

  env.engine.run_until(5 * kNsPerMs);
  ASSERT_NE(srv_conn, nullptr);
  // Stalled: the receiver holds roughly its buffer, no more.
  EXPECT_LE(srv_conn->readable_bytes(), 16 * 1024u);
  EXPECT_GT(srv_conn->readable_bytes(), 0u);

  // Now the app drains; window reopens via probes/updates and the rest
  // flows. (Run in chunks so each read's window update propagates.)
  std::vector<u8> got;
  for (int rounds = 0; rounds < 200 && got.size() < data.size(); rounds++) {
    std::vector<u8> buf(8192);
    std::size_t n;
    while ((n = srv_conn->read(buf)) > 0) {
      got.insert(got.end(), buf.begin(), buf.begin() + static_cast<long>(n));
    }
    env.engine.run_until(env.now() + 2 * kNsPerMs);
  }
  EXPECT_EQ(got, data);
}

TEST(TcpFlowControl, ManyConnectionsShareOneServerCore) {
  sim::Env env;
  nic::Fabric fabric(env);
  TestHost client(env, fabric, 1, false);
  TestHost server(env, fabric, 2, true);
  sim::HostCpu one_core(env, 1);
  server.stack.attach_cpu(one_core);

  int echoes = 0;
  ASSERT_TRUE(server.stack.listen(80, [&](net::TcpConn& c) {
    c.on_readable = [&](net::TcpConn& cc) {
      std::vector<u8> buf(2048);
      std::size_t n;
      while ((n = cc.read(buf)) > 0) {
        echoes++;
        (void)cc.send(std::span<const u8>(buf.data(), n));
      }
    };
  }).ok());

  constexpr int kConns = 10;
  int replies = 0;
  for (int i = 0; i < kConns; i++) {
    net::TcpConn* c = client.stack.connect(2, 80);
    c->on_established = [&](net::TcpConn& cc) {
      (void)cc.send(rand_bytes(512, 99));
    };
    c->on_readable = [&](net::TcpConn& cc) {
      std::vector<u8> buf(2048);
      while (cc.read(buf) > 0) {
      }
      replies++;
    };
  }
  env.engine.run_until_idle();
  EXPECT_EQ(echoes, kConns);
  EXPECT_EQ(replies, kConns);
  EXPECT_GT(one_core.busy_ns(), 0);
}

// ---------- PktTap ----------

TEST(PktTap, CapturesClonesWithoutDisturbingDelivery) {
  sim::Env env;
  net::HeapArena arena(env);
  net::PktBufPool pool(env, arena);
  net::PktTap tap(pool, /*capacity=*/4);

  std::vector<net::PktBuf*> delivered;
  auto next = [&](net::PktBuf* pb) { delivered.push_back(pb); };

  for (int i = 0; i < 6; i++) {
    net::PktBuf* pb = pool.alloc(128);
    pb->len = 4;
    std::memcpy(pool.writable(*pb, 4).data(), &i, 4);
    tap.tap(pb, next);
  }
  ASSERT_EQ(delivered.size(), 6u);
  EXPECT_EQ(tap.size(), 4u);        // ring capacity
  EXPECT_EQ(tap.captured(), 6u);
  EXPECT_EQ(tap.evicted(), 2u);

  // The app frees its packets; the tap's clones keep the data alive.
  for (auto* pb : delivered) pool.free(pb);
  int expect = 2;  // oldest two evicted
  tap.each([&](const net::PktTap::Captured& c) {
    int v;
    std::memcpy(&v, pool.data(*c.clone), 4);
    EXPECT_EQ(v, expect++);
    return true;
  });
  EXPECT_EQ(expect, 6);

  tap.clear();
  EXPECT_EQ(pool.live_data_blocks(), 0u);  // nothing leaked
}

TEST(PktTap, DisabledTapPassesThrough) {
  sim::Env env;
  net::HeapArena arena(env);
  net::PktBufPool pool(env, arena);
  net::PktTap tap(pool, 4);
  tap.set_enabled(false);
  net::PktBuf* pb = pool.alloc(64);
  bool seen = false;
  tap.tap(pb, [&](net::PktBuf* p) {
    seen = true;
    pool.free(p);
  });
  EXPECT_TRUE(seen);
  EXPECT_EQ(tap.size(), 0u);
}

TEST(PktTap, DropsCaptureWhenClonePoolExhausted) {
  // The pool's metadata limit models a fixed driver descriptor pool; a
  // tap must stay best-effort when it is exhausted — the capture is
  // dropped and counted, the original still flows.
  sim::Env env;
  net::HeapArena arena(env);
  net::PktBufPool pool(env, arena);
  pool.set_meta_limit(2);  // room for the original + exactly one clone
  obs::MetricRegistry reg;
  net::PktTap tap(pool, 8);
  tap.set_metrics(&reg);

  std::vector<net::PktBuf*> delivered;
  auto next = [&](net::PktBuf* pb) { delivered.push_back(pb); };

  net::PktBuf* pb = pool.alloc(64);
  ASSERT_NE(pb, nullptr);
  tap.tap(pb, next);  // clone takes the last descriptor
  EXPECT_EQ(tap.captured(), 1u);
  EXPECT_EQ(tap.dropped(), 0u);

  tap.tap(pb, next);  // pool at the cap: capture dropped, delivery intact
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(tap.captured(), 1u);
  EXPECT_EQ(tap.size(), 1u);
  EXPECT_EQ(tap.dropped(), 1u);
  EXPECT_EQ(reg.counter("tap.captured").value(), 1u);
  EXPECT_EQ(reg.counter("tap.dropped").value(), 1u);

  tap.clear();
  pool.free(pb);
  EXPECT_EQ(pool.live_data_blocks(), 0u);
}

TEST(PktTap, EndToEndCaptureOnServer) {
  // Tap between NIC and stack on a live connection: every segment of the
  // exchange shows up in the ring with metadata intact.
  sim::Env env;
  nic::Fabric fabric(env);
  TestHost client(env, fabric, 1, false);
  TestHost server(env, fabric, 2, true);
  net::PktTap tap(server.pool, 64);
  server.nic.set_sink([&](net::PktBuf* pb) {
    tap.tap(pb, [&](net::PktBuf* p) { server.stack.rx(p); });
  });

  ASSERT_TRUE(server.stack.listen(80, [&](net::TcpConn& c) {
    c.on_readable = [&](net::TcpConn& cc) {
      for (auto* pb : cc.read_pkts()) server.pool.free(pb);
    };
  }).ok());
  net::TcpConn* c = client.stack.connect(2, 80);
  c->on_established = [&](net::TcpConn& cc) {
    (void)cc.send(rand_bytes(2000, 5));
  };
  env.engine.run_until_idle();

  EXPECT_GE(tap.captured(), 3u);  // SYN, data segments, ...
  u64 data_segs = 0;
  tap.each([&](const net::PktTap::Captured& cap) {
    if (cap.clone->payload_len() > 0) data_segs++;
    EXPECT_GT(cap.clone->hw_tstamp, 0);  // NIC metadata rode along
    return true;
  });
  EXPECT_EQ(data_segs, 2u);  // 2000 B = 2 segments
}

// ---------- misc cross-cutting ----------

TEST(ZipfWorkload, SkewRespectedByClientRng) {
  // The workload generator dependency: Zipf skew produces hot keys.
  Zipf z(100, 0.99, 11);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; i++) counts[z.next()]++;
  int top10 = 0, total = 0;
  for (int i = 0; i < 100; i++) {
    if (i < 10) top10 += counts[i];
    total += counts[i];
  }
  EXPECT_GT(top10, total / 2);  // top 10% of keys get >50% of accesses
}

TEST(StatusResult, ErrcPropagation) {
  Result<std::vector<u8>> r = Errc::corrupted;
  EXPECT_EQ(r.status().errc(), Errc::corrupted);
  Status s = r.status();
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace papm
