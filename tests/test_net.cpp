// Tests for net/ + nic/: header codecs, the RSS hash, PktBuf clone
// semantics and refcounts, the heap arena, GSO, and end-to-end TCP between
// two simulated hosts over the fabric — including loss, reordering and
// corruption recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>

#include "net/gso.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "nic/nic.h"

namespace papm::net {
namespace {

std::vector<u8> rand_bytes(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<u8> v(n);
  for (auto& b : v) b = static_cast<u8>(rng.next());
  return v;
}

// ---------- headers ----------

TEST(Headers, EthRoundTrip) {
  EthHeader h;
  h.src.b[5] = 0x11;
  h.dst.b[0] = 0xaa;
  h.ethertype = kEtherTypeIpv4;
  std::vector<u8> buf(kEthHdrLen);
  EXPECT_EQ(encode_eth(h, buf), kEthHdrLen);
  const auto d = decode_eth(buf);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src, h.src);
  EXPECT_EQ(d->dst, h.dst);
  EXPECT_EQ(d->ethertype, kEtherTypeIpv4);
}

TEST(Headers, IpRoundTripAndChecksum) {
  IpHeader h;
  h.src = 0x0a000001;
  h.dst = 0x0a000002;
  h.total_len = 1234;
  h.ident = 42;
  std::vector<u8> buf(2048);
  encode_ip(h, buf);
  const auto d = decode_ip(std::span<const u8>(buf.data(), 2048));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src, h.src);
  EXPECT_EQ(d->dst, h.dst);
  EXPECT_EQ(d->total_len, 1234);
  EXPECT_EQ(d->ident, 42);

  // Any single-bit flip in the header must be rejected.
  buf[8] ^= 0x01;
  EXPECT_FALSE(decode_ip(std::span<const u8>(buf.data(), 2048)).has_value());
}

TEST(Headers, TcpRoundTrip) {
  TcpHeader h;
  h.src_port = 33000;
  h.dst_port = 80;
  h.seq = 0xdeadbeef;
  h.ack = 0xcafef00d;
  h.flags = kTcpAck | kTcpPsh;
  h.window = 512;
  h.checksum = 0x1234;
  std::vector<u8> buf(kTcpHdrLen);
  encode_tcp(h, buf);
  const auto d = decode_tcp(buf);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src_port, h.src_port);
  EXPECT_EQ(d->dst_port, h.dst_port);
  EXPECT_EQ(d->seq, h.seq);
  EXPECT_EQ(d->ack, h.ack);
  EXPECT_EQ(d->flags, h.flags);
  EXPECT_EQ(d->window, h.window);
  EXPECT_EQ(d->checksum, h.checksum);
}

TEST(Headers, TcpChecksumVerifies) {
  const auto payload = rand_bytes(333, 5);
  TcpHeader h;
  h.src_port = 1;
  h.dst_port = 2;
  std::vector<u8> hdr(kTcpHdrLen);
  encode_tcp(h, hdr);
  const u16 csum = tcp_checksum(0x0a000001, 0x0a000002, hdr, payload);
  // Receiver: sum over pseudo + header-with-csum + payload folds to 0xffff.
  hdr[16] = static_cast<u8>(csum >> 8);
  hdr[17] = static_cast<u8>(csum & 0xff);
  u32 sum = tcp_pseudo_sum(0x0a000001, 0x0a000002, hdr.size() + payload.size());
  sum += inet_sum(hdr);
  sum += inet_sum(payload);
  EXPECT_EQ(inet_fold(sum), 0xffffu);
}

class PayloadCsumDerive : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PayloadCsumDerive, MatchesDirectComputation) {
  // The §4.2 trick: payload checksum from the NIC's checksum-complete sum.
  const auto payload = rand_bytes(GetParam(), GetParam() + 99);
  TcpHeader h;
  h.src_port = 7;
  h.dst_port = 8;
  h.seq = 123456;
  std::vector<u8> hdr(kTcpHdrLen);
  encode_tcp(h, hdr);
  const u16 csum = tcp_checksum(1, 2, hdr, payload);
  hdr[16] = static_cast<u8>(csum >> 8);
  hdr[17] = static_cast<u8>(csum & 0xff);

  std::vector<u8> seg(hdr);
  seg.insert(seg.end(), payload.begin(), payload.end());
  const u32 full_sum = inet_sum(seg);
  EXPECT_EQ(payload_csum_from_complete(full_sum, hdr), inet_checksum(payload))
      << "payload size " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sizes, PayloadCsumDerive,
                         ::testing::Values(0, 1, 2, 3, 64, 333, 1024, 1460));

TEST(PayloadCsum, AllZeroPayloadNormalized) {
  std::vector<u8> payload(1024, 0);
  TcpHeader h;
  std::vector<u8> hdr(kTcpHdrLen);
  encode_tcp(h, hdr);
  const u16 csum = tcp_checksum(1, 2, hdr, payload);
  hdr[16] = static_cast<u8>(csum >> 8);
  hdr[17] = static_cast<u8>(csum & 0xff);
  std::vector<u8> seg(hdr);
  seg.insert(seg.end(), payload.begin(), payload.end());
  EXPECT_EQ(payload_csum_from_complete(inet_sum(seg), hdr),
            inet_checksum(payload));
}

// ---------- RSS ----------

// The Toeplitz hash computed bit by bit, as the Microsoft RSS
// specification defines it: for every set input bit (MSB first), XOR in
// the 32-bit key window starting at that bit's position.
u32 toeplitz_reference(u32 src_ip, u32 dst_ip, u16 src_port, u16 dst_port) {
  static constexpr u8 kKey[40] = {
      0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
      0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
      0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
      0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa};
  const u8 in[12] = {
      static_cast<u8>(src_ip >> 24),  static_cast<u8>(src_ip >> 16),
      static_cast<u8>(src_ip >> 8),   static_cast<u8>(src_ip),
      static_cast<u8>(dst_ip >> 24),  static_cast<u8>(dst_ip >> 16),
      static_cast<u8>(dst_ip >> 8),   static_cast<u8>(dst_ip),
      static_cast<u8>(src_port >> 8), static_cast<u8>(src_port),
      static_cast<u8>(dst_port >> 8), static_cast<u8>(dst_port)};
  u32 hash = 0;
  for (int bit = 0; bit < 96; bit++) {
    if (((in[bit / 8] >> (7 - bit % 8)) & 1) == 0) continue;
    u32 window = 0;
    for (int j = 0; j < 32; j++) {
      const int kb = bit + j;
      window = (window << 1) | ((kKey[kb / 8] >> (7 - kb % 8)) & 1u);
    }
    hash ^= window;
  }
  return hash;
}

constexpr u32 ip4(u32 a, u32 b, u32 c, u32 d) {
  return a << 24 | b << 16 | c << 8 | d;
}

// The IPv4 + TCP vectors of Microsoft's "Verifying the RSS Hash
// Calculation", then random 4-tuples against the bitwise reference.
TEST(Rss, ToeplitzTableMatchesReference) {
  struct Vec {
    u32 src_ip, dst_ip;
    u16 src_port, dst_port;
    u32 hash;
  };
  const Vec vecs[] = {
      {ip4(66, 9, 149, 187), ip4(161, 142, 100, 80), 2794, 1766, 0x51ccc178},
      {ip4(199, 92, 111, 2), ip4(65, 69, 140, 83), 14230, 4739, 0xc626b0ea},
      {ip4(24, 19, 198, 95), ip4(12, 22, 207, 184), 12898, 38024, 0x5c2b394a},
      {ip4(38, 27, 205, 30), ip4(209, 142, 163, 6), 48228, 2217, 0xafc7327f},
      {ip4(153, 39, 163, 191), ip4(202, 188, 127, 2), 44251, 1303, 0x10e828a2},
  };
  for (const Vec& v : vecs) {
    EXPECT_EQ(toeplitz_reference(v.src_ip, v.dst_ip, v.src_port, v.dst_port),
              v.hash);
    EXPECT_EQ(nic::rss_toeplitz(v.src_ip, v.dst_ip, v.src_port, v.dst_port),
              v.hash);
  }
  Rng rng(12);
  for (int i = 0; i < 100'000; i++) {
    const auto sip = static_cast<u32>(rng.next());
    const auto dip = static_cast<u32>(rng.next());
    const auto sp = static_cast<u16>(rng.next());
    const auto dp = static_cast<u16>(rng.next());
    ASSERT_EQ(nic::rss_toeplitz(sip, dip, sp, dp),
              toeplitz_reference(sip, dip, sp, dp));
  }
}

// ---------- PktBuf pool ----------

class PktBufTest : public ::testing::Test {
 protected:
  sim::Env env;
  HeapArena arena{env};
  PktBufPool pool{env, arena};
};

TEST_F(PktBufTest, AllocInitializesMetadata) {
  PktBuf* pb = pool.alloc(256);
  ASSERT_NE(pb, nullptr);
  EXPECT_EQ(pb->cap, 256u);
  EXPECT_EQ(pb->len, 0u);
  EXPECT_EQ(pb->nr_frags, 0);
  EXPECT_EQ(pool.live_metadata(), 1u);
  EXPECT_EQ(pool.live_data_blocks(), 1u);
  pool.free(pb);
  EXPECT_EQ(pool.live_metadata(), 0u);
  EXPECT_EQ(pool.live_data_blocks(), 0u);
}

TEST_F(PktBufTest, MetadataRecycled) {
  PktBuf* a = pool.alloc(64);
  pool.free(a);
  PktBuf* b = pool.alloc(64);
  EXPECT_EQ(a, b);  // freelist reuse
  pool.free(b);
}

TEST_F(PktBufTest, CloneSharesDataUntilLastRef) {
  PktBuf* pb = pool.alloc(128);
  pb->len = 5;
  std::memcpy(pool.writable(*pb, 5).data(), "hello", 5);
  PktBuf* c = pool.clone(*pb);
  EXPECT_EQ(c->data_h, pb->data_h);
  EXPECT_EQ(pool.live_data_blocks(), 1u);
  EXPECT_EQ(pool.live_metadata(), 2u);

  pool.free(pb);  // original goes; data survives via clone
  EXPECT_EQ(pool.live_data_blocks(), 1u);
  EXPECT_EQ(std::memcmp(pool.data(*c), "hello", 5), 0);
  pool.free(c);
  EXPECT_EQ(pool.live_data_blocks(), 0u);
}

TEST_F(PktBufTest, AdoptDataOutlivesMetadata) {
  PktBuf* pb = pool.alloc(64);
  pb->len = 3;
  std::memcpy(pool.writable(*pb, 3).data(), "abc", 3);
  const u64 h = pool.adopt_data(*pb);
  pool.free(pb);
  // Data still resolvable through the arena.
  EXPECT_EQ(std::memcmp(arena.data(h, 3), "abc", 3), 0);
  pool.unref_data(h, 64);
  EXPECT_EQ(pool.live_data_blocks(), 0u);
}

TEST_F(PktBufTest, CloneTimestampsAndChecksumsCopied) {
  PktBuf* pb = pool.alloc(64);
  pb->hw_tstamp = 777;
  pb->payload_csum = 0xabcd;
  pb->csum_verified = true;
  PktBuf* c = pool.clone(*pb);
  EXPECT_EQ(c->hw_tstamp, 777);
  EXPECT_EQ(c->payload_csum, 0xabcd);
  EXPECT_TRUE(c->csum_verified);
  pool.free(pb);
  pool.free(c);
}

TEST_F(PktBufTest, FragsRefcounted) {
  PktBuf* pb = pool.alloc(64);
  auto fh = arena.alloc(4096);
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(pool.add_frag(*pb, fh.value(), 4096).ok());
  PktBuf* c = pool.clone(*pb);
  pool.free(pb);
  // Frag survives through the clone.
  (void)arena.data(fh.value(), 4096);
  pool.free(c);
  EXPECT_EQ(pool.live_data_blocks(), 0u);
}

// ---------- GSO ----------

// A freed HeapArena handle stays dead after its slot is recycled: data()
// on it throws, the slot's new handle differs and reads back zero-filled
// whatever the previous tenant wrote.
TEST_F(PktBufTest, HeapArenaStaleHandleThrowsAfterReuse) {
  const u64 old = arena.alloc(1000).value();
  std::memset(arena.data(old, 1000), 0xab, 1000);
  arena.free(old, 1000);
  EXPECT_THROW((void)arena.data(old, 1), std::out_of_range);
  const u64 reused = arena.alloc(990).value();  // same size class
  EXPECT_NE(reused, old);
  EXPECT_EQ(reused & 0xffffffffu, old & 0xffffffffu);  // the same slot
  EXPECT_THROW((void)arena.data(old, 1), std::out_of_range);
  EXPECT_THROW((void)arena.data(reused, 991), std::out_of_range);
  const u8* p = arena.data(reused, 990);
  EXPECT_TRUE(std::all_of(p, p + 990, [](u8 b) { return b == 0; }));
  arena.free(old, 1000);  // a stale free is ignored...
  EXPECT_EQ(arena.live_blocks(), 1u);
  EXPECT_NO_THROW((void)arena.data(reused, 990));  // ...and harms nothing
  arena.free(reused, 990);
  EXPECT_EQ(arena.live_blocks(), 0u);
}

// Refcount table churn: random alloc / clone / adopt / frag / unref / free
// against a std::unordered_map model of every data block's references.
TEST_F(PktBufTest, RefcountChurnMatchesModel) {
  Rng rng(11);
  std::vector<PktBuf*> live;
  std::vector<std::pair<u64, u32>> adopted;  // (handle, cap) refs we hold
  std::unordered_map<u64, u32> refs;
  const auto model_free = [&](PktBuf* pb) {
    const auto drop = [&](u64 h) {
      if (--refs.at(h) == 0) refs.erase(h);
    };
    drop(pb->data_h);
    for (int i = 0; i < pb->nr_frags; i++) drop(pb->frags[i].data_h);
  };
  for (int op = 0; op < 20'000; op++) {
    const u64 r = rng.next_below(10);
    if (r < 3 || live.empty()) {
      PktBuf* pb = pool.alloc(64 + static_cast<u32>(rng.next_below(2000)));
      ASSERT_NE(pb, nullptr);
      refs[pb->data_h]++;
      live.push_back(pb);
    } else if (r < 5) {
      PktBuf* c = pool.clone(*live[rng.next_below(live.size())]);
      refs[c->data_h]++;
      for (int i = 0; i < c->nr_frags; i++) refs[c->frags[i].data_h]++;
      live.push_back(c);
    } else if (r < 6) {
      PktBuf* pb = live[rng.next_below(live.size())];
      adopted.emplace_back(pool.adopt_data(*pb), pb->cap);
      refs[pb->data_h]++;
    } else if (r < 7) {
      // Frag another packet's data block onto a fresh packet.
      PktBuf* src = live[rng.next_below(live.size())];
      PktBuf* pb = pool.alloc(64);
      refs[pb->data_h]++;
      ASSERT_TRUE(pool.add_frag(*pb, src->data_h, 8, 0, src->cap).ok());
      refs[src->data_h]++;
      live.push_back(pb);
    } else if (r < 8 && !adopted.empty()) {
      const std::size_t i = rng.next_below(adopted.size());
      pool.unref_data(adopted[i].first, adopted[i].second);
      if (--refs.at(adopted[i].first) == 0) refs.erase(adopted[i].first);
      adopted[i] = adopted.back();
      adopted.pop_back();
    } else {
      const std::size_t i = rng.next_below(live.size());
      model_free(live[i]);
      pool.free(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(pool.live_data_blocks(), refs.size()) << "op " << op;
    ASSERT_EQ(arena.live_blocks(), refs.size()) << "op " << op;
  }
  for (PktBuf* pb : live) pool.free(pb);
  for (const auto& [h, cap] : adopted) pool.unref_data(h, cap);
  EXPECT_EQ(pool.live_data_blocks(), 0u);
  EXPECT_EQ(arena.live_blocks(), 0u);
}

TEST_F(PktBufTest, SuperPacketRoundTrip) {
  const auto payload = rand_bytes(10000, 11);
  PktBuf* super = make_super(pool, payload, kAllHdrLen);
  ASSERT_NE(super, nullptr);
  EXPECT_EQ(super->total_len() - super->payload_off, payload.size());
  EXPECT_EQ(super_payload(pool, *super), payload);
  pool.free(super);
}

TEST_F(PktBufTest, GsoSegmentsReassembleToPayload) {
  const auto payload = rand_bytes(5000, 12);
  PktBuf* super = make_super(pool, payload, kAllHdrLen);
  ASSERT_NE(super, nullptr);
  auto segs = gso_segment(pool, *super, /*charge_copy=*/true);
  ASSERT_EQ(segs.size(), (payload.size() + kMss - 1) / kMss);
  std::vector<u8> got;
  for (PktBuf* s : segs) {
    EXPECT_LE(s->payload_len(), kMss);
    const auto p = pool.payload(*s);
    got.insert(got.end(), p.begin(), p.end());
    pool.free(s);
  }
  EXPECT_EQ(got, payload);
  pool.free(super);
}

TEST_F(PktBufTest, GsoChargesCopyTsoDoesNot) {
  const auto payload = rand_bytes(8000, 13);
  PktBuf* super = make_super(pool, payload, kAllHdrLen);
  ASSERT_NE(super, nullptr);

  SimTime t0 = env.now();
  auto sw = gso_segment(pool, *super, /*charge_copy=*/true);
  const SimTime sw_cost = env.now() - t0;
  for (auto* s : sw) pool.free(s);

  t0 = env.now();
  auto hw = gso_segment(pool, *super, /*charge_copy=*/false);
  const SimTime hw_cost = env.now() - t0;
  for (auto* s : hw) pool.free(s);
  pool.free(super);

  EXPECT_GT(sw_cost, hw_cost + env.cost.copy_cost(payload.size()) / 2);
}

TEST_F(PktBufTest, SuperPacketTooLargeRejected) {
  std::vector<u8> huge(PktBuf::kMaxFrags * kFragPage + 1, 0);
  EXPECT_EQ(make_super(pool, huge, kAllHdrLen), nullptr);
}

// ---------- end-to-end TCP ----------

struct TestHost {
  TestHost(sim::Env& env, nic::Fabric& fabric, u32 ip, bool busy_poll,
           nic::Nic::Options nic_opts = nic::Nic::Options())
      : arena(env),
        pool(env, arena),
        nic(env, fabric, ip, pool, nic_opts),
        stack(env, nic, pool,
              [&] {
                net::TcpStack::Options o;
                o.ip = ip;
                o.busy_poll = busy_poll;
                o.csum_offload_tx = nic_opts.csum_offload_tx;
                return o;
              }()) {
    nic.set_sink([this](PktBuf* pb) { stack.rx(pb); });
  }

  HeapArena arena;
  PktBufPool pool;
  nic::Nic nic;
  TcpStack stack;
};

constexpr u32 kClientIp = 0x0a000001;
constexpr u32 kServerIp = 0x0a000002;
constexpr u16 kPort = 9000;

class TcpE2E : public ::testing::Test {
 protected:
  sim::Env env;
  nic::Fabric fabric{env};
  TestHost client{env, fabric, kClientIp, /*busy_poll=*/false};
  TestHost server{env, fabric, kServerIp, /*busy_poll=*/true};
};

TEST_F(TcpE2E, HandshakeEstablishesBothSides) {
  TcpConn* accepted = nullptr;
  SimTime established_at = 0;
  ASSERT_TRUE(server.stack.listen(kPort, [&](TcpConn& c) { accepted = &c; }).ok());
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  c->on_established = [&](TcpConn&) { established_at = env.now(); };
  env.engine.run_until_idle();
  EXPECT_EQ(c->state(), TcpState::established);
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(accepted->state(), TcpState::established);
  EXPECT_EQ(accepted->peer_ip(), kClientIp);
  // Handshake RTT must be sane (a few tens of us; the idle clock runs
  // further because disarmed RTO timers still fire as no-ops).
  EXPECT_GT(established_at, 2 * env.cost.fabric_propagation_ns);
  EXPECT_LT(established_at, 100 * kNsPerUs);
}

TEST_F(TcpE2E, SmallEcho) {
  std::vector<u8> server_got, client_got;
  ASSERT_TRUE(server.stack
                  .listen(kPort,
                          [&](TcpConn& c) {
                            c.on_readable = [&](TcpConn& cc) {
                              std::vector<u8> buf(64);
                              const auto n = cc.read(buf);
                              buf.resize(n);
                              server_got.insert(server_got.end(), buf.begin(),
                                                buf.end());
                              (void)cc.send(buf);  // echo
                            };
                          })
                  .ok());
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  c->on_established = [&](TcpConn& cc) {
    const std::string msg = "hello, storage";
    (void)cc.send(std::span<const u8>(
        reinterpret_cast<const u8*>(msg.data()), msg.size()));
  };
  c->on_readable = [&](TcpConn& cc) {
    std::vector<u8> buf(64);
    const auto n = cc.read(buf);
    client_got.insert(client_got.end(), buf.begin(), buf.begin() + static_cast<long>(n));
  };
  env.engine.run_until_idle();
  EXPECT_EQ(std::string(server_got.begin(), server_got.end()), "hello, storage");
  EXPECT_EQ(std::string(client_got.begin(), client_got.end()), "hello, storage");
}

TEST_F(TcpE2E, ZeroCopyReceiveCarriesMetadata) {
  std::vector<PktBuf*> got;
  ASSERT_TRUE(server.stack
                  .listen(kPort,
                          [&](TcpConn& c) {
                            c.on_readable = [&](TcpConn& cc) {
                              for (PktBuf* pb : cc.read_pkts()) got.push_back(pb);
                            };
                          })
                  .ok());
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  const auto payload = rand_bytes(1024, 21);
  c->on_established = [&](TcpConn& cc) { (void)cc.send(payload); };
  env.engine.run_until_idle();

  ASSERT_EQ(got.size(), 1u);
  PktBuf* pb = got[0];
  EXPECT_TRUE(pb->csum_verified);
  EXPECT_GT(pb->hw_tstamp, 0);
  // The derived payload checksum matches a direct computation — this is
  // the integrity word pktstore will persist.
  EXPECT_EQ(pb->payload_csum, inet_checksum(payload));
  const auto view = server.pool.payload(*pb);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), payload.begin()));
  server.pool.free(pb);
}

TEST_F(TcpE2E, LargeTransferSegmentsAtMss) {
  const auto data = rand_bytes(100 * 1024, 31);
  std::vector<u8> got;
  ASSERT_TRUE(server.stack
                  .listen(kPort,
                          [&](TcpConn& c) {
                            c.on_readable = [&](TcpConn& cc) {
                              std::vector<u8> buf(4096);
                              std::size_t n;
                              while ((n = cc.read(buf)) > 0) {
                                got.insert(got.end(), buf.begin(),
                                           buf.begin() + static_cast<long>(n));
                              }
                            };
                          })
                  .ok());
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  c->on_established = [&](TcpConn& cc) { (void)cc.send(data); };
  env.engine.run_until_idle();
  EXPECT_EQ(got, data);
  EXPECT_EQ(c->retransmits(), 0u);
  EXPECT_EQ(c->rtx_queued(), 0u);  // everything acked
}

// One row per fault mix on both directions of the link. Every stream must
// arrive exactly once, byte for byte and in order, whatever the fabric
// drops, replays, holds back or reorders.
class TcpLossy : public ::testing::TestWithParam<nic::FabricOptions> {};

TEST_P(TcpLossy, ReliableUnderLossAndReorder) {
  const nic::FabricOptions& faults = GetParam();
  sim::Env env;
  nic::Fabric fabric(env, faults);
  TestHost client(env, fabric, kClientIp, false);
  TestHost server(env, fabric, kServerIp, true);

  const auto data = rand_bytes(200 * 1024, 41);
  std::vector<u8> got;
  ASSERT_TRUE(server.stack
                  .listen(kPort,
                          [&](TcpConn& c) {
                            c.on_readable = [&](TcpConn& cc) {
                              std::vector<u8> buf(8192);
                              std::size_t n;
                              while ((n = cc.read(buf)) > 0) {
                                got.insert(got.end(), buf.begin(),
                                           buf.begin() + static_cast<long>(n));
                              }
                            };
                          })
                  .ok());
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  c->on_established = [&](TcpConn& cc) { (void)cc.send(data); };
  env.engine.run_until_idle();
  ASSERT_EQ(got.size(), data.size());
  EXPECT_EQ(got, data);
  EXPECT_EQ(c->rtx_queued(), 0u);  // everything acked
  if (faults.loss_p > 0) { EXPECT_GT(c->retransmits(), 0u); }
  if (faults.reorder_p > 0) { EXPECT_GT(fabric.reordered(), 0u); }
  if (faults.dup_p > 0) { EXPECT_GT(fabric.duplicated(), 0u); }
}

// Fault draws come from the per-link streams (deterministic in the
// fabric seed). Seed 11 is picked so that 1% loss actually drops data
// segments within the ~140-frame transfer — a stream where every draw
// happens to survive would make the retransmit assertion vacuous, not
// the protocol correct.
INSTANTIATE_TEST_SUITE_P(
    Conditions, TcpLossy,
    ::testing::Values(
        nic::FabricOptions{.loss_p = 0.01, .seed = 11},
        nic::FabricOptions{.loss_p = 0.05, .seed = 11},
        nic::FabricOptions{.reorder_p = 0.1, .seed = 11},
        nic::FabricOptions{.loss_p = 0.02, .reorder_p = 0.1, .seed = 11},
        nic::FabricOptions{.reorder_p = 0.3, .seed = 11},
        // Replayed frames: duplicate data reaches TcpConn::rx_data, and
        // duplicate ACKs count toward fast retransmit.
        nic::FabricOptions{.dup_p = 0.1, .seed = 11},
        nic::FabricOptions{.loss_p = 0.02, .dup_p = 0.1, .seed = 11},
        // A fixed 50 us extra one-way delay: RTT ~100 us above the base.
        nic::FabricOptions{.delay_ns = 50 * kNsPerUs, .seed = 11},
        nic::FabricOptions{
            .loss_p = 0.02, .delay_ns = 50 * kNsPerUs, .seed = 11},
        // Reordering jitter past the initial 1 ms RTO: a held-back
        // segment can draw a spurious retransmit.
        nic::FabricOptions{.reorder_p = 0.1,
                           .reorder_jitter_ns = 2 * kNsPerMs,
                           .seed = 11},
        nic::FabricOptions{.reorder_p = 0.2,
                           .reorder_jitter_ns = 2 * kNsPerUs,
                           .seed = 11},
        // Everything at once.
        nic::FabricOptions{.loss_p = 0.02,
                           .dup_p = 0.05,
                           .delay_ns = 10 * kNsPerUs,
                           .reorder_p = 0.1,
                           .reorder_jitter_ns = 100 * kNsPerUs,
                           .seed = 11}));

TEST_F(TcpE2E, CorruptionCaughtByChecksumAndRecovered) {
  fabric.set_options({.corrupt_p = 0.05});
  const auto data = rand_bytes(64 * 1024, 51);
  std::vector<u8> got;
  ASSERT_TRUE(server.stack
                  .listen(kPort,
                          [&](TcpConn& c) {
                            c.on_readable = [&](TcpConn& cc) {
                              std::vector<u8> buf(8192);
                              std::size_t n;
                              while ((n = cc.read(buf)) > 0) {
                                got.insert(got.end(), buf.begin(),
                                           buf.begin() + static_cast<long>(n));
                              }
                            };
                          })
                  .ok());
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  c->on_established = [&](TcpConn& cc) { (void)cc.send(data); };
  env.engine.run_until_idle();
  EXPECT_EQ(got, data);
  EXPECT_GT(fabric.corrupted(), 0u);
  // Corruption is caught by either the NIC (TCP csum) or IP header check.
  EXPECT_GT(server.nic.rx_csum_errors() + server.nic.rx_drops() +
                client.nic.rx_csum_errors() + client.nic.rx_drops(),
            0u);
}

TEST_F(TcpE2E, SoftwareChecksumPathWorks) {
  sim::Env env2;
  nic::Fabric fabric2(env2);
  nic::Nic::Options no_offload;
  no_offload.csum_offload_tx = false;
  no_offload.csum_offload_rx = false;
  TestHost c2(env2, fabric2, kClientIp, false, no_offload);
  TestHost s2(env2, fabric2, kServerIp, true, no_offload);

  std::vector<u8> got;
  ASSERT_TRUE(s2.stack
                  .listen(kPort,
                          [&](TcpConn& c) {
                            c.on_readable = [&](TcpConn& cc) {
                              std::vector<u8> buf(4096);
                              std::size_t n;
                              while ((n = cc.read(buf)) > 0) {
                                got.insert(got.end(), buf.begin(),
                                           buf.begin() + static_cast<long>(n));
                              }
                            };
                          })
                  .ok());
  const auto data = rand_bytes(10 * 1024, 61);
  TcpConn* c = c2.stack.connect(kServerIp, kPort);
  c->on_established = [&](TcpConn& cc) { (void)cc.send(data); };
  env2.engine.run_until_idle();
  EXPECT_EQ(got, data);
}

TEST_F(TcpE2E, ZeroCopySendPkt) {
  std::vector<u8> got;
  ASSERT_TRUE(server.stack
                  .listen(kPort,
                          [&](TcpConn& c) {
                            c.on_readable = [&](TcpConn& cc) {
                              std::vector<u8> buf(4096);
                              std::size_t n;
                              while ((n = cc.read(buf)) > 0) {
                                got.insert(got.end(), buf.begin(),
                                           buf.begin() + static_cast<long>(n));
                              }
                            };
                          })
                  .ok());
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  const auto payload = rand_bytes(900, 71);
  c->on_established = [&](TcpConn& cc) {
    PktBuf* pb = client.pool.alloc(static_cast<u32>(kAllHdrLen + payload.size()));
    ASSERT_NE(pb, nullptr);
    pb->len = static_cast<u32>(kAllHdrLen + payload.size());
    pb->payload_off = kAllHdrLen;
    std::memcpy(client.pool.writable(*pb, pb->len).data() + kAllHdrLen,
                payload.data(), payload.size());
    EXPECT_TRUE(cc.send_pkt(pb).ok());
  };
  env.engine.run_until_idle();
  EXPECT_EQ(got, payload);
}

// send_pkt past the window: the packets that do not fit wait in the
// zero-copy TX queue and leave, in stream order, as ACKs open the window;
// bytes send() writes behind them keep their place in the stream; every
// buffer (packets, rtx clones, the shared frag block) goes back to the
// pool.
TEST_F(TcpE2E, ZeroCopyQueueDrainsInOrder) {
  std::vector<u8> got;
  ASSERT_TRUE(server.stack
                  .listen(kPort,
                          [&](TcpConn& c) {
                            c.on_readable = [&](TcpConn& cc) {
                              std::vector<u8> buf(4096);
                              std::size_t n;
                              while ((n = cc.read(buf)) > 0) {
                                got.insert(got.end(), buf.begin(),
                                           buf.begin() + static_cast<long>(n));
                              }
                            };
                          })
                  .ok());
  const std::size_t meta0 = client.pool.live_metadata();
  const std::size_t data0 = client.pool.live_data_blocks();
  constexpr u32 kPkts = 40, kLen = 1000;
  const auto data = rand_bytes(kPkts * kLen, 72);
  const auto tail = rand_bytes(3000, 73);  // written with send() after
  const u64 block = client.arena.alloc(data.size()).value();
  std::memcpy(client.arena.data(block, data.size()), data.data(), data.size());
  client.pool.restore_ref(block);  // the test's own reference
  std::size_t queued_after_send = 0;
  u32 fit = 0;
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  c->on_established = [&](TcpConn& cc) {
    for (u32 i = 0; i < kPkts; i++) {
      PktBuf* pb = client.pool.alloc(static_cast<u32>(kAllHdrLen));
      ASSERT_NE(pb, nullptr);
      pb->len = pb->payload_off = static_cast<u16>(kAllHdrLen);
      ASSERT_TRUE(client.pool
                      .add_frag(*pb, block, kLen, i * kLen,
                                static_cast<u32>(data.size()))
                      .ok());
      EXPECT_TRUE(cc.send_pkt(pb).ok());
    }
    queued_after_send = cc.zc_queued();
    fit = cc.cwnd() / kLen;
    EXPECT_TRUE(cc.send(tail).ok());
  };
  env.engine.run_until_idle();
  // The congestion window took what fit whole; the rest waited.
  EXPECT_EQ(queued_after_send, kPkts - fit);
  std::vector<u8> want = data;
  want.insert(want.end(), tail.begin(), tail.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(c->zc_queued(), 0u);
  EXPECT_EQ(c->rtx_queued(), 0u);
  EXPECT_EQ(c->zc_dropped(), 0u);
  client.pool.unref_data(block, static_cast<u32>(data.size()));
  EXPECT_EQ(client.pool.live_metadata(), meta0);
  EXPECT_EQ(client.pool.live_data_blocks(), data0);
}

// Data reaching a connection its application closed resets it (nobody
// would read it), and the reset releases the sender's queued zero-copy
// packets unsent: counted as dropped, every buffer back in the pool.
TEST_F(TcpE2E, DataAfterCloseResetsAndFreesQueuedPackets) {
  TcpConn* srv = nullptr;
  ASSERT_TRUE(server.stack
                  .listen(kPort,
                          [&](TcpConn& c) {
                            srv = &c;
                            c.close();
                          })
                  .ok());
  const std::size_t meta0 = client.pool.live_metadata();
  const std::size_t data0 = client.pool.live_data_blocks();
  std::size_t queued_after_send = 0;
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  c->on_established = [&](TcpConn& cc) {
    for (int i = 0; i < 40; i++) {
      const auto payload = rand_bytes(1000, 80 + static_cast<u64>(i));
      PktBuf* pb = client.pool.alloc(static_cast<u32>(kAllHdrLen + payload.size()));
      ASSERT_NE(pb, nullptr);
      pb->len = static_cast<u32>(kAllHdrLen + payload.size());
      pb->payload_off = kAllHdrLen;
      std::memcpy(client.pool.writable(*pb, pb->len).data() + kAllHdrLen,
                  payload.data(), payload.size());
      EXPECT_TRUE(cc.send_pkt(pb).ok());
    }
    queued_after_send = cc.zc_queued();
  };
  env.engine.run_until_idle();
  EXPECT_GT(queued_after_send, 0u);
  ASSERT_NE(srv, nullptr);
  EXPECT_EQ(srv->state(), TcpState::closed);
  EXPECT_EQ(c->state(), TcpState::closed);
  // ACKs the server sent before its close drained a few more.
  EXPECT_GT(c->zc_dropped(), 0u);
  EXPECT_LE(c->zc_dropped(), queued_after_send);
  EXPECT_EQ(c->zc_queued(), 0u);
  EXPECT_EQ(client.pool.live_metadata(), meta0);
  EXPECT_EQ(client.pool.live_data_blocks(), data0);
}

TEST_F(TcpE2E, GracefulCloseBothDirections) {
  bool server_closed = false, client_closed = false;
  TcpConn* srv_conn = nullptr;
  ASSERT_TRUE(server.stack
                  .listen(kPort,
                          [&](TcpConn& c) {
                            srv_conn = &c;
                            c.on_closed = [&](TcpConn&) { server_closed = true; };
                            c.on_readable = [&](TcpConn& cc) {
                              // FIN arrived (EOF): close our side too.
                              if (cc.readable_bytes() == 0 &&
                                  cc.state() == TcpState::close_wait) {
                                cc.close();
                              }
                            };
                          })
                  .ok());
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  c->on_closed = [&](TcpConn&) { client_closed = true; };
  c->on_established = [&](TcpConn& cc) { cc.close(); };
  env.engine.run_until_idle();
  EXPECT_EQ(c->state(), TcpState::closed);
  ASSERT_NE(srv_conn, nullptr);
  EXPECT_EQ(srv_conn->state(), TcpState::closed);
  EXPECT_TRUE(server_closed);
  EXPECT_TRUE(client_closed);
}

TEST_F(TcpE2E, RetransmissionClonesKeepDataIntact) {
  // 100% loss initially: the segment's clone must survive in the rtx
  // queue; when the fabric heals, RTO recovers delivery.
  fabric.set_options({.loss_p = 1.0});
  std::vector<u8> got;
  ASSERT_TRUE(server.stack
                  .listen(kPort,
                          [&](TcpConn& c) {
                            c.on_readable = [&](TcpConn& cc) {
                              std::vector<u8> buf(4096);
                              std::size_t n;
                              while ((n = cc.read(buf)) > 0) {
                                got.insert(got.end(), buf.begin(),
                                           buf.begin() + static_cast<long>(n));
                              }
                            };
                          })
                  .ok());
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  env.engine.run_until(2 * kNsPerMs);
  EXPECT_EQ(c->state(), TcpState::syn_sent);
  EXPECT_GT(c->retransmits(), 0u);  // SYN retried
  fabric.set_options({});  // heal
  const auto data = rand_bytes(3000, 81);
  c->on_established = [&](TcpConn& cc) { (void)cc.send(data); };
  env.engine.run_until_idle();
  EXPECT_EQ(c->state(), TcpState::established);
  EXPECT_EQ(got, data);
}

// ---------- the wire ----------

// The wire is booked in the order frames are ready, not the order their
// senders' work is processed in: a frame ready early does not wait behind
// one that a busy core has ready only later.
TEST(NicWire, FramesTakeTheWireInReadyOrder) {
  sim::Env env;
  nic::Fabric fabric(env);
  HeapArena arena_a(env), arena_b(env);
  PktBufPool pool_a(env, arena_a), pool_b(env, arena_b);
  nic::Nic nic_a(env, fabric, kClientIp, pool_a);
  nic::Nic nic_b(env, fabric, kServerIp, pool_b);
  UdpStack udp_a(env, nic_a, pool_a, {.ip = kClientIp});
  UdpStack udp_b(env, nic_b, pool_b, {.ip = kServerIp});
  nic_b.set_sink([&](PktBuf* pb) { udp_b.rx(pb); });
  std::vector<std::pair<std::string, SimTime>> got;
  ASSERT_TRUE(udp_b
                  .bind(kPort,
                        [&](u32, u16, PktBuf* pb) {
                          const auto v = pool_b.payload(*pb);
                          got.emplace_back(std::string(v.begin(), v.end()),
                                           env.now());
                          pool_b.free(pb);
                        })
                  .ok());
  auto send = [&](std::string_view msg) {
    (void)udp_a.send_to(kServerIp, kPort, kPort,
                        {reinterpret_cast<const u8*>(msg.data()), msg.size()});
  };
  // Two cores of one host: the first is processed first but spends 50 us
  // before its frame is ready; the second's frame is ready at once.
  constexpr SimTime kBusy = 50 * kNsPerUs;
  sim::HostCpu cpu(env, 2);
  (void)cpu.run([&] {
    env.clock().advance(kBusy);
    send("late");
  });
  (void)cpu.run([&] { send("early"); });
  env.engine.run_until_idle();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, "early");
  EXPECT_LT(got[0].second, kBusy);
  EXPECT_EQ(got[1].first, "late");
}

// ---------- ACK policy, congestion window, RTO ----------

// One TCP segment as the fabric saw it leave its sender (at the time the
// wire was booked for it).
struct WireSeg {
  SimTime at;
  u32 dst_ip;
  TcpHeader tcp;
  std::size_t payload;
};

// Records every TCP segment the fabric carries; `drop` (if set) eats the
// ones it returns true for.
struct WireLog {
  std::vector<WireSeg> segs;
  std::function<bool(const WireSeg&)> drop;

  void attach(sim::Env& env, nic::Fabric& fabric) {
    fabric.set_drop_hook([this, &env](u32 dst, const nic::WireFrame& f) {
      const std::span<const u8> bytes(f.bytes);
      const auto tcp = decode_tcp(bytes.subspan(kEthHdrLen + kIpHdrLen));
      if (!tcp) return false;
      const WireSeg seg{env.now(), dst, *tcp, bytes.size() - kAllHdrLen};
      segs.push_back(seg);
      return drop && drop(seg);
    });
  }
  // Pure ACKs (no payload, no SYN/FIN/RST) towards `dst`.
  [[nodiscard]] std::size_t pure_acks_to(u32 dst) const {
    return static_cast<std::size_t>(
        std::count_if(segs.begin(), segs.end(), [&](const WireSeg& s) {
          return s.dst_ip == dst && s.payload == 0 &&
                 s.tcp.flags == kTcpAck;
        }));
  }
  [[nodiscard]] std::size_t data_segs_to(u32 dst) const {
    return static_cast<std::size_t>(
        std::count_if(segs.begin(), segs.end(), [&](const WireSeg& s) {
          return s.dst_ip == dst && s.payload > 0;
        }));
  }
};

// A server that drains what it receives (and answers nothing), noting
// when it last read.
void listen_and_drain(TestHost& server, std::vector<u8>& got,
                      SimTime* last_read_at = nullptr) {
  sim::Env& env = server.stack.env();
  ASSERT_TRUE(server.stack
                  .listen(kPort,
                          [&got, &env, last_read_at](TcpConn& c) {
                            c.on_readable = [&got, &env,
                                             last_read_at](TcpConn& cc) {
                              std::vector<u8> buf(8192);
                              std::size_t n;
                              while ((n = cc.read(buf)) > 0) {
                                got.insert(got.end(), buf.begin(),
                                           buf.begin() + static_cast<long>(n));
                              }
                              if (last_read_at != nullptr) {
                                *last_read_at = env.now();
                              }
                            };
                          })
                  .ok());
}

// A bulk stream is ACKed every second full-sized segment, not every one
// (RFC 1122 §4.2.3.2): the receiver sends about half as many ACKs as it
// gets segments, and never lets more than two go unacknowledged.
TEST_F(TcpE2E, BulkStreamAckedEverySecondFullSegment) {
  WireLog wire;
  wire.attach(env, fabric);
  std::vector<u8> got;
  listen_and_drain(server, got);
  const auto data = rand_bytes(100 * kMss, 91);
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  c->on_established = [&](TcpConn& cc) { (void)cc.send(data); };
  env.engine.run_until_idle();
  ASSERT_EQ(got, data);
  EXPECT_EQ(c->retransmits(), 0u);

  const std::size_t data_segs = wire.data_segs_to(kServerIp);
  const std::size_t acks = wire.pure_acks_to(kClientIp);
  EXPECT_GE(data_segs, data.size() / kMss);
  EXPECT_LE(acks, (data_segs + 1) / 2);
  EXPECT_GE(acks, data_segs / 2);
  // Between two ACKs the client sent at most two full segments' worth.
  u32 acked = 0;
  for (const WireSeg& s : wire.segs) {
    if (s.dst_ip != kClientIp || s.payload != 0) continue;
    if (acked != 0) {
      EXPECT_LE(s.tcp.ack - acked, 2 * kMss);
    }
    acked = s.tcp.ack;
  }
}

// A response sent within kDelAckNs carries the request's ACK: exactly one
// segment comes back. A request nobody answers gets exactly one pure
// ACK, kDelAckNs after it arrived.
TEST_F(TcpE2E, DelayedAckRidesTheResponseOrLeavesAtTheTimeout) {
  WireLog wire;
  wire.attach(env, fabric);
  bool answer = true;
  SimTime read_at = 0;
  std::vector<u8> echo;
  ASSERT_TRUE(server.stack
                  .listen(kPort,
                          [&](TcpConn& c) {
                            c.on_readable = [&](TcpConn& cc) {
                              echo.resize(4096);
                              echo.resize(cc.read(echo));
                              read_at = env.now();
                              if (!answer || echo.empty()) return;
                              // The answer takes half the ACK delay.
                              env.engine.schedule_in(kDelAckNs / 2, [&] {
                                (void)server.stack.run_cpu(
                                    [&] { (void)cc.send(echo); });
                              });
                            };
                          })
                  .ok());
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  env.engine.run_until_idle();
  ASSERT_EQ(c->state(), TcpState::established);
  const auto request = rand_bytes(100, 92);

  std::size_t before = wire.segs.size();
  (void)client.stack.run_cpu([&] { (void)c->send(request); });
  env.engine.run_until_idle();
  std::vector<WireSeg> back;
  for (std::size_t i = before; i < wire.segs.size(); i++) {
    if (wire.segs[i].dst_ip == kClientIp) back.push_back(wire.segs[i]);
  }
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].payload, request.size());
  EXPECT_EQ(server.stack.delayed_acks(), 0u);

  answer = false;
  before = wire.segs.size();
  (void)client.stack.run_cpu([&] { (void)c->send(request); });
  env.engine.run_until_idle();
  back.clear();
  for (std::size_t i = before; i < wire.segs.size(); i++) {
    if (wire.segs[i].dst_ip == kClientIp) back.push_back(wire.segs[i]);
  }
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].payload, 0u);
  EXPECT_EQ(server.stack.delayed_acks(), 1u);
  // The timer runs from the segment's processing; the ACK then pays its
  // send path before it is ready for the wire.
  EXPECT_GE(back[0].at - read_at, kDelAckNs);
  EXPECT_LT(back[0].at - read_at, kDelAckNs + 10 * kNsPerUs);
}

// Out-of-order segments are ACKed at once, so one lost segment draws
// three duplicate ACKs and fast retransmit repairs it long before the
// retransmit timer could.
TEST_F(TcpE2E, OutOfOrderSegmentsAckedAtOnceForFastRetransmit) {
  WireLog wire;
  u32 lost_seq = 0;
  int data_seen = 0;
  wire.drop = [&](const WireSeg& s) {
    if (s.dst_ip != kServerIp || s.payload == 0) return false;
    if (++data_seen != 3) return false;
    lost_seq = s.tcp.seq;
    return true;
  };
  wire.attach(env, fabric);
  std::vector<u8> got;
  listen_and_drain(server, got);
  const auto data = rand_bytes(20 * kMss, 93);
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  c->on_established = [&](TcpConn& cc) { (void)cc.send(data); };
  env.engine.run_until_idle();
  ASSERT_EQ(got, data);
  ASSERT_NE(lost_seq, 0u);
  EXPECT_EQ(c->retransmits(), 1u);

  SimTime lost_at = -1, resent_at = -1;
  std::size_t dup_acks = 0;
  for (const WireSeg& s : wire.segs) {
    if (s.dst_ip == kServerIp && s.payload > 0 && s.tcp.seq == lost_seq) {
      (lost_at < 0 ? lost_at : resent_at) = s.at;
    }
    if (s.dst_ip == kClientIp && s.payload == 0 && s.tcp.ack == lost_seq) {
      dup_acks++;
    }
  }
  ASSERT_GE(resent_at, 0);
  EXPECT_GE(dup_acks, 4u);  // the ACK up to the hole, then three copies
  EXPECT_LT(resent_at - lost_at, kMinRto / 2);
}

// A complete duplicate (a replayed frame) is ACKed at once and counted; it
// does not wait for the delayed-ACK timer.
TEST_F(TcpE2E, DuplicateSegmentAckedAtOnceAndCounted) {
  WireLog wire;
  wire.attach(env, fabric);
  std::vector<u8> got;
  SimTime read_at = 0;
  listen_and_drain(server, got, &read_at);
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  env.engine.run_until_idle();
  ASSERT_EQ(c->state(), TcpState::established);
  // From here on the switch replays every frame towards the server.
  fabric.set_link_fault(kServerIp, {.dup_p = 1.0, .seed = 11});
  const std::size_t before = wire.segs.size();
  const auto request = rand_bytes(100, 94);
  (void)client.stack.run_cpu([&] { (void)c->send(request); });
  env.engine.run_until_idle();
  EXPECT_EQ(got, request);
  EXPECT_EQ(server.stack.dup_segments_rx(), 1u);
  EXPECT_EQ(server.stack.delayed_acks(), 0u);
  std::vector<WireSeg> back;
  for (std::size_t i = before; i < wire.segs.size(); i++) {
    if (wire.segs[i].dst_ip == kClientIp) back.push_back(wire.segs[i]);
  }
  ASSERT_EQ(back.size(), 1u);
  EXPECT_LT(back[0].at - read_at, kDelAckNs);
}

// An ACK that covers a retransmitted segment yields no RTT sample, not
// even from the segments behind it (Karn's rule): they waited out the
// repair, not the path. Here the first of three segments is lost; two
// duplicate ACKs are too few for fast retransmit, so the RTO repairs
// it, and the one ACK for all three leaves srtt as the handshake set it.
TEST_F(TcpE2E, AckCoveringARetransmitTakesNoRttSample) {
  WireLog wire;
  bool dropped = false;
  wire.drop = [&](const WireSeg& s) {
    if (dropped || s.dst_ip != kServerIp || s.payload == 0) return false;
    dropped = true;
    return true;
  };
  wire.attach(env, fabric);
  std::vector<u8> got;
  listen_and_drain(server, got);
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  env.engine.run_until_idle();
  ASSERT_EQ(c->state(), TcpState::established);
  const SimTime srtt = c->srtt();
  ASSERT_GT(srtt, 0);
  const auto data = rand_bytes(3 * kMss, 97);
  (void)client.stack.run_cpu([&] { (void)c->send(data); });
  env.engine.run_until_idle();
  ASSERT_TRUE(dropped);
  EXPECT_EQ(got, data);
  EXPECT_EQ(c->retransmits(), 1u);
  EXPECT_EQ(c->srtt(), srtt);
}

// Constant RTT samples drive rttvar toward zero; the RTO still keeps a
// full kMinRto above srtt (Linux's floor), so queueing jitter of less
// than that never fires a spurious retransmit.
TEST_F(TcpE2E, SteadyRttKeepsRtoAboveSrttPlusFloor) {
  int rounds = 0;
  ASSERT_TRUE(server.stack
                  .listen(kPort,
                          [&](TcpConn& c) {
                            c.on_readable = [&](TcpConn& cc) {
                              std::vector<u8> buf(256);
                              const auto n = cc.read(buf);
                              if (n > 0) {
                                (void)cc.send(std::span<const u8>(buf.data(), n));
                              }
                            };
                          })
                  .ok());
  const auto msg = rand_bytes(64, 95);
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  c->on_established = [&](TcpConn& cc) { (void)cc.send(msg); };
  c->on_readable = [&](TcpConn& cc) {
    std::vector<u8> buf(256);
    (void)cc.read(buf);
    if (++rounds < 200) (void)cc.send(msg);
  };
  env.engine.run_until_idle();
  ASSERT_EQ(rounds, 200);
  ASSERT_GT(c->srtt(), 0);
  EXPECT_GE(c->rto(), c->srtt() + kMinRto);
  EXPECT_EQ(c->retransmits(), 0u);
}

// Slow start grows cwnd by the bytes each ACK covers (RFC 3465), so
// ACKing every second segment grows it as fast as ACKing every one: with
// no loss the window ends at its start plus every byte acked.
TEST_F(TcpE2E, SlowStartGrowsCwndByBytesAcked) {
  std::vector<u8> got;
  listen_and_drain(server, got);
  const auto data = rand_bytes(40 * kMss, 96);
  u32 cwnd0 = 0;
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  c->on_established = [&](TcpConn& cc) {
    cwnd0 = cc.cwnd();
    (void)cc.send(data);
  };
  env.engine.run_until_idle();
  ASSERT_EQ(got, data);
  EXPECT_EQ(c->retransmits(), 0u);
  EXPECT_EQ(c->cwnd(), cwnd0 + data.size());
}

// ---------- PASTE: RX directly into PM ----------

TEST(PastePm, ReceivedPayloadLandsInPmAndPersists) {
  sim::Env env;
  nic::Fabric fabric(env);
  // Client: ordinary DRAM host.
  TestHost client(env, fabric, kClientIp, false);
  // Server: packet buffers in PM (PASTE).
  pm::PmDevice dev(env, 8 << 20);
  auto pmpool = pm::PmPool::create(dev, "pkts", dev.data_base(), (8 << 20) - 4096);
  pmpool.set_charges(env.cost.pool_alloc_ns, env.cost.pool_alloc_ns / 2);
  PmArena arena(dev, pmpool);
  PktBufPool pool(env, arena);
  nic::Nic snic(env, fabric, kServerIp, pool);
  TcpStack::Options so;
  so.ip = kServerIp;
  so.busy_poll = true;
  TcpStack sstack(env, snic, pool, so);
  snic.set_sink([&](PktBuf* pb) { sstack.rx(pb); });

  std::vector<PktBuf*> got;
  ASSERT_TRUE(sstack
                  .listen(kPort,
                          [&](TcpConn& c) {
                            c.on_readable = [&](TcpConn& cc) {
                              for (PktBuf* pb : cc.read_pkts()) got.push_back(pb);
                            };
                          })
                  .ok());
  const auto payload = rand_bytes(1024, 91);
  TcpConn* c = client.stack.connect(kServerIp, kPort);
  c->on_established = [&](TcpConn& cc) { (void)cc.send(payload); };
  env.engine.run_until_idle();

  ASSERT_EQ(got.size(), 1u);
  PktBuf* pb = got[0];
  // The payload bytes are physically inside the PM device...
  const u64 pm_off = pb->data_h + pb->payload_off;
  EXPECT_EQ(std::memcmp(dev.at(pm_off, payload.size()), payload.data(),
                        payload.size()),
            0);
  // ...but not yet durable (DMA only dirtied the lines).
  // Persist, crash, and the bytes must survive.
  dev.persist(pb->data_h, pb->len);
  dev.crash();
  EXPECT_EQ(std::memcmp(dev.at(pm_off, payload.size()), payload.data(),
                        payload.size()),
            0);
  pool.free(pb);
}

}  // namespace
}  // namespace papm::net
