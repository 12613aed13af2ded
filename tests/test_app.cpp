// Integration tests for the experiment harness: end-to-end client/server
// runs per backend, Table 1 / Figure 2 calibration properties, GET paths,
// and queueing behaviour — these are the properties the benches rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>

#include "app/harness.h"

namespace papm::app {
namespace {

RunConfig base_config(Backend b, int conns = 1) {
  RunConfig cfg;
  cfg.server.backend = b;
  cfg.connections = conns;
  cfg.warmup_ns = 10 * kNsPerMs;
  cfg.measure_ns = 60 * kNsPerMs;
  return cfg;
}

TEST(Harness, DiscardRttMatchesPaperNetworkingRow) {
  const auto r = run_experiment(base_config(Backend::discard));
  // Table 1: networking-only RTT 26.71 us.
  EXPECT_NEAR(r.mean_rtt_us(), 26.71, 0.8);
  EXPECT_GT(r.ops, 1000u);
  EXPECT_EQ(r.server_errors, 0u);
}

TEST(Harness, LsmRttMatchesPaperTotalRow) {
  const auto r = run_experiment(base_config(Backend::lsm));
  // Table 1: total 34.79 us (we land within ~1 us).
  EXPECT_NEAR(r.mean_rtt_us(), 34.79, 1.2);
  EXPECT_EQ(r.server_errors, 0u);
  // Breakdown rows (generous tolerances; shape matters).
  EXPECT_NEAR(static_cast<double>(r.avg_breakdown.prep_ns), 700, 120);
  EXPECT_NEAR(static_cast<double>(r.avg_breakdown.checksum_ns), 1770, 200);
  EXPECT_NEAR(static_cast<double>(r.avg_breakdown.copy_ns), 1140, 150);
  EXPECT_NEAR(static_cast<double>(r.avg_breakdown.alloc_insert_ns), 2780, 700);
  EXPECT_NEAR(static_cast<double>(r.avg_breakdown.persist_ns), 1940, 250);
}

TEST(Harness, RawPersistSitsBetween) {
  const auto d = run_experiment(base_config(Backend::discard));
  const auto raw = run_experiment(base_config(Backend::raw_persist));
  const auto lsm = run_experiment(base_config(Backend::lsm));
  EXPECT_LT(d.rtt.mean(), raw.rtt.mean());
  EXPECT_LT(raw.rtt.mean(), lsm.rtt.mean());
  // raw = discard + copy + persist, within tolerance.
  EXPECT_NEAR(raw.mean_rtt_us() - d.mean_rtt_us(), 1.14 + 1.94, 0.5);
}

TEST(Harness, PktStoreBeatsLsmAndKeepsAllProperties) {
  const auto lsm = run_experiment(base_config(Backend::lsm));
  const auto pkt = run_experiment(base_config(Backend::pktstore));
  EXPECT_LT(pkt.rtt.mean(), lsm.rtt.mean());
  EXPECT_GT(pkt.kreq_per_s, lsm.kreq_per_s);
  // The reuse wins: checksum and copy effectively free.
  EXPECT_LT(pkt.avg_breakdown.checksum_ns, 200);
  EXPECT_LT(pkt.avg_breakdown.copy_ns, 100);
  // Persistence cannot be reused away.
  EXPECT_GT(pkt.avg_breakdown.persist_ns, 1700);
  EXPECT_EQ(pkt.server_errors, 0u);
}

TEST(Harness, KnobsRemoveExactlyTheirShare) {
  auto cfg = base_config(Backend::lsm);
  cfg.server.knobs.checksum = false;
  const auto no_csum = run_experiment(cfg);
  const auto full = run_experiment(base_config(Backend::lsm));
  // Removing the checksum removes ~1.77 us of RTT.
  EXPECT_NEAR(full.mean_rtt_us() - no_csum.mean_rtt_us(), 1.77, 0.5);
  EXPECT_EQ(no_csum.avg_breakdown.checksum_ns, 0);
}

TEST(Harness, Figure2QueueingShape) {
  // Latency grows ~linearly with connections once the single core
  // saturates; throughput plateaus; the data-management gap lands in the
  // paper's bands (tput -9..-28 %, latency +11..+42 %).
  auto raw1 = run_experiment(base_config(Backend::raw_persist, 1));
  auto lsm1 = run_experiment(base_config(Backend::lsm, 1));
  auto raw25 = run_experiment(base_config(Backend::raw_persist, 25));
  auto lsm25 = run_experiment(base_config(Backend::lsm, 25));

  // Saturation: 25 connections push throughput far above 1-connection.
  EXPECT_GT(raw25.kreq_per_s, raw1.kreq_per_s * 2);
  // Queueing: latency at 25 conns far exceeds the single-conn RTT.
  EXPECT_GT(raw25.rtt.mean(), 4 * raw1.rtt.mean());

  const double tput_gap1 = 1.0 - lsm1.kreq_per_s / raw1.kreq_per_s;
  const double tput_gap25 = 1.0 - lsm25.kreq_per_s / raw25.kreq_per_s;
  const double lat_gap1 = lsm1.rtt.mean() / raw1.rtt.mean() - 1.0;
  const double lat_gap25 = lsm25.rtt.mean() / raw25.rtt.mean() - 1.0;
  EXPECT_GT(tput_gap1, 0.08);
  EXPECT_LT(tput_gap25, 0.33);
  EXPECT_GT(lat_gap1, 0.10);
  EXPECT_LT(lat_gap25, 0.46);
  // The penalty grows with load (the paper's queueing argument).
  EXPECT_GT(lat_gap25, lat_gap1);
}

TEST(Harness, ServerCpuSaturatesUnderLoad) {
  const auto r1 = run_experiment(base_config(Backend::lsm, 1));
  const auto r25 = run_experiment(base_config(Backend::lsm, 25));
  EXPECT_LT(r1.server_cpu_util, 0.7);
  EXPECT_GT(r25.server_cpu_util, 0.95);
}

TEST(Harness, GetWorkloadRoundTrips) {
  auto cfg = base_config(Backend::lsm);
  cfg.get_ratio = 0.5;
  cfg.keyspace = 64;  // small keyspace so GETs mostly hit written keys
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.ops, 500u);
  // Early GETs may 404 before a PUT reaches their key: misses, not errors.
  EXPECT_EQ(r.server_errors, 0u);
  EXPECT_GT(r.gets_checked, r.ops / 4);
}

TEST(Harness, PktStoreGetZeroCopyWorkload) {
  auto cfg = base_config(Backend::pktstore);
  cfg.get_ratio = 0.5;
  cfg.keyspace = 64;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.ops, 500u);
  EXPECT_EQ(r.server_errors, 0u);
  EXPECT_GT(r.gets_checked, r.ops / 4);
}

TEST(Harness, HomaLikeTransportShrinksNetworkingShare) {
  auto tcp_cfg = base_config(Backend::lsm);
  auto homa_cfg = tcp_cfg;
  homa_cfg.cost = sim::CostModel::homa_like();
  const auto tcp = run_experiment(tcp_cfg);
  const auto homa = run_experiment(homa_cfg);
  // Networking shrinks; the storage share is untouched, so its relative
  // weight grows — the §5.2 argument for the proposal.
  EXPECT_LT(homa.rtt.mean(), tcp.rtt.mean() - 10000.0);
  EXPECT_NEAR(static_cast<double>(homa.avg_breakdown.total_ns()),
              static_cast<double>(tcp.avg_breakdown.total_ns()), 500.0);
}

TEST(Harness, LossyFabricStillCompletes) {
  auto cfg = base_config(Backend::lsm);
  cfg.fabric.loss_p = 0.005;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.ops, 200u);
  EXPECT_GT(r.retransmits_hint, 0u);  // drops actually happened
  EXPECT_EQ(r.server_errors, 0u);     // but no request was lost
}

TEST(Harness, LargeValuesSpanSegments) {
  auto cfg = base_config(Backend::pktstore);
  cfg.value_size = 4000;  // 3 segments per request
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.ops, 300u);
  EXPECT_EQ(r.server_errors, 0u);
  // More bytes => higher persist cost per op.
  EXPECT_GT(r.avg_breakdown.persist_ns, 3 * 1940 / 2);
}

TEST(Harness, LsmWithWalIsSlower) {
  auto wal_cfg = base_config(Backend::lsm);
  wal_cfg.server.lsm_wal = true;
  const auto with_wal = run_experiment(wal_cfg);
  const auto without = run_experiment(base_config(Backend::lsm));
  EXPECT_GT(with_wal.rtt.mean(), without.rtt.mean() + 2000.0);
}

// A PM-backed KvServer on `cores` datapath shards and raw client
// connections to it, for end-to-end request/response checks against a
// chosen backend. Connection 0 opens at construction unless
// `connect_first` is false; `csum_offload` false checksums in software on
// both hosts.
class KvRig {
 public:
  explicit KvRig(Backend b, int cores = 1, bool connect_first = true,
                 bool csum_offload = true)
      : fabric_(env_),
        server_(env_, fabric_, server_cfg(cores, csum_offload)),
        client_(env_, fabric_, client_cfg(csum_offload)),
        srv_(server_, kv_cfg(b)) {
    if (connect_first) (void)connect();
  }

  // Opens one more client connection; its index.
  std::size_t connect() {
    auto& c = *clients_.emplace_back(std::make_unique<Client>());
    c.conn = client_.stack().connect(2, 9000);
    c.conn->on_readable = [&c](net::TcpConn& tc) {
      std::vector<u8> buf(8192);
      std::size_t n;
      while ((n = tc.read(buf)) > 0) {
        auto r = c.parser.feed(std::span<const u8>(buf.data(), n));
        if (r.has_value()) {
          c.responses++;
          c.last = std::move(r);
        }
      }
    };
    env_.engine.run_until_idle();
    return clients_.size() - 1;
  }

  // Responses connection `conn` has parsed since it opened.
  [[nodiscard]] std::size_t responses(std::size_t conn = 0) const {
    return clients_[conn]->responses;
  }

  [[nodiscard]] bool connected(std::size_t conn = 0) const {
    return clients_[conn]->conn->state() == net::TcpState::established;
  }

  // Sends one request and runs the simulation until idle; the response,
  // if one arrived.
  std::optional<http::Response> request(http::Method m, std::string target,
                                        std::vector<u8> body = {},
                                        std::size_t conn = 0) {
    http::Request req;
    req.method = m;
    req.target = std::move(target);
    req.body = std::move(body);
    return send_raw(http::serialize(req), conn);
  }
  std::optional<http::Response> send_raw(std::span<const u8> bytes,
                                         std::size_t conn = 0) {
    Client& c = *clients_[conn];
    c.last.reset();
    (void)c.conn->send(bytes);
    env_.engine.run_until_idle();
    return std::move(c.last);
  }
  std::optional<http::Response> send_raw(std::string_view bytes,
                                         std::size_t conn = 0) {
    return send_raw(std::span<const u8>(
                        reinterpret_cast<const u8*>(bytes.data()), bytes.size()),
                    conn);
  }
  // Sends one request and closes the connection at once (no half-close:
  // response bytes that arrive afterwards reset it), then runs until
  // idle; the response, if one arrived.
  std::optional<http::Response> request_then_close(http::Method m,
                                                   std::string target,
                                                   std::size_t conn = 0) {
    Client& c = *clients_[conn];
    c.last.reset();
    http::Request req;
    req.method = m;
    req.target = std::move(target);
    (void)c.conn->send(http::serialize(req));
    c.conn->close();
    env_.engine.run_until_idle();
    return std::move(c.last);
  }
  [[nodiscard]] net::TcpConn& client_conn(std::size_t conn = 0) {
    return *clients_[conn]->conn;
  }
  [[nodiscard]] sim::Env& env() { return env_; }
  // Sends each chunk as its own segment, all in flight at once, then runs
  // the simulation until idle; the last response, if one arrived.
  std::optional<http::Response> send_segments(
      const std::vector<std::string_view>& chunks, std::size_t conn = 0) {
    Client& c = *clients_[conn];
    c.last.reset();
    for (const std::string_view chunk : chunks) {
      (void)c.conn->send(std::span<const u8>(
          reinterpret_cast<const u8*>(chunk.data()), chunk.size()));
    }
    env_.engine.run_until_idle();
    return std::move(c.last);
  }

  // The server shard connection `conn` lands on: the one whose request
  // count a probe GET moves.
  u32 shard_of(std::size_t conn) {
    std::vector<u64> before;
    for (u32 i = 0; i < server_.datapaths(); i++) {
      before.push_back(srv_.shard_requests(i));
    }
    (void)request(http::Method::get, "/kv/shard-probe", {}, conn);
    for (u32 i = 0; i < server_.datapaths(); i++) {
      if (srv_.shard_requests(i) != before[i]) return i;
    }
    ADD_FAILURE() << "probe on connection " << conn << " was not dispatched";
    return 0;
  }
  // Opens connections until one lands off `shard`; its index, or 0 when
  // none did.
  std::size_t connect_off(u32 shard) {
    for (int tries = 0; tries < 32; tries++) {
      const std::size_t c = connect();
      if (shard_of(c) != shard) return c;
    }
    return 0;
  }

  [[nodiscard]] KvServer& server() { return srv_; }
  [[nodiscard]] Host& server_host() { return server_; }
  [[nodiscard]] u32 shards() const { return server_.datapaths(); }
  [[nodiscard]] u64 server_counter(const std::string& name) {
    return server_.merged_metrics().counter(name).value();
  }

 private:
  struct Client {
    net::TcpConn* conn = nullptr;
    http::ResponseParser parser;
    std::optional<http::Response> last;
    std::size_t responses = 0;
  };

  static HostConfig server_cfg(int cores, bool csum_offload) {
    HostConfig c;
    c.ip = 2;
    c.cores = cores;
    c.busy_poll = true;
    c.pm_backed = true;
    c.nic.csum_offload_tx = c.nic.csum_offload_rx = csum_offload;
    return c;
  }
  static HostConfig client_cfg(bool csum_offload) {
    HostConfig c;
    c.ip = 1;
    c.cores = 0;
    c.nic.csum_offload_tx = c.nic.csum_offload_rx = csum_offload;
    return c;
  }
  static ServerConfig kv_cfg(Backend b) {
    ServerConfig sc;
    sc.backend = b;
    return sc;
  }

  sim::Env env_;
  nic::Fabric fabric_;
  Host server_;
  Host client_;
  KvServer srv_;
  std::vector<std::unique_ptr<Client>> clients_;
};

std::string str(const std::vector<u8>& v) { return {v.begin(), v.end()}; }

// A malformed request head is answered 400 and its connection closed;
// the server must not wait forever for a head it can never parse.
TEST(KvServerParse, MalformedHeadIs400AndCloses) {
  for (const char* bad :
       {"NONSENSE\r\n\r\n",
        "PUT /kv/a HTTP/1.1\r\nContent-Length: banana\r\n\r\n"}) {
    KvRig rig(Backend::lsm);
    ASSERT_TRUE(rig.connected());
    const auto r = rig.send_raw(std::string_view(bad));
    ASSERT_TRUE(r.has_value()) << bad;
    EXPECT_EQ(r->status, 400) << bad;
    EXPECT_FALSE(rig.connected()) << bad;
    EXPECT_EQ(rig.server().errors(), 1u);
    EXPECT_EQ(rig.server_counter("server.errors"), 1u);
    EXPECT_EQ(rig.server_counter("http.parse_errors"), 1u);
    EXPECT_EQ(rig.server().ops(), 0u);
  }
}

// Segments that follow a malformed head on the same connection — already
// in flight when the server answers 400, or sent after the client saw the
// 400 — must not reach the rejected connection's freed request state
// (an ASan build turns such a use-after-free into a failure). The server
// keeps serving other connections.
TEST(KvServerParse, SegmentsAfterMalformedHeadAreDropped) {
  KvRig rig(Backend::pktstore);
  const auto r = rig.send_segments({"NONSENSE\r\n\r\n",
                                    "PUT /kv/a HTTP/1.1\r\n",
                                    "Content-Length: 3\r\n\r\nabc"});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 400);
  EXPECT_FALSE(rig.connected());
  // The client has the server's FIN but may still send.
  EXPECT_FALSE(
      rig.send_raw(std::string_view("GET /kv/a HTTP/1.1\r\n\r\n")).has_value());
  EXPECT_EQ(rig.server().errors(), 1u);
  EXPECT_EQ(rig.server().ops(), 0u);
  const std::size_t other = rig.connect();
  const auto put = rig.request(http::Method::put, "/kv/b",
                               std::vector<u8>{'x', 'y'}, other);
  ASSERT_TRUE(put.has_value());
  EXPECT_EQ(put->status, 201);
  EXPECT_EQ(rig.server().ops(), 1u);
}

// Content-Length is matched case-insensitively: an upper-case header
// still delivers its body to the store.
TEST(KvServerParse, UpperCaseContentLengthKeepsBody) {
  KvRig rig(Backend::lsm);
  const auto put = rig.send_raw(std::string_view(
      "PUT /kv/shout HTTP/1.1\r\nCONTENT-LENGTH: 5\r\n\r\nhello"));
  ASSERT_TRUE(put.has_value());
  EXPECT_EQ(put->status, 201);
  const auto get = rig.request(http::Method::get, "/kv/shout");
  ASSERT_TRUE(get.has_value());
  EXPECT_EQ(get->status, 200);
  EXPECT_EQ(str(get->body), "hello");
}

// A request head split across TCP segments is parsed over the gathered
// segments: a PUT and a GET whose heads straddle segment boundaries (one
// head longer than a segment) are each answered exactly once, and the GET
// returns the PUT's bytes. Both indexed backends.
TEST(KvServerParse, HeadSplitAcrossSegmentsGetsOneResponse) {
  for (const Backend b : {Backend::pktstore, Backend::lsm}) {
    KvRig rig(b);
    std::string value;
    for (int i = 0; i < 3000; i++) value += static_cast<char>('a' + i % 26);
    const std::string put_rest = "ength: " + std::to_string(value.size()) +
                                 "\r\n\r\n" + value.substr(0, 10);
    const auto put = rig.send_segments(
        {"PUT /kv/sp", "lit HTTP/1.1\r\nContent-L", put_rest,
         std::string_view(value).substr(10)});
    ASSERT_TRUE(put.has_value());
    EXPECT_EQ(put->status, 201);
    EXPECT_EQ(rig.responses(), 1u);

    // A head longer than one segment: a padding header past the MSS.
    const std::string pad = "X-Pad: " + std::string(2 * net::kMss, 'p');
    const auto get = rig.send_segments(
        {"GET /kv/split HTTP/1.1\r\n", pad, "\r\n", "\r\n"});
    ASSERT_TRUE(get.has_value());
    EXPECT_EQ(get->status, 200);
    EXPECT_EQ(str(get->body), value);
    EXPECT_EQ(rig.responses(), 2u);
    EXPECT_EQ(rig.server().ops(), 2u);
    EXPECT_EQ(rig.server().errors(), 0u);
    EXPECT_TRUE(rig.connected());
  }
}

// A head with no terminator within KvServer::kMaxHeadBytes is answered
// 431 and its connection closed, whether the terminator never comes or
// comes too late; the server keeps serving other connections.
TEST(KvServerParse, HeadOverCapIs431) {
  for (const bool terminated : {false, true}) {
    KvRig rig(Backend::pktstore);
    std::string req = "GET /kv/a HTTP/1.1\r\nX-Pad: " +
                      std::string(KvServer::kMaxHeadBytes, 'p');
    if (terminated) req += "\r\n\r\n";
    const auto r = rig.send_raw(req);
    ASSERT_TRUE(r.has_value()) << terminated;
    EXPECT_EQ(r->status, 431) << terminated;
    EXPECT_EQ(rig.responses(), 1u);
    EXPECT_FALSE(rig.connected());
    EXPECT_EQ(rig.server().errors(), 1u);
    EXPECT_EQ(rig.server().ops(), 0u);
    const std::size_t other = rig.connect();
    const auto put = rig.request(http::Method::put, "/kv/b",
                                 std::vector<u8>{'x', 'y'}, other);
    ASSERT_TRUE(put.has_value());
    EXPECT_EQ(put->status, 201);
  }
}

// raw_persist copies a PUT body into its fixed PM region. A body larger
// than the region is refused 413 at head parse and never written: a
// block allocated right past the region keeps its bytes.
TEST(KvServerParse, RawPersistBodyPastItsRegionIs413) {
  KvRig rig(Backend::raw_persist, 1, /*connect_first=*/false);
  // Before any packet buffer is allocated, the next block is the one
  // that follows the region.
  const u64 end = rig.server().raw_region(0) + KvServer::kRawRegion;
  const auto guard = rig.server_host().pm_pool(0).alloc(8192);
  ASSERT_TRUE(guard.ok());
  ASSERT_EQ(guard.value(), end);
  pm::PmDevice& dev = rig.server_host().pm_device();
  const std::vector<u8> sentinel(8192, 0xa5);
  dev.store(end, sentinel);
  (void)rig.connect();

  // The client streams head and body without waiting for an answer. The
  // server answers 413 at head parse and closes; the body bytes that keep
  // arriving reset the connection instead of queueing one zero-window
  // probe byte per RTO, and the server never holds more than its receive
  // buffer while they do.
  const std::string head = "PUT /kv/big HTTP/1.1\r\nContent-Length: " +
                           std::to_string(KvServer::kRawRegion + 4096) +
                           "\r\n\r\n";
  const std::string req =
      head + std::string(KvServer::kRawRegion + 4096, 'z');
  std::size_t held_max = 0;
  std::function<void()> sample = [&] {
    std::size_t held = 0;
    rig.server_host().stack().each_conn([&](net::TcpConn& c) {
      held += c.readable_bytes() + c.ooo_queued() * net::kMss;
    });
    held_max = std::max(held_max, held);
    if (rig.client_conn().state() != net::TcpState::closed &&
        rig.env().now() < 1000 * kNsPerMs) {
      rig.env().engine.schedule_in(5 * kNsPerUs, sample);
    }
  };
  rig.env().engine.schedule_in(0, sample);
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = rig.send_raw(req);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 413);
  EXPECT_EQ(rig.server().errors(), 1u);
  EXPECT_EQ(rig.client_conn().state(), net::TcpState::closed);  // reset
  EXPECT_LE(held_max, rig.server_host().stack().options().rcv_buf);
  EXPECT_LT(took.count(), 1.0);
  const auto after = dev.span(end, sentinel.size());
  EXPECT_TRUE(std::equal(after.begin(), after.end(), sentinel.begin()));

  // The server keeps serving: a body that fits is persisted.
  const std::size_t other = rig.connect();
  const auto ok = rig.request(http::Method::put, "/kv/small",
                              std::vector<u8>(100, 's'), other);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, 200);
}

// A zero-copy GET leaves as one stream of frag-backed packets with the
// HTTP head in the first one: H head bytes and N value bytes take
// ceil((H + N) / MSS) server segments, whether the value was primed
// (MSS-sized chunks) or written by a client (segments offset by the PUT
// head), and with software checksums (odd heads and frags) as well as
// NIC offload.
TEST(KvServerGet, ResponseLeavesInCeilHeadPlusValueOverMssSegments) {
  for (const bool offload : {true, false}) {
    for (const bool primed : {true, false}) {
      KvRig rig(Backend::pktstore, 1, /*connect_first=*/true, offload);
      const std::size_t h41 = 37 + 4;  // the head for a 4-digit length
      for (const std::size_t n : {std::size_t{0}, std::size_t{512},
                                  net::kMss - h41, net::kMss,
                                  std::size_t{16384}, std::size_t{65000}}) {
        SCOPED_TRACE(::testing::Message() << "offload " << offload
                                          << " primed " << primed << " N " << n);
        std::vector<u8> value(n);
        for (std::size_t i = 0; i < n; i++) value[i] = static_cast<u8>(i * 13 + n);
        const std::string key = "v" + std::to_string(n);
        if (primed) {
          ASSERT_TRUE(rig.server().prime(key, value));
        } else {
          const auto put = rig.request(http::Method::put, "/kv/" + key, value);
          ASSERT_TRUE(put.has_value());
          ASSERT_EQ(put->status, 201);
        }
        const std::size_t head =
            std::string("HTTP/1.1 200 OK\r\nContent-Length: " +
                        std::to_string(n) + "\r\n\r\n")
                .size();
        const u64 tx0 = rig.server_host().stack().segments_tx();
        const auto get = rig.request(http::Method::get, "/kv/" + key);
        ASSERT_TRUE(get.has_value());
        ASSERT_EQ(get->status, 200);
        EXPECT_EQ(get->body, value);
        EXPECT_EQ(rig.server_host().stack().segments_tx() - tx0,
                  (head + n + net::kMss - 1) / net::kMss);
      }
      EXPECT_EQ(rig.server().errors(), 0u);
      EXPECT_EQ(rig.server_host().stack().csum_failures(), 0u);
      // The 65000 B response outran the initial window: its tail waited
      // in the zero-copy TX queue.
      EXPECT_GT(rig.server_host().merged_metrics().gauge("tcp.zc_queue_hwm").value(),
                0u);
    }
  }
}

// A connection that closes while its GET response still waits in the
// zero-copy TX queue cuts that response short: the dropped packets are
// counted, the count survives reset_stats(), and every packet buffer goes
// back to its pool.
TEST(KvServerGet, CloseWithQueuedResponseCountsTruncation) {
  KvRig rig(Backend::pktstore);
  const std::size_t live0 = rig.server_host().pool().live_metadata();
  ASSERT_TRUE(rig.server().prime("big", std::vector<u8>(65000, 'b')));
  (void)rig.request_then_close(http::Method::get, "/kv/big");
  EXPECT_EQ(rig.client_conn().state(), net::TcpState::closed);
  EXPECT_GT(rig.server().truncated_responses(), 0u);
  EXPECT_EQ(rig.server_counter("server.truncated_responses"),
            rig.server().truncated_responses());
  rig.server().reset_stats();
  EXPECT_GT(rig.server().truncated_responses(), 0u);
  EXPECT_EQ(rig.server_host().pool().live_metadata(), live0);
}

// ROADMAP item 1's large-GET table: a pktstore closed loop whose GETs
// hit (16 keys) with values past the TCP window. Every request gets its
// whole response, and every GET body is byte-checked against the key's
// value. The warmup lets PUTs reach all 16 keys first: a GET of a key no
// PUT has reached yet is a correct 404, and would count as an error.
TEST(Harness, LargeGetsCompleteWithEveryByteChecked) {
  for (const int conns : {1, 50}) {
    for (const std::size_t value : {16000u, 24000u, 32000u, 65000u}) {
      SCOPED_TRACE(::testing::Message() << conns << " conns, " << value << " B");
      auto cfg = base_config(Backend::pktstore, conns);
      cfg.warmup_ns = 40 * kNsPerMs;
      cfg.get_ratio = 0.5;
      cfg.keyspace = 16;
      cfg.value_size = value;
      const auto r = run_experiment(cfg);
      EXPECT_GT(r.ops, 100u);
      EXPECT_GT(r.gets_checked, 40u);
      EXPECT_EQ(r.server_errors, 0u);
    }
  }
}

// The baselines without a store answer every method 200 with an empty
// body (Table 1 / Fig. 2 wire bytes).
class StorelessTest : public ::testing::TestWithParam<Backend> {};

TEST_P(StorelessTest, Every200Empty) {
  KvRig rig(GetParam());
  for (const auto m : {http::Method::put, http::Method::get, http::Method::del}) {
    const auto r = rig.request(m, "/kv/k", m == http::Method::put
                                               ? std::vector<u8>(100, 'v')
                                               : std::vector<u8>{});
    ASSERT_TRUE(r.has_value()) << to_string(m);
    EXPECT_EQ(r->status, 200) << to_string(m);
    EXPECT_TRUE(r->body.empty()) << to_string(m);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, StorelessTest,
                         ::testing::Values(Backend::discard,
                                           Backend::raw_persist));

// The one request pipeline across shards, for both indexed stores: a key
// written through one shard reads back byte-identical through another
// (the key directory routes the read), lists once when both shards hold
// it (scan dedup), and a DELETE through either connection erases it
// everywhere.
class CrossShardTest : public ::testing::TestWithParam<Backend> {};

TEST_P(CrossShardTest, ReadMergeScanAndDeleteSpanShards) {
  KvRig rig(GetParam(), 4);
  const std::size_t b = rig.connect_off(rig.shard_of(0));
  ASSERT_NE(b, 0u) << "no connection landed off connection 0's shard";

  std::vector<u8> value(3000);  // three segments
  for (std::size_t i = 0; i < value.size(); i++) {
    value[i] = static_cast<u8>(i * 7 + 3);
  }
  const auto put = rig.request(http::Method::put, "/kv/shared", value, 0);
  ASSERT_TRUE(put.has_value());
  ASSERT_EQ(put->status, 201);
  const auto get = rig.request(http::Method::get, "/kv/shared", {}, b);
  ASSERT_TRUE(get.has_value());
  ASSERT_EQ(get->status, 200);
  EXPECT_EQ(get->body, value);

  // The same key through the other shard: both stores now hold it.
  const auto put2 = rig.request(http::Method::put, "/kv/shared", value, b);
  ASSERT_TRUE(put2.has_value());
  ASSERT_EQ(put2->status, 201);
  const auto scan = rig.request(http::Method::get, "/scan/", {}, 0);
  ASSERT_TRUE(scan.has_value());
  ASSERT_EQ(scan->status, 200);
  EXPECT_EQ(str(scan->body), "shared\t3000\n");

  const auto del = rig.request(http::Method::del, "/kv/shared", {}, b);
  ASSERT_TRUE(del.has_value());
  EXPECT_EQ(del->status, 204);
  const auto gone = rig.request(http::Method::get, "/kv/shared", {}, 0);
  ASSERT_TRUE(gone.has_value());
  EXPECT_EQ(gone->status, 404);
  const auto gone_b = rig.request(http::Method::get, "/kv/shared", {}, b);
  ASSERT_TRUE(gone_b.has_value());
  EXPECT_EQ(gone_b->status, 404);
}

// PUTs land on their connection's shard, so one key can hold versions on
// two shards. A GET through either connection returns the last acked
// PUT, and a scan lists its length — with distinct values per PUT, so a
// stale copy cannot pass for the newest.
TEST_P(CrossShardTest, GetReturnsLastAckedPutAcrossShards) {
  KvRig rig(GetParam(), 4);
  const std::size_t b = rig.connect_off(rig.shard_of(0));
  ASSERT_NE(b, 0u) << "no connection landed off connection 0's shard";

  const std::vector<u8> v1(700, '1');
  const std::vector<u8> v2(1900, '2');
  const auto put1 = rig.request(http::Method::put, "/kv/k", v1, 0);
  ASSERT_TRUE(put1.has_value());
  ASSERT_EQ(put1->status, 201);
  const auto put2 = rig.request(http::Method::put, "/kv/k", v2, b);
  ASSERT_TRUE(put2.has_value());
  ASSERT_EQ(put2->status, 201);
  for (const std::size_t conn : {std::size_t{0}, b}) {
    const auto get = rig.request(http::Method::get, "/kv/k", {}, conn);
    ASSERT_TRUE(get.has_value()) << "conn " << conn;
    ASSERT_EQ(get->status, 200) << "conn " << conn;
    EXPECT_EQ(str(get->body), str(v2)) << "conn " << conn;
  }
  const auto scan = rig.request(http::Method::get, "/scan/", {}, 0);
  ASSERT_TRUE(scan.has_value());
  EXPECT_EQ(str(scan->body), "k\t1900\n");

  // Writing through the first shard again makes its copy the newest.
  const auto put3 = rig.request(http::Method::put, "/kv/k", v1, 0);
  ASSERT_TRUE(put3.has_value());
  ASSERT_EQ(put3->status, 201);
  const auto get = rig.request(http::Method::get, "/kv/k", {}, b);
  ASSERT_TRUE(get.has_value());
  ASSERT_EQ(get->status, 200);
  EXPECT_EQ(str(get->body), str(v1));
}

INSTANTIATE_TEST_SUITE_P(Backends, CrossShardTest,
                         ::testing::Values(Backend::lsm, Backend::pktstore));

// Index walks of every shard's PktStore, in shard order.
std::vector<u64> index_walks(KvRig& rig) {
  std::vector<u64> walks;
  for (u32 i = 0; i < rig.shards(); i++) {
    const auto* store =
        dynamic_cast<const core::PktStore*>(rig.server().store(i));
    walks.push_back(store != nullptr ? store->index_walks() : 0);
  }
  return walks;
}

// A zero-copy GET hit is one index probe: the send reuses the probe's
// chain head. Through the writer's shard or another one, exactly one
// shard's skip list is walked, once. A multi-shard server answers an
// absent key from its directory without walking any index.
TEST(KvServerGet, ZeroCopyHitWalksOneIndexOnce) {
  for (const int cores : {1, 4}) {
    KvRig rig(Backend::pktstore, cores);
    std::vector<std::size_t> conns{0};
    if (cores > 1) {
      conns.push_back(rig.connect_off(rig.shard_of(0)));
      ASSERT_NE(conns.back(), 0u);
    }
    std::vector<u8> value(3000);  // three segments
    for (std::size_t i = 0; i < value.size(); i++) {
      value[i] = static_cast<u8>(i * 5 + 1);
    }
    const auto put = rig.request(http::Method::put, "/kv/walk", value, 0);
    ASSERT_TRUE(put.has_value());
    ASSERT_EQ(put->status, 201);

    for (const std::size_t conn : conns) {
      const std::vector<u64> before = index_walks(rig);
      const auto get = rig.request(http::Method::get, "/kv/walk", {}, conn);
      ASSERT_TRUE(get.has_value());
      ASSERT_EQ(get->status, 200);
      EXPECT_EQ(get->body, value);
      const std::vector<u64> after = index_walks(rig);
      u64 walked = 0;
      u32 shards_walked = 0;
      for (u32 i = 0; i < rig.shards(); i++) {
        walked += after[i] - before[i];
        shards_walked += after[i] != before[i] ? 1 : 0;
      }
      EXPECT_EQ(walked, 1u) << cores << " cores, conn " << conn;
      EXPECT_EQ(shards_walked, 1u) << cores << " cores, conn " << conn;
    }
    if (cores > 1) {
      const std::vector<u64> before = index_walks(rig);
      const auto miss = rig.request(http::Method::get, "/kv/absent", {}, 0);
      ASSERT_TRUE(miss.has_value());
      EXPECT_EQ(miss->status, 404);
      EXPECT_EQ(index_walks(rig), before);
    }
  }
}

// Range query end-to-end: prime keys through the harness-style server,
// then issue GET /scan/<from>/<to> on a raw connection and check the
// listing (the paper's "efficient range query support" property).
class ScanTest : public ::testing::TestWithParam<Backend> {};

TEST_P(ScanTest, RangeQueryListsKeysInOrder) {
  KvRig rig(GetParam());
  ASSERT_TRUE(rig.connected());

  for (const char* k : {"apple", "banana", "cherry", "date", "elderberry"}) {
    const auto r = rig.request(http::Method::put, std::string("/kv/") + k,
                               std::vector<u8>(std::strlen(k), 'x'));
    ASSERT_TRUE(r.has_value());
    ASSERT_EQ(r->status, 201);
  }
  // [banana, date): two keys, ordered.
  const auto bounded = rig.request(http::Method::get, "/scan/banana/date");
  ASSERT_TRUE(bounded.has_value());
  ASSERT_EQ(bounded->status, 200);
  EXPECT_EQ(std::string(bounded->body.begin(), bounded->body.end()),
            "banana\t6\ncherry\t6\n");
  // Unbounded upper end.
  const auto open = rig.request(http::Method::get, "/scan/date/");
  ASSERT_TRUE(open.has_value());
  EXPECT_EQ(std::string(open->body.begin(), open->body.end()),
            "date\t4\nelderberry\t10\n");
}

INSTANTIATE_TEST_SUITE_P(Backends, ScanTest,
                         ::testing::Values(Backend::lsm, Backend::pktstore));

// DELETE answers the same on every backend: 204 for a hit, 404 for a
// miss (an absent key, or one already deleted).
class DeleteTest : public ::testing::TestWithParam<Backend> {};

TEST_P(DeleteTest, HitIs204MissIs404) {
  KvRig rig(GetParam());
  ASSERT_TRUE(rig.connected());

  const auto put = rig.request(http::Method::put, "/kv/fig",
                               std::vector<u8>(16, 'f'));
  ASSERT_TRUE(put.has_value());
  ASSERT_EQ(put->status, 201);
  const auto hit = rig.request(http::Method::del, "/kv/fig");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->status, 204);
  const auto again = rig.request(http::Method::del, "/kv/fig");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->status, 404);
  const auto absent = rig.request(http::Method::del, "/kv/never-written");
  ASSERT_TRUE(absent.has_value());
  EXPECT_EQ(absent->status, 404);
  const auto get = rig.request(http::Method::get, "/kv/fig");
  ASSERT_TRUE(get.has_value());
  EXPECT_EQ(get->status, 404);
}

INSTANTIATE_TEST_SUITE_P(Backends, DeleteTest,
                         ::testing::Values(Backend::lsm, Backend::pktstore));

// An unparseable response is an error both load generators report, not
// a silent stall: a raw listener answers every request with garbage.
TEST(OpenLoopClient, UnparseableResponseCountsAsError) {
  sim::Env env;
  nic::Fabric fabric(env);
  HostConfig sc;
  sc.ip = 2;
  Host server(env, fabric, sc);
  HostConfig cc;
  cc.ip = 1;
  cc.cores = 0;
  Host client_host(env, fabric, cc);
  ASSERT_TRUE(server.stack()
                  .listen(9000,
                          [](net::TcpConn& c) {
                            c.on_readable = [](net::TcpConn& conn) {
                              std::vector<u8> buf(4096);
                              while (conn.read(buf) > 0) {
                              }
                              const std::string_view junk = "NONSENSE\r\n\r\n";
                              (void)conn.send(std::span<const u8>(
                                  reinterpret_cast<const u8*>(junk.data()),
                                  junk.size()));
                            };
                          })
                  .ok());
  OpenLoopConfig oc;
  oc.server_ip = 2;
  oc.connections = 1;
  oc.rate_rps = 10'000;
  oc.connect_window_ns = 0;
  OpenLoopClient client(client_host, oc);
  client.start();
  env.engine.run_until(5 * kNsPerMs);
  EXPECT_GT(client.arrivals(), 1u);
  EXPECT_EQ(client.completed(), 0u);
  EXPECT_EQ(client.http_errors(), 1u);  // one stalled connection, once
  EXPECT_EQ(client_host.merged_metrics().counter("http.parse_errors").value(),
            1u);

  // The closed-loop client: its one connection stalls at the first
  // response, counted once.
  HostConfig wc;
  wc.ip = 3;
  wc.cores = 0;
  Host wrk_host(env, fabric, wc);
  ClientConfig ccfg;
  ccfg.server_ip = 2;
  ccfg.connections = 1;
  WrkClient wrk(wrk_host, ccfg);
  wrk.start();
  env.engine.run_until(10 * kNsPerMs);
  EXPECT_EQ(wrk.completed(), 0u);
  EXPECT_EQ(wrk.http_errors(), 1u);
  obs::MetricRegistry wm = wrk_host.merged_metrics();
  EXPECT_EQ(wm.counter("client.http_errors").value(), 1u);
  EXPECT_EQ(wm.counter("http.parse_errors").value(), 1u);
}

HostConfig client_host_config(u32 ip) {
  HostConfig c;
  c.ip = ip;
  c.cores = 0;
  return c;
}

// A raw listener that answers every GET /kv/key<k> with 200 and the
// key's value_for(seed, k, size) bytes, the last one flipped if
// `corrupt`.
void serve_values(Host& server, u64 seed, std::size_t size, bool corrupt) {
  ASSERT_TRUE(server.stack()
                  .listen(9000,
                          [=](net::TcpConn& c) {
                            c.on_readable = [=](net::TcpConn& conn) {
                              std::vector<u8> buf(4096);
                              std::string req;
                              std::size_t n;
                              while ((n = conn.read(buf)) > 0) {
                                req.append(
                                    reinterpret_cast<const char*>(buf.data()),
                                    n);
                              }
                              const std::size_t at = req.find("/kv/key");
                              if (at == std::string::npos) return;
                              http::Response resp;
                              resp.body = value_for(
                                  seed, std::stoull(req.substr(at + 7)), size);
                              if (corrupt) resp.body.back() ^= 1;
                              (void)conn.send(http::serialize(resp));
                            };
                          })
                  .ok());
}

// Both load generators byte-check every 200 GET body against the key's
// value_for() bytes: right bytes pass every check, and one flipped byte
// makes each response one HTTP error, in the closed and the open loop.
TEST(ClientCore, BothLoopsCheckEveryGetBody) {
  for (const bool corrupt : {false, true}) {
    SCOPED_TRACE(corrupt ? "corrupt" : "intact");
    sim::Env env;
    nic::Fabric fabric(env);
    HostConfig sc;
    sc.ip = 2;
    Host server(env, fabric, sc);
    serve_values(server, /*seed=*/7, /*size=*/300, corrupt);
    Host wrk_host(env, fabric, client_host_config(1));
    Host open_host(env, fabric, client_host_config(3));

    ClientConfig cc;
    cc.server_ip = 2;
    cc.connections = 2;
    cc.value_size = 300;
    cc.get_ratio = 1.0;
    cc.keyspace = 64;
    cc.seed = 7;
    WrkClient wrk(wrk_host, cc);
    OpenLoopConfig oc;
    static_cast<ClientConfig&>(oc) = cc;
    oc.rate_rps = 40'000;
    oc.connect_window_ns = 0;
    OpenLoopClient open(open_host, oc);
    wrk.start();
    open.start();
    env.engine.run_until(5 * kNsPerMs);

    for (const ClientCore* c : {static_cast<const ClientCore*>(&wrk),
                                static_cast<const ClientCore*>(&open)}) {
      EXPECT_GT(c->completed(), 20u);
      EXPECT_EQ(c->gets_checked(), c->completed());
      EXPECT_EQ(c->http_errors(), corrupt ? c->completed() : 0u);
    }
  }
}

// A GET of a key nobody has written is answered 404: a miss, counted
// under client.misses, and neither an HTTP error nor a server error.
TEST(ClientCore, GetOfUnwrittenKeyIsAMissNotAnError) {
  constexpr u32 kServerIp = 0x0a000002;  // the Testbed's server address
  Testbed tb(TestbedConfig{});
  ServerConfig scfg;
  scfg.backend = Backend::pktstore;
  KvServer& server = tb.start_server(scfg);
  Host& wrk_host = tb.add_client(0x0a000001);
  Host& open_host = tb.add_client(0x0a010000);
  ClientConfig cc;
  cc.server_ip = kServerIp;
  cc.get_ratio = 1.0;
  WrkClient wrk(wrk_host, cc);
  OpenLoopConfig oc;
  oc.server_ip = kServerIp;
  oc.connections = 1;
  oc.get_ratio = 1.0;
  oc.rate_rps = 20'000;
  oc.connect_window_ns = 0;
  OpenLoopClient open(open_host, oc);
  wrk.start();
  open.start();
  tb.env().engine.run_until(5 * kNsPerMs);

  const std::pair<const ClientCore*, Host*> loops[] = {{&wrk, &wrk_host},
                                                       {&open, &open_host}};
  for (const auto& [c, host] : loops) {
    EXPECT_GT(c->completed(), 20u);
    EXPECT_EQ(c->http_errors(), 0u);
    EXPECT_EQ(c->gets_checked(), 0u);
    EXPECT_EQ(host->merged_metrics().counter("client.misses").value(),
              c->completed());
  }
  EXPECT_EQ(server.errors(), 0u);

  // The harness's error totals leave misses out too.
  RunConfig cfg = base_config(Backend::pktstore);
  cfg.get_ratio = 1.0;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.ops, 1000u);
  EXPECT_EQ(r.server_errors, 0u);
}

// Past 16 000 connections run_openloop shards its load over two client
// hosts. Each draws its own key and arrival streams, but both PUT the
// run's values, so every GET checks out whichever host wrote the key.
TEST(Harness, OpenLoopOverTwoClientHostsChecksEveryGet) {
  OpenLoopRunConfig cfg;
  cfg.connections = 16'001;
  cfg.measure_ns = 20 * kNsPerMs;
  const OpenLoopResult r = run_openloop(cfg);
  EXPECT_GT(r.gets_checked, 1000u);
  EXPECT_EQ(r.errors, 0u);
}

// Replication with software checksums both ways. A forward's header
// carries the key, so its linear part often has odd length and each frag
// after it must be summed at its offset in the segment: a wrong sum fails
// at the backups and stalls the run without an error.
TEST(Harness, ReplicationWithSoftwareChecksumsCompletes) {
  RunConfig cfg = base_config(Backend::pktstore, 4);
  cfg.repl = true;
  cfg.measure_ns = 40 * kNsPerMs;
  cfg.nic.csum_offload_tx = false;
  cfg.nic.csum_offload_rx = false;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.ops, 1000u);
  EXPECT_GT(r.repl_acks_rx, 1000u);
  EXPECT_EQ(r.repl_retransmits, 0u);
  EXPECT_EQ(r.server_errors, 0u);
}

TEST(Harness, DeterministicForSeed) {
  const auto a = run_experiment(base_config(Backend::lsm));
  const auto b = run_experiment(base_config(Backend::lsm));
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_DOUBLE_EQ(a.rtt.mean(), b.rtt.mean());
}

}  // namespace
}  // namespace papm::app
