// HTTP load generators (§3 methodology: "the client runs the regular
// Linux stack and wrk as the application to issue storage requests over
// one or more TCP connections and measure the end-to-end latency").
//
// ClientCore owns a client host's connections and all request work on
// them: staggered connects, the key and method draw, the request build
// and send, the response read, parse and check. Its policies decide when
// to issue: WrkClient's closed loop issues on each response,
// OpenLoopClient (openloop.h) on Poisson arrivals.
#pragma once

#include <deque>
#include <memory>
#include <optional>

#include "app/host.h"
#include "common/stats.h"
#include "http/http.h"
#include "obs/trace.h"

namespace papm::app {

// The per-key value rule: every PUT of key k carries these bytes, so
// priming, both load generators and the failover readback agree on them.
[[nodiscard]] std::vector<u8> value_for(u64 seed, u64 key_idx,
                                        std::size_t size);
// Whether `bytes` equal value_for(seed, key_idx, size), checked in place.
[[nodiscard]] bool value_matches(u64 seed, u64 key_idx, std::size_t size,
                                 std::span<const u8> bytes);

// The next whole response on `conn`, or nullopt once it has no more
// bytes. After an unparseable response `parser` stays failed and every
// later byte is drained and dropped: the connection is stalled for good.
[[nodiscard]] std::optional<http::Response> read_response(
    net::TcpConn& conn, http::ResponseParser& parser);

struct ClientConfig {
  u32 server_ip = 0;
  u16 port = 9000;
  int connections = 1;
  std::size_t value_size = 1024;
  double get_ratio = 0.0;  // fraction of GETs (after a priming PUT per key)
  u64 keyspace = 4096;
  // Key popularity skew: 0 = uniform, else Zipfian theta (e.g. 0.99,
  // the YCSB default) — hot keys exercise the update path.
  double zipf_theta = 0.0;
  u64 seed = 1;  // the run's seed: PUT values and GET checks use it
};

class ClientCore {
 public:
  ClientCore(const ClientCore&) = delete;  // callbacks hold `this`
  ClientCore& operator=(const ClientCore&) = delete;
  virtual ~ClientCore() = default;
  void start();  // requests start as each connection establishes
  void stop() noexcept { stopped_ = true; }  // in-flight requests finish

  [[nodiscard]] u64 completed() const noexcept { return completed_; }
  // Responses >= 400 but a GET's 404 (a miss: client.misses), GET bodies
  // that are not the key's value_for() bytes, and unparseable responses.
  [[nodiscard]] u64 http_errors() const noexcept { return http_errors_; }
  // 200 GETs with a body, each byte-checked (stores without an index
  // answer an empty 200).
  [[nodiscard]] u64 gets_checked() const noexcept { return gets_checked_; }

 protected:
  struct Conn {
    net::TcpConn* conn = nullptr;
    http::ResponseParser parser;
    SimTime started_at = 0;  // stamp of the request in flight
    bool in_flight = false;
    bool is_get = false;
    u64 key_idx = 0;
    Rng rng{0};
    std::optional<Zipf> zipf;
    std::deque<SimTime> pending;  // open loop: queued arrivals (FIFO)
  };

  // Connection i connects at i * `stagger` and draws its keys, methods
  // (and arrivals) from streams seeded by `stream_seed` and i.
  ClientCore(Host& host, const ClientConfig& cfg, u64 stream_seed,
             SimTime stagger);
  // Draws c's key and method, charges the build and sends, stamped
  // `start`. False, with nothing sent, unless c is established.
  bool send_request(Conn& c, SimTime start);
  void reset_core_stats();

  virtual void on_established(Conn& c) = 0;
  // c's request was answered `latency` after its stamp; !ok = an error.
  virtual void on_completed(Conn& c, bool ok, SimTime latency) = 0;
  virtual void on_response(Conn& c) = 0;  // after every response

  Host& host_;
  Stats latency_;
  bool stopped_ = false;
  // The closed loop registers both up front; otherwise the core counts
  // no parsed responses and registers http.parse_errors on first use.
  obs::Counter* m_resp_parsed_ = nullptr;
  obs::Counter* m_parse_err_ = nullptr;

 private:
  void on_readable(Conn& c);
  bool judge(const Conn& c, const http::Response& resp);  // false = error
  void count_error();

  ClientConfig cfg_;
  u64 stream_seed_;
  SimTime stagger_;
  std::vector<std::unique_ptr<Conn>> conns_;
  u64 completed_ = 0;
  u64 http_errors_ = 0;
  u64 gets_checked_ = 0;
  obs::Counter* m_http_errors_ = nullptr;
};

class WrkClient : public ClientCore {
 public:
  WrkClient(Host& host, ClientConfig cfg);

  [[nodiscard]] Stats& latencies() noexcept { return latency_; }
  void reset_stats() {
    reset_core_stats();
    trace_.clear();
  }
  // Record one rtt span per completed request (issue -> response parsed)
  // on the client track of the exported trace.
  void set_tracing(bool on) noexcept { tracing_ = on; }
  [[nodiscard]] const obs::TraceLog& trace() const noexcept { return trace_; }

 private:
  void on_established(Conn& c) override { on_response(c); }
  void on_completed(Conn& c, bool ok, SimTime rtt) override;
  void on_response(Conn& c) override;  // the closed loop: issue the next

  u64 next_req_ = 1;  // trace request ids
  bool tracing_ = false;
  obs::TraceLog trace_;
  obs::Counter* m_requests_ = nullptr;
  obs::Histogram* m_rtt_ns_ = nullptr;
};

}  // namespace papm::app
