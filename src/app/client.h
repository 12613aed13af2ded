// wrk-like closed-loop load generator (§3 methodology: "the client runs
// the regular Linux stack and wrk as the application to issue storage
// requests over one or more TCP connections and measure the end-to-end
// latency").
//
// Each connection runs a closed loop: issue a request, wait for the full
// response, record the application-level RTT, issue the next. Keys are
// drawn uniformly from a key space; values are deterministic per key.
#pragma once

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
  u64 seed = 1;
};

class WrkClient {
 public:
  WrkClient(Host& host, ClientConfig cfg);

  // Opens the connections and starts issuing once each establishes.
  void start();

  // Stops issuing new requests (in-flight ones finish).
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] Stats& latencies() noexcept { return rtt_; }
  [[nodiscard]] u64 completed() const noexcept { return completed_; }
  [[nodiscard]] u64 http_errors() const noexcept { return http_errors_; }
  // GETs answered 200 with a body, each compared byte for byte with the
  // key's value_for() bytes; a mismatch also counts as an HTTP error.
  [[nodiscard]] u64 gets_checked() const noexcept { return gets_checked_; }
  void reset_stats() {
    rtt_.clear();
    completed_ = 0;
    http_errors_ = 0;
    gets_checked_ = 0;
    trace_.clear();
  }

  // Record one rtt span per completed request (issue -> response parsed)
  // on the client track of the exported trace.
  void set_tracing(bool on) noexcept { tracing_ = on; }
  [[nodiscard]] const obs::TraceLog& trace() const noexcept { return trace_; }

 private:
  struct ConnCtx {
    net::TcpConn* conn = nullptr;
    http::ResponseParser parser;
    SimTime issued_at = 0;
    bool in_flight = false;
    bool is_get = false;  // the request in flight
    u64 key_idx = 0;
    Rng rng{0};
    std::optional<Zipf> zipf;
  };

  void issue(ConnCtx& ctx);
  void on_readable(ConnCtx& ctx);

  Host& host_;
  ClientConfig cfg_;
  std::vector<std::unique_ptr<ConnCtx>> conns_;
  std::vector<u8> rx_buf_ = std::vector<u8>(4096);  // on_readable scratch
  Stats rtt_;
  u64 completed_ = 0;
  u64 http_errors_ = 0;
  u64 gets_checked_ = 0;
  u64 next_req_ = 1;  // trace request ids
  bool stopped_ = false;
  bool tracing_ = false;
  obs::TraceLog trace_;
  // Cached registrations in the client host's shard-0 registry.
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_http_errors_ = nullptr;
  obs::Counter* m_resp_parsed_ = nullptr;
  obs::Counter* m_parse_err_ = nullptr;
  obs::Histogram* m_rtt_ns_ = nullptr;
};

}  // namespace papm::app
