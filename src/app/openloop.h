// Open-loop (Poisson) load generator — the production-load counterpart
// of WrkClient's closed loop.
//
// A closed loop can never overload the server: every connection waits
// for its response before issuing again, so latency feedback throttles
// the offered load and the measured tail is a best case. Serving
// millions of users looks different — arrivals come from independent
// sources at an *offered* rate that does not care how the server is
// doing. This client models that: each connection draws exponential
// interarrival gaps (a Poisson process of rate_rps / connections), and
// an arrival whose connection still has a request outstanding queues
// FIFO behind it (HTTP/1.1, no pipelining). The recorded latency is the
// *sojourn time* — arrival to response, including the time spent queued
// client-side — which is what a user experiences, and each request
// carries a deadline; responses later than deadline_ns count as misses.
//
// One OpenLoopClient drives one client host. The u16 ephemeral-port
// space caps a host at ~32k connections; bench_openloop shards bigger
// sweeps across several client hosts (distinct IPs) and merges their
// Stats.
#pragma once

#include <deque>
#include <memory>
#include <optional>

#include "app/host.h"
#include "common/stats.h"
#include "http/http.h"

namespace papm::app {

struct OpenLoopConfig {
  u32 server_ip = 0;
  u16 port = 9000;
  int connections = 1000;
  double rate_rps = 50'000;  // aggregate offered load across connections
  std::size_t value_size = 512;
  double get_ratio = 0.5;  // fraction of GETs
  u64 keyspace = 16384;
  double zipf_theta = 0.0;
  u64 seed = 1;
  SimTime deadline_ns = kNsPerMs;  // per-request response deadline
  // Connection setup is spread over this window so 10k+ SYNs don't land
  // in one burst (arrivals start per-connection once it establishes).
  SimTime connect_window_ns = 10 * kNsPerMs;
};

class OpenLoopClient {
 public:
  OpenLoopClient(Host& host, OpenLoopConfig cfg);

  // Fires on every successfully acked PUT (status < 400) with the key
  // index it wrote. The failover benches build the set of client-acked
  // writes from this — the set the promoted store must fully contain.
  std::function<void(u64 key_idx)> on_put_ok;

  void start();
  // Stops generating arrivals; queued and in-flight requests finish.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] Stats& sojourns() noexcept { return sojourn_; }
  [[nodiscard]] u64 arrivals() const noexcept { return arrivals_; }
  [[nodiscard]] u64 completed() const noexcept { return completed_; }
  [[nodiscard]] u64 deadline_misses() const noexcept { return misses_; }
  // Responses with status >= 400, plus unparseable responses (each
  // stalls its connection for the rest of the run).
  [[nodiscard]] u64 http_errors() const noexcept { return http_errors_; }
  void reset_stats() {
    sojourn_.clear();
    arrivals_ = 0;
    completed_ = 0;
    misses_ = 0;
    http_errors_ = 0;
  }

 private:
  struct ConnCtx {
    net::TcpConn* conn = nullptr;
    http::ResponseParser parser;
    bool in_flight = false;
    SimTime current_arrival = 0;   // arrival stamp of the in-flight request
    u64 current_key = 0;           // key index of the in-flight request
    bool current_is_put = false;
    std::deque<SimTime> pending;   // arrivals queued behind it (FIFO)
    Rng rng{0};
    std::optional<Zipf> zipf;
  };

  void arrive(ConnCtx& ctx);       // one Poisson arrival; schedules the next
  void issue(ConnCtx& ctx, SimTime arrival);
  void on_readable(ConnCtx& ctx);

  Host& host_;
  OpenLoopConfig cfg_;
  double mean_gap_ns_ = 0;  // per-connection mean interarrival
  std::vector<std::unique_ptr<ConnCtx>> conns_;
  std::vector<u8> rx_buf_ = std::vector<u8>(4096);  // on_readable scratch
  Stats sojourn_;
  u64 arrivals_ = 0;
  u64 completed_ = 0;
  u64 misses_ = 0;
  u64 http_errors_ = 0;
  bool stopped_ = false;
  obs::Counter* m_arrivals_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_http_errors_ = nullptr;
  obs::Histogram* m_sojourn_ns_ = nullptr;
};

}  // namespace papm::app
