// Open-loop (Poisson) load generator, the production-load counterpart
// of WrkClient's closed loop on the same ClientCore. A closed loop never
// overloads the server: each connection waits for its response, so the
// measured tail is a best case. Here each connection draws exponential
// interarrival gaps (a Poisson process of rate_rps / connections) that
// ignore how the server is doing; an arrival on a busy connection queues
// FIFO behind it (HTTP/1.1, no pipelining). The latency recorded is the
// sojourn time, arrival to response, queueing included; responses later
// than deadline_ns count as deadline misses. One OpenLoopClient drives
// one client host: run_openloop shards past the ephemeral-port space.
#pragma once

#include <functional>

#include "app/client.h"

namespace papm::app {

struct OpenLoopConfig : ClientConfig {
  OpenLoopConfig() {
    connections = 1000;
    value_size = 512;
    get_ratio = 0.5;
    keyspace = 16384;
  }
  double rate_rps = 50'000;  // aggregate offered load across connections
  SimTime deadline_ns = kNsPerMs;  // per-request response deadline
  // Connection setup is spread over this window so 10k+ SYNs don't land
  // in one burst (arrivals start per-connection once it establishes).
  SimTime connect_window_ns = 10 * kNsPerMs;
};

class OpenLoopClient : public ClientCore {
 public:
  // Each of a run's client hosts (`host_index`) draws its own streams;
  // PUT values derive from cfg.seed alone, so GETs check any host's PUTs.
  OpenLoopClient(Host& host, OpenLoopConfig cfg, int host_index = 0);

  // Fires on every successfully acked PUT (status < 400) with the key
  // index it wrote. The failover benches build the set of client-acked
  // writes from this — the set the promoted store must fully contain.
  std::function<void(u64 key_idx)> on_put_ok;

  [[nodiscard]] Stats& sojourns() noexcept { return latency_; }
  [[nodiscard]] u64 arrivals() const noexcept { return arrivals_; }
  [[nodiscard]] u64 deadline_misses() const noexcept { return misses_; }
  void reset_stats() {
    reset_core_stats();
    arrivals_ = misses_ = 0;
  }

 private:
  // The first arrival comes one gap after establishment.
  void on_established(Conn& c) override { schedule_arrival(c); }
  void on_completed(Conn& c, bool ok, SimTime sojourn) override;
  void on_response(Conn& c) override;  // issues the oldest queued arrival
  void schedule_arrival(Conn& c);  // one exponential gap from now
  void arrive(Conn& c);  // one Poisson arrival; schedules the next

  double mean_gap_ns_;  // per-connection mean interarrival
  SimTime deadline_ns_;
  u64 arrivals_ = 0;
  u64 misses_ = 0;
  obs::Counter* m_arrivals_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Histogram* m_sojourn_ns_ = nullptr;
};

}  // namespace papm::app
