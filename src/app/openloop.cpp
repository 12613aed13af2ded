#include "app/openloop.h"

#include <algorithm>

namespace papm::app {
namespace {

// Seed offset between the draw streams of a run's client hosts.
constexpr u64 kHostSeedStride = 86243;

}  // namespace

OpenLoopClient::OpenLoopClient(Host& host, OpenLoopConfig cfg, int host_index)
    : ClientCore(host, cfg,
                 cfg.seed + static_cast<u64>(host_index) * kHostSeedStride,
                 cfg.connect_window_ns / std::max(1, cfg.connections)),
      mean_gap_ns_(1e9 / std::max(cfg.rate_rps / std::max(1, cfg.connections),
                                  1e-9)),
      deadline_ns_(cfg.deadline_ns) {
  obs::MetricRegistry& reg = host_.metrics(0);
  m_arrivals_ = &reg.counter("client.arrivals");
  m_completed_ = &reg.counter("client.requests");
  m_misses_ = &reg.counter("client.deadline_misses");
  m_sojourn_ns_ = &reg.histogram("client.sojourn_ns");
}

void OpenLoopClient::schedule_arrival(Conn& c) {
  host_.env().engine.schedule_in(
      static_cast<SimTime>(c.rng.next_exponential(mean_gap_ns_)),
      [this, &c] { arrive(c); });
}

void OpenLoopClient::arrive(Conn& c) {
  if (stopped_) return;
  const SimTime now = host_.env().now();
  // The successor is scheduled first, anchored at this arrival, so the
  // offered load stays an exact Poisson process however long requests
  // take.
  schedule_arrival(c);
  arrivals_++;
  obs::inc(m_arrivals_);
  if (c.in_flight) {
    c.pending.push_back(now);  // waits its turn; the wait is sojourn too
    return;
  }
  // Charged to the client machine's CPU scope, not the global event
  // clock, which would dilate the whole timeline at high arrival rates.
  host_.cpu().run([&] { (void)send_request(c, now); });
}

void OpenLoopClient::on_completed(Conn& c, bool ok, SimTime sojourn) {
  if (ok && !c.is_get && on_put_ok) on_put_ok(c.key_idx);
  obs::inc(m_completed_);
  obs::observe(m_sojourn_ns_, sojourn);
  if (sojourn > deadline_ns_) {
    misses_++;
    obs::inc(m_misses_);
  }
}

void OpenLoopClient::on_response(Conn& c) {
  if (c.pending.empty()) return;
  const SimTime arrival = c.pending.front();
  c.pending.pop_front();
  (void)send_request(c, arrival);
}

}  // namespace papm::app
