#include "app/rebalance.h"

#include <algorithm>
#include <vector>

namespace papm::app {

Rebalancer::Rebalancer(Host& host, KvServer& server, RebalanceConfig cfg)
    : host_(host), server_(server), cfg_(cfg) {
  obs::MetricRegistry& reg = host_.host_metrics();
  m_rounds_ = &reg.counter("rebalance.rounds");
  m_moves_ = &reg.counter("rebalance.bucket_moves");
  m_conns_moved_ = &reg.counter("rebalance.conns_moved");
}

void Rebalancer::start() {
  if (running_) return;
  running_ = true;
  // Seed the per-bucket baseline so the first tick diffs against "now",
  // not against whatever warmup traffic preceded start().
  auto& nic = host_.nic();
  for (u32 b = 0; b < nic::Nic::kIndirEntries; b++) {
    last_bucket_rx_[b] = nic.bucket_rx_frames(b);
  }
  host_.env().engine.schedule_in(kTickNs, [this] { tick(); });
}

void Rebalancer::tick() {
  if (!running_) return;
  rounds_++;
  obs::inc(m_rounds_);

  auto& nic = host_.nic();
  const u32 nq = host_.datapaths();
  u64 total = 0;
  for (u32 b = 0; b < nic::Nic::kIndirEntries; b++) {
    const u64 cur = nic.bucket_rx_frames(b);
    const u64 d = cur - last_bucket_rx_[b];
    last_bucket_rx_[b] = cur;
    total += d;
    // Smooth per-bucket load across ticks so one interval's Poisson draw
    // cannot look like skew. The first qualifying interval seeds the
    // EWMA outright (no cold-start bias toward zero).
    ewma_[b] = ewma_seeded_
                   ? kEwmaAlpha * static_cast<double>(d) +
                         (1.0 - kEwmaAlpha) * ewma_[b]
                   : static_cast<double>(d);
  }

  if (nq > 1 && total >= cfg_.min_frames_per_round) {
    ewma_seeded_ = true;
    std::vector<double> qload(nq, 0.0);
    double smoothed_total = 0.0;
    for (u32 b = 0; b < nic::Nic::kIndirEntries; b++) {
      qload[nic.indirection(b)] += ewma_[b];
      smoothed_total += ewma_[b];
    }
    for (u32 move = 0; move < kMaxMovesPerRound; move++) {
      const u32 hot = static_cast<u32>(
          std::max_element(qload.begin(), qload.end()) - qload.begin());
      const u32 cold = static_cast<u32>(
          std::min_element(qload.begin(), qload.end()) - qload.begin());
      const double mean = smoothed_total / nq;
      if (hot == cold || qload[hot] < cfg_.trigger_ratio * mean) break;
      // The largest bucket on the hot queue that fits in half the
      // hot/cold gap: moving it narrows the gap without flipping the
      // imbalance to the other side.
      const double gap = qload[hot] - qload[cold];
      u32 best = nic::Nic::kIndirEntries;
      double best_load = 0.0;
      for (u32 b = 0; b < nic::Nic::kIndirEntries; b++) {
        if (nic.indirection(b) != hot) continue;
        if (ewma_[b] <= 0.0 || ewma_[b] * 2.0 > gap) continue;
        if (best == nic::Nic::kIndirEntries || ewma_[b] > best_load) {
          best = b;
          best_load = ewma_[b];
        }
      }
      if (best == nic::Nic::kIndirEntries) break;  // one mega-bucket: stuck
      migrate_bucket(best, hot, cold);
      qload[hot] -= best_load;
      qload[cold] += best_load;
    }
  }

  host_.env().engine.schedule_in(kTickNs, [this] { tick(); });
}

void Rebalancer::migrate_bucket(u32 bucket, u32 from, u32 to) {
  if (from == to || from >= host_.datapaths() || to >= host_.datapaths()) {
    return;
  }
  auto& nic = host_.nic();
  net::TcpStack& src = host_.stack(from);
  net::TcpStack& dst = host_.stack(to);

  // Retire the source shard's open epoch first: its deferred publications
  // and held acks drain on the source core before any of the group's
  // requests can be processed on the destination — ack order per flow is
  // preserved across the handoff.
  server_.close_epoch(from);

  // The flow group = every connection whose 4-tuple hashes into `bucket`.
  // (The NIC hashes received frames as src=peer, dst=us.)
  std::vector<net::TcpConn*> moving;
  src.each_conn([&](net::TcpConn& c) {
    const u32 h = nic::rss_toeplitz(c.peer_ip(), nic.ip(), c.peer_port(),
                                    c.local_port());
    if (nic::Nic::rss_bucket_of(h) == bucket) moving.push_back(&c);
  });
  std::sort(moving.begin(), moving.end(),
            [](const net::TcpConn* a, const net::TcpConn* b) {
              return std::tuple(a->peer_ip(), a->peer_port(), a->local_port()) <
                     std::tuple(b->peer_ip(), b->peer_port(), b->local_port());
            });

  // Remap the table entry — the next received frame of the group DMAs
  // into the destination queue's pool — then hand the connection state
  // across. All of this runs inside the current event, so no packet can
  // observe a half-migrated group.
  nic.set_indirection(bucket, to);
  if (!moving.empty()) {
    host_.cpu().run_on(from, [&] {
      host_.env().clock().advance(kPerConnHandoffNs *
                                  static_cast<SimTime>(moving.size()));
    });
    host_.cpu().run_on(to, [&] {
      for (net::TcpConn* c : moving) {
        host_.env().clock().advance(kPerConnHandoffNs);
        dst.adopt(src.extract(c));
        server_.on_flow_migrated(*c, to);
      }
    });
    conns_moved_ += moving.size();
    obs::inc(m_conns_moved_, moving.size());
  }
  bucket_moves_++;
  obs::inc(m_moves_);
}

}  // namespace papm::app
