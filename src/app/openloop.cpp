#include "app/openloop.h"

#include "app/client.h"

namespace papm::app {

OpenLoopClient::OpenLoopClient(Host& host, OpenLoopConfig cfg)
    : host_(host), cfg_(std::move(cfg)) {
  const double per_conn_rate =
      cfg_.rate_rps / std::max(1, cfg_.connections);
  mean_gap_ns_ = 1e9 / std::max(per_conn_rate, 1e-9);
  obs::MetricRegistry& reg = host_.metrics(0);
  m_arrivals_ = &reg.counter("client.arrivals");
  m_completed_ = &reg.counter("client.requests");
  m_misses_ = &reg.counter("client.deadline_misses");
  m_http_errors_ = &reg.counter("client.http_errors");
  m_sojourn_ns_ = &reg.histogram("client.sojourn_ns");
}

void OpenLoopClient::start() {
  const SimTime stagger =
      cfg_.connect_window_ns / std::max(1, cfg_.connections);
  for (int i = 0; i < cfg_.connections; i++) {
    auto ctx = std::make_unique<ConnCtx>();
    ctx->rng = Rng(cfg_.seed + static_cast<u64>(i) * 7919);
    if (cfg_.zipf_theta > 0.0) {
      ctx->zipf.emplace(cfg_.keyspace, cfg_.zipf_theta,
                        cfg_.seed + static_cast<u64>(i) * 104729);
    }
    ConnCtx* raw = ctx.get();
    conns_.push_back(std::move(ctx));
    host_.env().engine.schedule_in(
        static_cast<SimTime>(i) * stagger, [this, raw] {
          raw->conn = host_.stack().connect(cfg_.server_ip, cfg_.port);
          raw->conn->on_established = [this, raw](net::TcpConn&) {
            // The Poisson process starts one gap after establishment —
            // connections don't all fire their first request at once.
            host_.env().engine.schedule_in(
                static_cast<SimTime>(raw->rng.next_exponential(mean_gap_ns_)),
                [this, raw] { arrive(*raw); });
          };
          raw->conn->on_readable = [this, raw](net::TcpConn&) {
            on_readable(*raw);
          };
        });
  }
}

void OpenLoopClient::arrive(ConnCtx& ctx) {
  if (stopped_) return;
  const SimTime now = host_.env().now();
  // Open loop: the successor is scheduled first, anchored at this
  // arrival's own timestamp — before any CPU work is charged — so the
  // offered-load process stays an exact Poisson process no matter how
  // long request processing takes.
  host_.env().engine.schedule_in(
      static_cast<SimTime>(ctx.rng.next_exponential(mean_gap_ns_)),
      [this, &ctx] { arrive(ctx); });
  arrivals_++;
  obs::inc(m_arrivals_);
  if (!ctx.in_flight) {
    // Issue through the host CPU so build/send work is charged to the
    // client machine (a scope), not to the global event clock — raw
    // advances here would dilate the whole simulation's timeline at
    // high aggregate arrival rates.
    host_.cpu().run([&] { issue(ctx, now); });
  } else {
    // The connection is busy: the request waits its turn (and the wait
    // counts toward its sojourn time).
    ctx.pending.push_back(now);
  }
}

void OpenLoopClient::issue(ConnCtx& ctx, SimTime arrival) {
  if (ctx.conn == nullptr ||
      ctx.conn->state() != net::TcpState::established) {
    return;
  }
  auto& env = host_.env();
  ctx.current_arrival = arrival;
  ctx.in_flight = true;

  const u64 key_idx = ctx.zipf.has_value() ? ctx.zipf->next()
                                           : ctx.rng.next_below(cfg_.keyspace);
  const bool is_get = ctx.rng.next_double() < cfg_.get_ratio;
  ctx.current_key = key_idx;
  ctx.current_is_put = !is_get;

  env.clock().advance(env.cost.scaled(env.cost.client_http_build_ns));
  http::Request req;
  req.method = is_get ? http::Method::get : http::Method::put;
  req.target = "/kv/key" + std::to_string(key_idx);
  if (!is_get) req.body = value_for(cfg_.seed, key_idx, cfg_.value_size);
  (void)ctx.conn->send(http::serialize(req));
}

void OpenLoopClient::on_readable(ConnCtx& ctx) {
  auto& env = host_.env();
  std::size_t n;
  while ((n = ctx.conn->read(rx_buf_)) > 0) {
    if (ctx.parser.failed()) continue;  // stalled connection: drain, drop
    const auto resp = ctx.parser.feed(std::span<const u8>(rx_buf_.data(), n));
    if (!resp.has_value()) {
      // An unparseable response stalls its connection for good: count it
      // once, as an error and (registered on first use, as the server
      // does) under http.parse_errors.
      if (ctx.parser.failed()) {
        http_errors_++;
        obs::inc(m_http_errors_);
        obs::inc(&host_.metrics(0).counter("http.parse_errors"));
      }
      continue;
    }
    env.clock().advance(env.cost.scaled(env.cost.client_http_parse_ns));
    if (resp->status >= 400) {
      http_errors_++;
      obs::inc(m_http_errors_);
    }
    if (ctx.in_flight) {
      const SimTime sojourn = env.now() - ctx.current_arrival;
      sojourn_.add(static_cast<double>(sojourn));
      completed_++;
      ctx.in_flight = false;
      if (resp->status < 400 && ctx.current_is_put && on_put_ok) {
        on_put_ok(ctx.current_key);
      }
      obs::inc(m_completed_);
      obs::observe(m_sojourn_ns_, sojourn);
      if (sojourn > cfg_.deadline_ns) {
        misses_++;
        obs::inc(m_misses_);
      }
    }
    // Drain the FIFO of arrivals that queued while this one was out.
    if (!ctx.pending.empty()) {
      const SimTime next_arrival = ctx.pending.front();
      ctx.pending.pop_front();
      issue(ctx, next_arrival);
    }
    return;  // one response per readable burst in practice
  }
}

}  // namespace papm::app
