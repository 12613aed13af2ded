#include "app/client.h"

namespace papm::app {

WrkClient::WrkClient(Host& host, ClientConfig cfg)
    : host_(host), cfg_(std::move(cfg)) {
  trace_.set_track(obs::kClientTrack);
  obs::MetricRegistry& reg = host_.metrics(0);
  m_requests_ = &reg.counter("client.requests");
  m_http_errors_ = &reg.counter("client.http_errors");
  m_resp_parsed_ = &reg.counter("http.responses_parsed");
  m_parse_err_ = &reg.counter("http.parse_errors");
  m_rtt_ns_ = &reg.histogram("client.rtt_ns");
}

std::vector<u8> value_for(u64 seed, u64 key_idx, std::size_t size) {
  Rng rng(seed * 1315423911ULL + key_idx);
  std::vector<u8> v(size);
  for (auto& b : v) b = static_cast<u8>(rng.next());
  return v;
}

void WrkClient::start() {
  // Stagger connection establishment to avoid a SYN burst at t=0.
  constexpr SimTime kConnectStaggerNs = 2 * kNsPerUs;
  for (int i = 0; i < cfg_.connections; i++) {
    auto ctx = std::make_unique<ConnCtx>();
    ctx->parser.set_metrics(m_resp_parsed_, m_parse_err_);
    ctx->rng = Rng(cfg_.seed + static_cast<u64>(i) * 7919);
    if (cfg_.zipf_theta > 0.0) {
      ctx->zipf.emplace(cfg_.keyspace, cfg_.zipf_theta,
                        cfg_.seed + static_cast<u64>(i) * 104729);
    }
    ConnCtx* raw = ctx.get();
    conns_.push_back(std::move(ctx));
    host_.env().engine.schedule_in(
        static_cast<SimTime>(i) * kConnectStaggerNs, [this, raw] {
          raw->conn = host_.stack().connect(cfg_.server_ip, cfg_.port);
          raw->conn->on_established = [this, raw](net::TcpConn&) {
            issue(*raw);
          };
          raw->conn->on_readable = [this, raw](net::TcpConn&) {
            on_readable(*raw);
          };
        });
  }
}

void WrkClient::issue(ConnCtx& ctx) {
  if (stopped_ || ctx.conn == nullptr ||
      ctx.conn->state() != net::TcpState::established) {
    return;
  }
  auto& env = host_.env();
  ctx.issued_at = env.now();
  ctx.in_flight = true;
  obs::inc(m_requests_);

  const u64 key_idx = ctx.zipf.has_value() ? ctx.zipf->next()
                                           : ctx.rng.next_below(cfg_.keyspace);
  const bool is_get = ctx.rng.next_double() < cfg_.get_ratio;
  ctx.is_get = is_get;
  ctx.key_idx = key_idx;

  env.clock().advance(env.cost.scaled(env.cost.client_http_build_ns));
  http::Request req;
  req.method = is_get ? http::Method::get : http::Method::put;
  req.target = "/kv/key" + std::to_string(key_idx);
  if (!is_get) req.body = value_for(cfg_.seed, key_idx, cfg_.value_size);
  (void)ctx.conn->send(http::serialize(req));
}

void WrkClient::on_readable(ConnCtx& ctx) {
  auto& env = host_.env();
  std::size_t n;
  while ((n = ctx.conn->read(rx_buf_)) > 0) {
    if (ctx.parser.failed()) continue;  // stalled connection: drain, drop
    const auto resp = ctx.parser.feed(std::span<const u8>(rx_buf_.data(), n));
    if (!resp.has_value()) {
      // An unparseable response stalls its connection for good: count it
      // once as an error (the parser counts http.parse_errors).
      if (ctx.parser.failed()) {
        http_errors_++;
        obs::inc(m_http_errors_);
      }
      continue;
    }
    env.clock().advance(env.cost.scaled(env.cost.client_http_parse_ns));
    // Every PUT of a key carries the same bytes, so a GET that returns a
    // body must return exactly those (stores without an index answer an
    // empty 200 and are not checked). Host-side only: no simulated time.
    bool bad = resp->status >= 400;
    if (ctx.in_flight && ctx.is_get && resp->status == 200 &&
        !resp->body.empty()) {
      gets_checked_++;
      bad = resp->body != value_for(cfg_.seed, ctx.key_idx, cfg_.value_size);
    }
    if (bad) {
      http_errors_++;
      obs::inc(m_http_errors_);
    }
    if (ctx.in_flight) {
      const SimTime rtt = env.now() - ctx.issued_at;
      rtt_.add(static_cast<double>(rtt));
      completed_++;
      ctx.in_flight = false;
      obs::observe(m_rtt_ns_, rtt);
      if (tracing_) {
        trace_.record(next_req_, obs::Stage::rtt, ctx.issued_at, rtt);
      }
      next_req_++;
    }
    issue(ctx);  // closed loop: next request immediately
    return;      // one response per readable burst in practice
  }
}

}  // namespace papm::app
