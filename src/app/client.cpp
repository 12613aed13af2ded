#include "app/client.h"

namespace papm::app {
namespace {

constexpr SimTime kConnectStaggerNs = 2 * kNsPerUs;  // no SYN burst at t=0

Rng value_rng(u64 seed, u64 key_idx) {
  return Rng(seed * 1315423911ULL + key_idx);
}

}  // namespace

std::vector<u8> value_for(u64 seed, u64 key_idx, std::size_t size) {
  Rng rng = value_rng(seed, key_idx);
  std::vector<u8> v(size);
  for (auto& b : v) b = static_cast<u8>(rng.next());
  return v;
}

bool value_matches(u64 seed, u64 key_idx, std::size_t size,
                   std::span<const u8> bytes) {
  if (bytes.size() != size) return false;
  Rng rng = value_rng(seed, key_idx);
  for (const u8 b : bytes) {
    if (b != static_cast<u8>(rng.next())) return false;
  }
  return true;
}

std::optional<http::Response> read_response(net::TcpConn& conn,
                                            http::ResponseParser& parser) {
  thread_local std::vector<u8> scratch(4096);
  std::size_t n;
  while ((n = conn.read(scratch)) > 0) {
    if (parser.failed()) continue;  // stalled connection: drain, drop
    auto resp = parser.feed(std::span<const u8>(scratch.data(), n));
    if (resp.has_value()) return resp;
  }
  return std::nullopt;
}

ClientCore::ClientCore(Host& host, const ClientConfig& cfg, u64 stream_seed,
                       SimTime stagger)
    : host_(host), cfg_(cfg), stream_seed_(stream_seed), stagger_(stagger) {
  m_http_errors_ = &host_.metrics(0).counter("client.http_errors");
}

void ClientCore::start() {
  for (int i = 0; i < cfg_.connections; i++) {
    auto c = std::make_unique<Conn>();
    c->rng = Rng(stream_seed_ + static_cast<u64>(i) * 7919);
    if (cfg_.zipf_theta > 0.0) {
      c->zipf.emplace(cfg_.keyspace, cfg_.zipf_theta,
                      stream_seed_ + static_cast<u64>(i) * 104729);
    }
    Conn* raw = c.get();
    conns_.push_back(std::move(c));
    host_.env().engine.schedule_in(
        static_cast<SimTime>(i) * stagger_, [this, raw] {
          raw->conn = host_.stack().connect(cfg_.server_ip, cfg_.port);
          raw->conn->on_established = [this, raw](net::TcpConn&) {
            on_established(*raw);
          };
          raw->conn->on_readable = [this, raw](net::TcpConn&) {
            on_readable(*raw);
          };
        });
  }
}

bool ClientCore::send_request(Conn& c, SimTime start) {
  if (c.conn == nullptr || c.conn->state() != net::TcpState::established) {
    return false;
  }
  auto& env = host_.env();
  c.started_at = start;
  c.in_flight = true;
  c.key_idx = c.zipf.has_value() ? c.zipf->next()
                                 : c.rng.next_below(cfg_.keyspace);
  c.is_get = c.rng.next_double() < cfg_.get_ratio;

  env.clock().advance(env.cost.scaled(env.cost.client_http_build_ns));
  http::Request req;
  req.method = c.is_get ? http::Method::get : http::Method::put;
  req.target = "/kv/key" + std::to_string(c.key_idx);
  if (!c.is_get) req.body = value_for(cfg_.seed, c.key_idx, cfg_.value_size);
  (void)c.conn->send(http::serialize(req));
  return true;
}

void ClientCore::reset_core_stats() {
  latency_.clear();
  completed_ = http_errors_ = gets_checked_ = 0;
}

void ClientCore::on_readable(Conn& c) {
  const bool stalled = c.parser.failed();
  const auto resp = read_response(*c.conn, c.parser);
  if (!stalled && c.parser.failed()) {  // counted once: it stalls c
    count_error();
    if (m_parse_err_ == nullptr) {
      m_parse_err_ = &host_.metrics(0).counter("http.parse_errors");
    }
    obs::inc(m_parse_err_);
  }
  if (!resp.has_value()) return;
  obs::inc(m_resp_parsed_);
  auto& env = host_.env();
  env.clock().advance(env.cost.scaled(env.cost.client_http_parse_ns));
  const bool ok = judge(c, *resp);
  if (c.in_flight) {
    const SimTime latency = env.now() - c.started_at;
    latency_.add(static_cast<double>(latency));
    completed_++;
    c.in_flight = false;
    on_completed(c, ok, latency);
  }
  on_response(c);  // later bytes wait for the next readable callback
}

bool ClientCore::judge(const Conn& c, const http::Response& resp) {
  const bool get = c.in_flight && c.is_get;
  if (get && resp.status == 404) {  // a key no PUT has written yet
    obs::inc(&host_.metrics(0).counter("client.misses"));
    return true;
  }
  bool ok = resp.status < 400;
  if (get && resp.status == 200 && !resp.body.empty()) {
    // Every PUT of a key carries the same bytes. Host-side only: the
    // check charges no simulated time.
    gets_checked_++;
    ok = value_matches(cfg_.seed, c.key_idx, cfg_.value_size, resp.body);
  }
  if (!ok) count_error();
  return ok;
}

void ClientCore::count_error() {
  http_errors_++;
  obs::inc(m_http_errors_);
}

WrkClient::WrkClient(Host& host, ClientConfig cfg)
    : ClientCore(host, cfg, cfg.seed, kConnectStaggerNs) {
  trace_.set_track(obs::kClientTrack);
  obs::MetricRegistry& reg = host_.metrics(0);
  m_requests_ = &reg.counter("client.requests");
  m_resp_parsed_ = &reg.counter("http.responses_parsed");
  m_parse_err_ = &reg.counter("http.parse_errors");
  m_rtt_ns_ = &reg.histogram("client.rtt_ns");
}

void WrkClient::on_response(Conn& c) {
  if (!stopped_ && send_request(c, host_.env().now())) obs::inc(m_requests_);
}

void WrkClient::on_completed(Conn& c, bool /*ok*/, SimTime rtt) {
  obs::observe(m_rtt_ns_, rtt);
  if (tracing_) trace_.record(next_req_, obs::Stage::rtt, c.started_at, rtt);
  next_req_++;
}

}  // namespace papm::app
