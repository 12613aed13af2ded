#include "app/server.h"

#include <algorithm>
#include <bit>
#include <map>
#include <stdexcept>

#include "obs/export.h"

namespace papm::app {

namespace {

std::string shard_name(std::string_view base, u32 shard) {
  return shard == 0 ? std::string(base)
                    : std::string(base) + ".s" + std::to_string(shard);
}

}  // namespace

KvServer::KvServer(Host& host, const ServerConfig& cfg)
    : host_(host), cfg_(cfg) {
  if (host_.datapaths() > 64) {
    throw std::runtime_error(
        "KvServer: the key directory spans at most 64 shards");
  }
  shards_.resize(host_.datapaths());
  for (u32 i = 0; i < host_.datapaths(); i++) {
    Shard& sh = shards_[i];
    obs::MetricRegistry& reg = host_.metrics(i);
    sh.m_requests = &reg.counter("server.requests");
    sh.m_errors = &reg.counter("server.errors");
    sh.m_parsed = &reg.counter("http.requests_parsed");
    sh.m_req_ns = &reg.histogram("server.req_ns");
    // Group/epoch commit rides the stores' batcher hooks. The policy
    // travels in StoreKnobs for both indexed backends (pkt_opts carries no
    // persistence policy of its own); timer-driven closes run on the
    // shard's core.
    if (host_.pm_backed() &&
        (cfg.backend == Backend::lsm || cfg.backend == Backend::pktstore)) {
      sh.batcher = std::make_unique<pm::FlushBatcher>(host_.pm_device(),
                                                      cfg.knobs.group_commit);
      sh.batcher->register_pool(host_.pm_pool(i));
      sh.batcher->attach_cpu(host_.cpu(), i);
    }
    switch (cfg.backend) {
      case Backend::discard:
        break;
      case Backend::raw_persist: {
        auto r = host_.pm_pool(i).alloc(kRawRegion);
        if (!r.ok()) throw std::runtime_error("KvServer: no PM for raw region");
        sh.raw_region = r.value();
        break;
      }
      case Backend::lsm: {
        // Carve a dedicated region for the store's own PM allocator, which
        // charges general-allocator prices (Table 1 alloc+insert row) —
        // unlike the packet pool's freelist prices. On a sharded host the
        // span adapts to the shard's slice of the device (never more than
        // half, so packet buffers keep room).
        constexpr u64 kStoreSpan = 192u << 20;
        const u64 carve =
            std::min<u64>(kStoreSpan, host_.pm_pool(i).capacity() / 2) /
            kCacheLine * kCacheLine;
        auto span = host_.pm_pool(i).alloc(carve);
        if (!span.ok()) throw std::runtime_error("KvServer: no PM for store");
        sh.store_pool = pm::PmPool::create(
            host_.pm_device(), shard_name("storepool", i),
            align_up(span.value(), kCacheLine), carve - kCacheLine);
        sh.batcher->register_pool(*sh.store_pool);
        storage::LsmOptions o;
        o.knobs = cfg.knobs;
        o.use_wal = cfg.lsm_wal;
        auto lsm = std::make_unique<storage::LsmStore>(storage::LsmStore::create(
            host_.pm_device(), *sh.store_pool, shard_name("db", i), o));
        lsm->set_batcher(*sh.batcher);
        lsm->set_metrics(&reg);
        sh.store = std::move(lsm);
        break;
      }
      case Backend::pktstore: {
        auto pkt = std::make_unique<core::PktStore>(core::PktStore::create(
            host_.pool(i), shard_name("store", i), cfg.pkt_opts));
        pkt->set_batcher(*sh.batcher);
        pkt->set_metrics(&reg);
        sh.store = std::move(pkt);
        break;
      }
    }
    // Telemetry plane (all runtime opt-in, off by default).
    if (cfg.trace_capacity != 0) {
      host_.trace(i).set_capacity(cfg.trace_capacity);
      host_.trace(i).set_dropped_counter(&reg.counter("obs.trace_dropped"));
    }
    if (cfg.admin) sh.m_admin = &reg.counter("admin.requests");
    if (cfg.flight_recorder && host_.pm_backed()) {
      constexpr u32 kFlightrecCapacity = 4096;  // records per shard ring
      auto fr = obs::FlightRecorder::create(
          host_.pm_device(), host_.pm_pool(i), static_cast<u16>(i),
          kFlightrecCapacity);
      if (!fr.ok()) {
        throw std::runtime_error("KvServer: no PM for flight recorder");
      }
      sh.flightrec.emplace(std::move(fr.value()));
      if (sh.store != nullptr) sh.flightrec->set_batcher(*sh.batcher);
      sh.flightrec->set_metrics(&reg);
    }
    const Status st = host_.stack(i).listen(
        cfg.port, [this, i](net::TcpConn& c) { on_accept(c, i); });
    if (!st.ok()) throw std::runtime_error("KvServer: listen failed");
  }
}

void KvServer::on_accept(net::TcpConn& conn, u32 shard) {
  auto& owned = conns_[conn_key(&conn)];
  owned = std::make_unique<ConnState>();
  ConnState& st = *owned;
  st.shard = shard;
  conn.on_readable = [this, &st](net::TcpConn& c) { on_readable(c, st); };
  conn.on_closed = [this](net::TcpConn& c) {
    // A closed connection may still see a data segment (one that also
    // acks our FIN): the hook must not outlive the state it points at.
    c.on_readable = nullptr;
    if (const auto st = conns_.take(conn_key(&c))) {
      for (auto* pb : st->pkts) net::PktBufPool::release(pb);
      if (c.zc_dropped() != 0) {
        truncated_responses_ += c.zc_dropped();
        // Registered on first use, so runs that truncate nothing keep
        // their metric dumps unchanged.
        host_.metrics(st->shard)
            .counter("server.truncated_responses")
            .add(c.zc_dropped());
      }
    }
  };
}

http::RequestHead::Status KvServer::try_parse_head(ConnState& st) {
  using HeadStatus = http::RequestHead::Status;
  if (st.pkts.empty()) return HeadStatus::incomplete;
  // Fast path: head within the first segment (always true for the
  // paper's request sizes; requests are not pipelined).
  net::PktBuf* first = st.pkts[0];
  const auto payload = first->owner->payload(*first);
  const std::string_view view(reinterpret_cast<const char*>(payload.data()),
                              payload.size());
  auto& env = host_.env();
  const SimTime t0 = env.now();
  env.clock().advance(env.cost.scaled(env.cost.server_http_parse_ns));
  http::RequestHead head = http::parse_request_head(view);
  // A head split across segments: parse over the first kMaxHeadBytes
  // gathered from all of them. `gathered` outlives the parse; the key is
  // copied out below.
  std::string gathered;
  if (head.status == HeadStatus::incomplete && st.pkts.size() > 1) {
    for (net::PktBuf* pb : st.pkts) {
      const auto p = pb->owner->payload(*pb);
      const std::size_t n = std::min(p.size(), kMaxHeadBytes - gathered.size());
      gathered.append(reinterpret_cast<const char*>(p.data()), n);
      if (gathered.size() == kMaxHeadBytes) break;
    }
    env.clock().advance(env.cost.copy_cost(gathered.size()));
    head = http::parse_request_head(gathered);
  }
  if (head.status != HeadStatus::complete) return head.status;
  st.parse_ts = t0;
  st.parse_dur = env.now() - t0;
  obs::inc(shards_[st.shard].m_parsed);
  st.head_parsed = true;
  st.method = head.method;
  std::string_view key = head.target;
  if (key.starts_with("/kv/")) key.remove_prefix(4);
  st.key = std::string(key);
  st.head_len = head.head_len;
  st.body_len = head.body_len;
  return head.status;
}

void KvServer::reject(net::TcpConn& conn, ConnState& st, int status) {
  Shard& sh = shards_[st.shard];
  errors_++;
  obs::inc(sh.m_errors);
  // Registered on first use: a clean run's metrics carry no such row.
  if (status == 400) {
    obs::inc(&host_.metrics(st.shard).counter("http.parse_errors"));
  }
  respond(conn, status);
  for (net::PktBuf* pb : st.pkts) net::PktBufPool::release(pb);
  // Segments may still arrive on this connection before the close
  // completes; with the hook gone they are dropped instead of reaching
  // the erased state.
  conn.on_readable = nullptr;
  conns_.erase(conn_key(&conn));  // `st` dies here
  conn.close();
}

void KvServer::on_flow_migrated(net::TcpConn& conn, u32 new_shard) {
  const auto* st = conns_.find(conn_key(&conn));
  if (st == nullptr || new_shard >= shards_.size()) return;
  // Buffered segments keep their old-pool buffers until the store re-homes
  // them (PktStore::put_pkts) or reads them owner-routed (lsm/raw).
  (*st)->shard = new_shard;
}

bool KvServer::prime(std::string_view key, std::span<const u8> value) {
  // Spread keys across shards with a seed-free FNV-1a so priming is
  // deterministic across runs and builds (std::hash makes no such
  // promise).
  u64 h = 1469598103934665603ull;
  for (const char c : key) h = (h ^ static_cast<u8>(c)) * 1099511628211ull;
  const auto shard = static_cast<u32>(h % shards_.size());
  Shard& sh = shards_[shard];
  // Discard the charged store time: collect it into a scope the caller
  // never reads, so the global clock (and the shard cores) stay put.
  SimTime discarded = 0;
  auto& clk = host_.env().clock();
  // Close the scope even if the backend put throws (a fault plan can cut
  // the device mid-prime); a leaked scope leaves the clock reading the
  // dead `discarded` frame slot.
  struct ScopeCloser {
    sim::Clock* clk;
    ~ScopeCloser() { clk->end_scope(); }
  };
  clk.begin_scope(host_.env().now(), &discarded);
  const ScopeCloser closer{&clk};
  // Nothing to index without a store; GETs are not served from those.
  if (sh.store == nullptr) return true;
  if (!sh.store->put_bytes(key, value).ok()) return false;
  if (has_directory()) dir_note_write(key, shard);
  return true;
}

KvServer::Directory::iterator KvServer::dir_find(std::string_view key) {
  auto& env = host_.env();
  env.clock().advance(env.cost.dram_read_ns);
  return dir_.find(key);
}

void KvServer::dir_note_write(std::string_view key, u32 shard) {
  auto& env = host_.env();
  env.clock().advance(env.cost.dram_write_ns);
  auto it = dir_.find(key);
  if (it == dir_.end()) it = dir_.emplace(std::string(key), DirEntry{}).first;
  it->second.shards |= u64{1} << shard;
  it->second.last = shard;
}

void KvServer::gate_release(const std::shared_ptr<ReplGate>& g) {
  if (!g->local || !g->remote || g->fired) return;
  g->fired = true;
  repl_gated_ops_++;
  // The tax is the wait *beyond local readiness*: without replication
  // the ack leaves at local_at (put done, or epoch committed under group
  // commit), so only the remote wait past that point is added latency.
  // Quorum acks that beat the local epoch commit cost nothing.
  const SimTime end = std::max(g->remote_at, g->local_at);
  if (g->remote_at > g->local_at) repl_tax_ns_ += g->remote_at - g->local_at;
  if (g->traced && end > g->local_at) {
    // The replication stage of this request: locally ready -> released.
    host_.trace(g->shard).record(g->req, obs::Stage::repl, g->local_at,
                                 end - g->local_at);
  }
  // The connection may have closed while its ack waited on the quorum.
  if (open(g->conn)) respond(*g->conn, g->status);
}

void KvServer::close_epoch(u32 shard) {
  Shard& sh = shards_[shard];
  if (sh.store != nullptr) sh.batcher->close_on_core();
}

void KvServer::on_readable(net::TcpConn& conn, ConnState& st) {
  const std::size_t had = st.pkts.size();
  conn.read_pkts(st.pkts);
  if (had == 0 && !st.pkts.empty()) {
    st.rx_start = st.pkts[0]->tstamp;  // NIC ingress stamp
  }
  for (std::size_t i = had; i < st.pkts.size(); i++) {
    st.have_bytes += st.pkts[i]->payload_len();
  }
  if (!st.head_parsed) {
    switch (try_parse_head(st)) {
      case http::RequestHead::Status::complete:
        break;
      case http::RequestHead::Status::incomplete:
        // No terminator within the cap: answer, do not buffer forever.
        if (st.have_bytes >= kMaxHeadBytes) reject(conn, st, 431);
        return;
      case http::RequestHead::Status::malformed:
        reject(conn, st, 400);
        return;
    }
    // raw_persist writes a body into its PM region in one piece; refuse
    // one that cannot fit before buffering any of it.
    if (cfg_.backend == Backend::raw_persist &&
        st.method == http::Method::put && st.body_len > kRawRegion) {
      reject(conn, st, 413);
      return;
    }
  }
  if (st.have_bytes < st.head_len + st.body_len) return;  // body incomplete
  dispatch(conn, st);
}

bool KvServer::admin_dispatch(net::TcpConn& conn, ConnState& st) {
  if (!cfg_.admin) return false;
  if (st.method != http::Method::get) return false;
  const bool trace_recent = st.key.starts_with("/trace/recent");
  if (st.key != "/stats" && st.key != "/metrics" && !trace_recent) {
    return false;
  }
  auto& env = host_.env();

  // Snapshot via the registries' associative merge — the datapath shards
  // are never locked or paused; the admin request pays for its own copy.
  std::string body;
  if (st.key == "/metrics") {
    body = obs::prometheus_text(host_.merged_metrics());
  } else if (trace_recent) {
    body = obs::trace_recent_json(host_.merged_trace(), kTraceRecent);
  } else {
    const obs::MetricRegistry merged = host_.merged_metrics();
    body = "{\"now_ns\": " + std::to_string(env.now()) +
           ", \"ops\": " + std::to_string(ops_) +
           ", \"errors\": " + std::to_string(errors_) +
           ", \"admin_requests\": " + std::to_string(admin_requests_) +
           ", \"shards\": " + std::to_string(shards_.size()) +
           ", \"shard_requests\": [";
    for (std::size_t i = 0; i < shards_.size(); i++) {
      body += (i == 0 ? "" : ", ") + std::to_string(shards_[i].requests);
    }
    body += "], \"flightrec_records\": " + std::to_string(flightrec_records()) +
            ", \"flightrec_wraps\": " + std::to_string(flightrec_wraps()) +
            ", \"metrics\": " + merged.to_json() + "}";
  }
  // The snapshot assembly is real work on this shard's core — sequential
  // DRAM string building, charged at the streaming rate (a PM-copy rate
  // here would bill telemetry like datapath persistence and blow the
  // 1%-of-p99 admin budget on every /trace/recent hit).
  env.clock().advance(env.cost.stream_cost(body.size()));
  admin_requests_++;
  obs::inc(shards_[st.shard].m_admin);
  respond(conn, 200,
          std::span<const u8>(reinterpret_cast<const u8*>(body.data()),
                              body.size()));

  for (net::PktBuf* pb : st.pkts) net::PktBufPool::release(pb);
  st.reset();
  return true;
}

void KvServer::flight_record(ConnState& st, const storage::OpBreakdown& bd,
                             u64 req, int status) {
  Shard& sh = shards_[st.shard];
  if (!sh.flightrec.has_value()) return;
  const auto ns32 = [](SimTime ns) {
    return ns <= 0 ? 0u
                   : static_cast<u32>(std::min<SimTime>(ns, 0xffffffff));
  };
  obs::FlightRecord fr;
  fr.req = req;
  fr.t0_ns = static_cast<u64>(st.rx_start);
  fr.epoch = sh.store != nullptr && sh.batcher->batching()
                 ? sh.batcher->epoch_serial()
                 : 0;
  if (st.rx_start != 0 && st.parse_ts >= st.rx_start) {
    fr.stage_ns[static_cast<int>(obs::Stage::rx)] =
        ns32(st.parse_ts - st.rx_start);
  }
  fr.stage_ns[static_cast<int>(obs::Stage::parse)] =
      ns32(st.parse_dur) + ns32(bd.prep_ns);
  fr.stage_ns[static_cast<int>(obs::Stage::checksum)] = ns32(bd.checksum_ns);
  fr.stage_ns[static_cast<int>(obs::Stage::slice)] = ns32(bd.slice_ns);
  fr.stage_ns[static_cast<int>(obs::Stage::copy)] = ns32(bd.copy_ns);
  fr.stage_ns[static_cast<int>(obs::Stage::alloc_index)] =
      ns32(bd.alloc_insert_ns);
  fr.stage_ns[static_cast<int>(obs::Stage::nic_insert)] =
      ns32(bd.nic_insert_ns);
  fr.stage_ns[static_cast<int>(obs::Stage::persist)] = ns32(bd.persist_ns);
  fr.result = static_cast<u16>(status);
  switch (st.method) {
    case http::Method::put: fr.op = 'P'; break;
    case http::Method::get: fr.op = 'G'; break;
    case http::Method::del: fr.op = 'D'; break;
    default: fr.op = '?'; break;
  }
  sh.flightrec->append(fr);
}

void KvServer::raw_persist(Shard& sh, const ConnState& st,
                           storage::OpBreakdown& bd) {
  // The Fig. 2 "simple application that copies and persists data in the
  // PM region": one copy + one flush, no structure. The head parse
  // refused bodies larger than the region.
  auto& env = host_.env();
  if (sh.raw_off + st.body_len > kRawRegion) sh.raw_off = 0;
  auto& dev = host_.pm_device();
  std::size_t skip = st.head_len;
  std::size_t left = st.body_len;
  u64 at = sh.raw_region + sh.raw_off;
  const SimTime t0 = env.now();
  for (net::PktBuf* pb : st.pkts) {
    if (left == 0) break;
    const auto p = pb->owner->payload(*pb);
    if (skip >= p.size()) {
      skip -= p.size();
      continue;
    }
    const auto chunk = p.subspan(skip, std::min(p.size() - skip, left));
    skip = 0;
    left -= chunk.size();
    env.clock().advance(env.cost.copy_cost(chunk.size()));
    dev.store(at, chunk);
    at += chunk.size();
  }
  bd.copy_ns += env.now() - t0;
  const SimTime t1 = env.now();
  dev.persist(sh.raw_region + sh.raw_off, st.body_len);
  bd.persist_ns += env.now() - t1;
  sh.raw_off += align_up(st.body_len, kCacheLine);
}

void KvServer::dispatch(net::TcpConn& conn, ConnState& st) {
  auto& env = host_.env();
  if (admin_dispatch(conn, st)) return;
  Shard& sh = shards_[st.shard];
  // Group-commit / cache-warmth regime: requests queued behind the core.
  const bool batched = host_.cpu().backlogged();
  if (sh.store != nullptr) {
    sh.batcher->begin_op(batched, static_cast<u64>(env.now()));
    sh.store->set_batched(batched);
  }
  storage::OpBreakdown bd;
  int status = 200;
  std::vector<u8> resp_body;
  // A zero-copy GET hit and the shard whose probe returned it.
  Shard* zero_copy_shard = nullptr;
  storage::KvStore::Hit zero_copy_hit;
  // The PUT value's gather ranges, forwarded when a Replicator is attached.
  std::vector<repl::Replicator::GatherSeg> repl_segs;

  // One Table-1 row per request: rx covers NIC ingress of the first
  // segment up to the head parse (TCP delivery, checksum verify, wakeup);
  // parse is the head-parse window recorded by try_parse_head.
  obs::TraceContext tr(env, cfg_.trace ? &host_.trace(st.shard) : nullptr,
                       next_req_++);
  if (tr.active()) {
    if (st.rx_start != 0 && st.parse_ts >= st.rx_start) {
      tr.record(obs::Stage::rx, st.rx_start, st.parse_ts - st.rx_start);
    }
    tr.record(obs::Stage::parse, st.parse_ts, st.parse_dur);
  }
  const SimTime t_backend = env.now();

  if (sh.store == nullptr) {
    // discard and raw_persist: 200 with an empty body to every method.
    if (cfg_.backend == Backend::raw_persist &&
        st.method == http::Method::put) {
      raw_persist(sh, st, bd);
    }
  } else if (st.method == http::Method::put) {
    // Write-local: the PUT lands in the ingress core's shard. The value's
    // byte ranges cover a contiguous run of the request's segments (every
    // delivered segment carries payload).
    std::size_t first = 0;
    std::vector<u32> offs, lens;
    std::size_t skip = st.head_len;
    std::size_t remaining = st.body_len;
    for (std::size_t i = 0; i < st.pkts.size(); i++) {
      const net::PktBuf* pb = st.pkts[i];
      const u32 plen = pb->payload_len();
      if (skip >= plen) {
        skip -= plen;
        continue;
      }
      if (offs.empty()) first = i;
      const u32 len =
          static_cast<u32>(std::min<std::size_t>(plen - skip, remaining));
      offs.push_back(pb->payload_off + static_cast<u32>(skip));
      lens.push_back(len);
      skip = 0;
      remaining -= len;
      if (remaining == 0) break;
    }
    const std::span<net::PktBuf*> pkts(st.pkts.data() + first, offs.size());
    // An empty body has no segment range to adopt: store the empty value.
    const Status put =
        offs.empty() ? sh.store->put_bytes(st.key, {}, &bd)
                     : sh.store->put_pkts(st.key, pkts, offs, lens, &bd);
    if (put.ok()) {
      status = 201;
      if (has_directory()) {
        const SimTime t0 = env.now();
        dir_note_write(st.key, st.shard);
        bd.alloc_insert_ns += env.now() - t0;
      }
      // Forward the same packets' value ranges, refcounted — the replicas
      // receive the bytes the client's segments carried.
      if (repl_ != nullptr) repl_segs = repl::gather_from_pkts(pkts, offs, lens);
    } else {
      status = 507;
      errors_++;
      obs::inc(sh.m_errors);
    }
  } else if (st.method == http::Method::get) {
    if (st.key.starts_with("/scan/")) {
      resp_body = scan_response(st.key);
    } else {
      // One probe, of the shard that wrote the key last; the directory
      // names it, or answers a key no shard holds.
      Shard* owner = &sh;
      if (has_directory()) {
        const auto e = dir_find(st.key);
        owner = e == dir_.end() ? nullptr : &shards_[e->second.last];
      }
      if (owner == nullptr) {
        status = 404;
      } else if (auto hit = owner->store->lookup(st.key, batched); !hit.ok()) {
        status = hit.errc() == Errc::not_found ? 404 : 500;
      } else if (hit->handle != 0) {
        zero_copy_shard = owner;
        zero_copy_hit = std::move(hit.value());
      } else {
        resp_body = std::move(hit->bytes);
      }
    }
  } else if (st.method == http::Method::del) {
    // Erase every shard holding a version: the directory's list, or the
    // one shard. 404 only when every holder misses; a real store error
    // wins and keeps the entry, so a retry erases the rest.
    u64 holders = 1;
    auto e = dir_.end();
    if (has_directory()) {
      e = dir_find(st.key);
      holders = e == dir_.end() ? 0 : e->second.shards;
    }
    bool any = false;
    bool failed = false;
    for (; holders != 0; holders &= holders - 1) {
      const Status r =
          shards_[std::countr_zero(holders)].store->erase(st.key);
      any |= r.ok();
      failed |= !r.ok() && r.errc() != Errc::not_found;
    }
    if (e != dir_.end() && !failed) dir_.erase(e);
    status = failed ? 500 : any ? 204 : 404;
  }

  // Stitch the backend's OpBreakdown into contiguous stage spans laid out
  // from the backend-call start: the breakdown is a set of durations whose
  // sum never exceeds the elapsed backend time, so the stitched spans stay
  // inside [t_backend, now). prep lands on the parse stage (request
  // preparation — memtable key setup, WAL record framing).
  if (tr.active()) {
    SimTime at = t_backend;
    const auto emit = [&](obs::Stage s, SimTime d) {
      if (d != 0) {
        tr.record(s, at, d);
        at += d;
      }
    };
    emit(obs::Stage::parse, bd.prep_ns);
    emit(obs::Stage::checksum, bd.checksum_ns);
    emit(obs::Stage::slice, bd.slice_ns);
    emit(obs::Stage::copy, bd.copy_ns);
    emit(obs::Stage::alloc_index, bd.alloc_insert_ns);
    emit(obs::Stage::nic_insert, bd.nic_insert_ns);
    emit(obs::Stage::persist, bd.persist_ns);
  }

  // The request's flight-recorder row goes down *before* the ack path:
  // under group commit its publication rides the same epoch whose close
  // releases the ack, and in pass-through mode it persists before the
  // response — either way an acked op is always recoverable.
  flight_record(st, bd, tr.req(), status);

  // Store mutations ack through the batcher: inside an open epoch only
  // once its fences retire (group commit's correctness condition), at
  // once otherwise. Reads, and backends without a store, respond
  // immediately.
  const bool mutation =
      sh.store != nullptr &&
      (st.method == http::Method::put || st.method == http::Method::del);
  const bool replicate =
      repl_ != nullptr && mutation && (status == 201 || status == 204);
  {
    auto tx_span = tr.span(obs::Stage::tx);
    if (zero_copy_shard != nullptr) {
      respond_value_zero_copy(conn, *zero_copy_shard, zero_copy_hit);
    } else if (replicate) {
      // Quorum-gated ack: the client hears 201/204 only once the write
      // is locally durable AND a quorum of hosts holds it (or the
      // degrade deadline released it as a counted local-only ack).
      auto gate = std::make_shared<ReplGate>();
      gate->conn = &conn;
      gate->status = status;
      gate->shard = st.shard;
      gate->req = tr.req();
      gate->traced = tr.active();
      sh.batcher->on_committed([this, gate] {
        gate->local = true;
        gate->local_at = host_.env().now();
        gate_release(gate);
      });
      auto done = [this, gate](bool /*degraded*/) {
        gate->remote = true;
        gate->remote_at = host_.env().now();
        gate_release(gate);
      };
      // Traced requests carry their id across the wire so the replica's
      // apply span stitches into the same Perfetto trace.
      const u64 trace_id = tr.active() ? tr.req() : 0;
      if (st.method == http::Method::put) {
        repl_->submit_put(st.key, repl_segs, static_cast<u32>(st.body_len),
                          host_.pool(st.shard), std::move(done), trace_id);
      } else {
        repl_->submit_erase(st.key, std::move(done), trace_id);
      }
      gate_release(gate);  // quorum=1 resolves synchronously
    } else if (mutation) {
      net::TcpConn* c = &conn;
      sh.batcher->on_committed(
          [this, c, status, body = std::move(resp_body)] {
            // The connection may have closed while its ack was queued.
            if (open(c)) respond(*c, status, body);
          });
    } else {
      respond(conn, status, resp_body);
    }
  }
  if (sh.store != nullptr) sh.batcher->end_op();
  ops_++;
  sh.requests++;
  obs::inc(sh.m_requests);
  if (st.rx_start != 0) obs::observe(sh.m_req_ns, env.now() - st.rx_start);
  breakdown_sum_ += bd;
  breakdown_ops_++;

  for (net::PktBuf* pb : st.pkts) net::PktBufPool::release(pb);
  st.reset();
}

std::vector<u8> KvServer::scan_response(std::string_view target) {
  // Range query (the §3 "efficient range query support" property):
  // target is "/scan/<from>/<to>"; the response lists "key<TAB>len" lines
  // for up to kMaxScan keys in [from, to). On a sharded store the
  // per-shard iterators are merged in key order with duplicates (the same
  // key written via two ingress cores) collapsed to the newest version,
  // the one on the directory's last writer — each shard contributes at
  // most kMaxScan candidates, so the global cut is exact.
  constexpr std::size_t kMaxScan = 100;
  target.remove_prefix(6);  // "/scan/"
  const std::size_t slash = target.find('/');
  const std::string_view from = target.substr(0, slash);
  const std::string_view to =
      slash == std::string_view::npos ? std::string_view{}
                                      : target.substr(slash + 1);
  std::map<std::string, u64, std::less<>> merged;
  for (u32 i = 0; i < shards_.size(); i++) {
    std::size_t n = 0;
    auto collect = [&](std::string_view key, u64 len) {
      const auto [it, fresh] = merged.try_emplace(std::string(key), len);
      if (!fresh) {
        const auto e = dir_find(key);
        if (e != dir_.end() && e->second.last == i) it->second = len;
      }
      return ++n < kMaxScan;
    };
    shards_[i].store->scan_keys(from, to, collect);
  }
  std::string out;
  std::size_t n = 0;
  for (const auto& [key, len] : merged) {
    out += key;
    out += '\t';
    out += std::to_string(len);
    out += '\n';
    if (++n >= kMaxScan) break;
  }
  return {out.begin(), out.end()};
}

void KvServer::respond(net::TcpConn& conn, int status,
                       std::span<const u8> body) {
  auto& env = host_.env();
  env.clock().advance(env.cost.scaled(env.cost.server_http_build_ns));
  http::Response resp;
  resp.status = status;
  resp.body.assign(body.begin(), body.end());
  (void)conn.send(http::serialize(resp));
}

void KvServer::respond_value_zero_copy(net::TcpConn& conn, Shard& sh,
                                       const storage::KvStore::Hit& hit) {
  auto& env = host_.env();
  env.clock().advance(env.cost.scaled(env.cost.server_http_build_ns));
  // The stored packets are the response (§4.2): the head is copied into
  // the first packet's linear buffer and the value rides as frags from
  // the probe's handle (no second index walk). Packets the window cannot
  // take yet wait, in order, in the connection's zero-copy TX queue.
  const std::string head = "HTTP/1.1 200 OK\r\nContent-Length: " +
                           std::to_string(hit.len) + "\r\n\r\n";
  auto pkts = sh.store->emit_pkts(
      hit, std::span<const u8>(reinterpret_cast<const u8*>(head.data()),
                               head.size()));
  if (!pkts.ok()) {
    errors_++;
    obs::inc(sh.m_errors);
    respond(conn, 500);
    return;
  }
  for (net::PktBuf* pb : pkts.value()) (void)conn.send_pkt(pb);
}

}  // namespace papm::app
