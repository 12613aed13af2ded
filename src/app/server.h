// The storage server of §3's methodology: HTTP over TCP, busy-polling
// PASTE-style stack, one of four backends:
//
//   discard      — parse and drop; measures the networking-only RTT
//                  (Table 1 row 1).
//   raw_persist  — copy the body into PM and flush; the Figure 2
//                  "Net. + persist." application.
//   lsm          — the NoveLSM-like store with all data-management steps
//                  (Figure 2 "Net. + data mgmt. + persist."), each step
//                  toggleable via StoreKnobs for the Table 1 breakdown.
//   pktstore     — the paper's proposal: requests are parsed in place and
//                  their packets become the store.
//
// All backends use the zero-copy receive path (read_pkts) — PASTE served
// the baseline in the paper too — so backend differences are pure
// data-management differences. The two indexed backends share one request
// pipeline written against storage::KvStore; discard and raw_persist have
// no store and answer 200 with an empty body to every method.
//
// Scale-out (S1): on a multi-queue host the server runs one complete
// pipeline per datapath shard — its own listener on that shard's pinned
// TCP stack, its own connection states, and its own backend instance
// over the shard's private PM pool. RSS flow affinity makes every PUT
// land in the ingress core's shard (write-local), so one key can hold
// versions on several shards. A volatile directory records, per key,
// which shards hold a version and which wrote it last: a GET probes only
// that shard (or answers 404 without walking any index), a DELETE erases
// only the holders, and a scan lists the newest version's length. With
// one shard there is no directory and all of this degenerates to the
// classic single-pipeline server.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

#include "app/host.h"
#include "common/flat_map.h"
#include "core/pktstore.h"
#include "http/http.h"
#include "obs/flightrec.h"
#include "obs/trace.h"
#include "repl/replicator.h"
#include "storage/lsm_store.h"

namespace papm::app {

enum class Backend { discard, raw_persist, lsm, pktstore };

[[nodiscard]] constexpr std::string_view to_string(Backend b) noexcept {
  switch (b) {
    case Backend::discard: return "discard";
    case Backend::raw_persist: return "raw_persist";
    case Backend::lsm: return "lsm";
    case Backend::pktstore: return "pktstore";
  }
  return "?";
}

struct ServerConfig {
  Backend backend = Backend::lsm;
  u16 port = 9000;
  storage::StoreKnobs knobs;                 // lsm backend
  bool lsm_wal = false;                      // lsm backend
  core::PktStoreOptions pkt_opts;            // pktstore backend
  // Record per-request stage spans into the host's per-shard TraceLogs
  // (rx/parse/checksum/copy/alloc+index/persist/tx).
  bool trace = false;

  // --- Telemetry plane (runtime opt-in, all off by default; an *armed
  // but unqueried* admin plane costs the datapath nothing — the endpoint
  // branch only runs for admin targets). -------------------------------
  // Serve GET /stats, /metrics (Prometheus text) and /trace/recent on
  // the KV port, from merge_from() snapshots of the shared-nothing
  // registries/logs — the hot path is never locked or paused.
  bool admin = false;
  // Per-shard TraceLog ring capacity for long-running serving (0 keeps
  // the unbounded bench-exit behaviour). Wraps count obs.trace_dropped.
  std::size_t trace_capacity = 0;
  // PM-persistent flight recorder: a per-shard ring of the last 4096
  // (kFlightrecCapacity) request records, written through the group-commit
  // path so recovery after a cut sees every acked op (docs/OBSERVABILITY.md).
  bool flight_recorder = false;
};

class KvServer {
 public:
  // The host must be PM-backed for every backend except discard.
  KvServer(Host& host, const ServerConfig& cfg);

  [[nodiscard]] u64 ops() const noexcept { return ops_; }
  // Requests dispatched by one shard's pipeline — the per-shard load the
  // rebalancer reports as the imbalance signal.
  [[nodiscard]] u64 shard_requests(u32 shard) const noexcept {
    return shard < shards_.size() ? shards_[shard].requests : 0;
  }

  // --- Flow-group migration hooks (app::Rebalancer) ---------------------
  // Re-homes `conn`'s server-side state onto `new_shard`'s pipeline after
  // its TCP state moved stacks (TcpStack::extract/adopt). Segments of a
  // request in flight across the migration boundary still live in the old
  // queue's packet pool; PktStore::put_pkts copies those into the new
  // shard's pool before ingest, so store residency moves with the flow.
  void on_flow_migrated(net::TcpConn& conn, u32 new_shard);
  // Retires `shard`'s open group-commit epoch as pinned CPU work. Called
  // by the rebalancer before detaching a flow group so deferred
  // publications and held acks drain on the source core — nothing is
  // stranded behind an epoch whose requests migrated away.
  void close_epoch(u32 shard);

  // --- Replication (src/repl/) ------------------------------------------
  // Attaches the primary-side Replicator: store mutations then ack
  // only once locally durable AND remote-quorum durable (or released by
  // the degrade deadline). Null (the default) keeps the single-host ack
  // path, bit-identical to the pre-replication build — the gate branches
  // charge nothing when no replicator is attached.
  void set_replicator(repl::Replicator* r) noexcept { repl_ = r; }
  [[nodiscard]] repl::Replicator* replicator() const noexcept { return repl_; }
  // Added ack latency attributable to replication (submit -> remote
  // quorum), summed over quorum-gated ops; the bench_repl "repl tax".
  [[nodiscard]] u64 repl_tax_ns() const noexcept { return repl_tax_ns_; }
  [[nodiscard]] u64 repl_gated_ops() const noexcept {
    return repl_gated_ops_;
  }

  // Loads a key directly into a shard store, bypassing the network path.
  // The open-loop harness primes the whole keyspace this way so measured
  // GETs read real data instead of 404ing on a cold store; the charged
  // store time is discarded (priming is setup, not workload). No-op for
  // backends without an index (discard, raw_persist).
  bool prime(std::string_view key, std::span<const u8> value);

  [[nodiscard]] const storage::OpBreakdown& breakdown_sum() const noexcept {
    return breakdown_sum_;
  }
  [[nodiscard]] u64 breakdown_ops() const noexcept { return breakdown_ops_; }
  [[nodiscard]] u64 errors() const noexcept { return errors_; }
  // Zero-copy response packets still queued when their connection
  // closed: each one cuts a response short. Counted over the server's
  // whole life — reset_stats() leaves it alone, so a truncation during
  // warmup still shows.
  [[nodiscard]] u64 truncated_responses() const noexcept {
    return truncated_responses_;
  }

  // The raw_persist backend's PM region on `shard` (kRawRegion bytes);
  // 0 for the other backends. A PUT whose body exceeds it is answered 413.
  static constexpr u64 kRawRegion = 4u << 20;
  // A request head with no terminator within this many bytes is answered
  // 431 and its connection closed.
  static constexpr std::size_t kMaxHeadBytes = 8192;
  [[nodiscard]] u64 raw_region(u32 shard) const noexcept {
    return shard < shards_.size() ? shards_[shard].raw_region : 0;
  }
  // `shard`'s store; null for discard and raw_persist.
  [[nodiscard]] const storage::KvStore* store(u32 shard) const noexcept {
    return shard < shards_.size() ? shards_[shard].store.get() : nullptr;
  }

  // --- Telemetry plane ---------------------------------------------------
  // Admin requests served (/stats + /metrics + /trace/recent). Admin
  // traffic is deliberately excluded from ops()/shard_requests(): it must
  // not perturb the load-balance signal it reports on.
  [[nodiscard]] u64 admin_requests() const noexcept { return admin_requests_; }
  [[nodiscard]] obs::FlightRecorder* flight_recorder(u32 shard) noexcept {
    return shard < shards_.size() && shards_[shard].flightrec.has_value()
               ? &*shards_[shard].flightrec
               : nullptr;
  }
  // Records appended / ring overwrites summed across the shard recorders.
  [[nodiscard]] u64 flightrec_records() const noexcept {
    u64 n = 0;
    for (const auto& sh : shards_) {
      if (sh.flightrec.has_value()) n += sh.flightrec->seq();
    }
    return n;
  }
  [[nodiscard]] u64 flightrec_wraps() const noexcept {
    u64 n = 0;
    for (const auto& sh : shards_) {
      if (sh.flightrec.has_value()) n += sh.flightrec->wraps();
    }
    return n;
  }
  void reset_stats() {
    ops_ = 0;
    errors_ = 0;
    breakdown_sum_ = {};
    breakdown_ops_ = 0;
    repl_tax_ns_ = 0;
    repl_gated_ops_ = 0;
    for (auto& sh : shards_) sh.requests = 0;
  }

 private:
  // One backend pipeline per datapath shard (always exactly one per
  // shard; a single-queue host has one of these).
  struct Shard {
    // The LSM baseline allocates from its own general-purpose PM pool
    // (the user-space PM allocator of Table 1); the packet pool stays a
    // cheap freelist for NIC RX buffers either way.
    std::optional<pm::PmPool> store_pool;
    // The shard's store; null for discard and raw_persist.
    std::unique_ptr<storage::KvStore> store;
    // Group/epoch commit for this shard's store (set exactly when `store`
    // is): content fences deferred, publications withheld, acks released
    // at epoch close. The batcher's own deadline and idle checks close an
    // epoch whose request stream dried up, on this shard's core, so
    // deferred acks can never stall a closed-loop client.
    std::unique_ptr<pm::FlushBatcher> batcher;
    // PM flight recorder (ServerConfig::flight_recorder): the last N
    // requests of this shard survive a power cut.
    std::optional<obs::FlightRecorder> flightrec;
    // raw_persist bump region (recycled; models the Fig.2 simple app).
    u64 raw_region = 0;
    u64 raw_off = 0;
    // Requests dispatched through this shard (load signal).
    u64 requests = 0;
    // Cached registrations in the shard's MetricRegistry.
    obs::Counter* m_requests = nullptr;
    obs::Counter* m_errors = nullptr;
    obs::Counter* m_parsed = nullptr;
    obs::Histogram* m_req_ns = nullptr;
    obs::Counter* m_admin = nullptr;
  };
  // /trace/recent page size. Small by design: the page is assembled and
  // sent on a datapath core, so its bytes (copy + per-segment tx) are
  // the dominant term in the admin plane's p99 footprint — 32 spans is
  // one scrape page, the full log belongs in the bench-exit trace file.
  static constexpr std::size_t kTraceRecent = 32;

  // Per-connection request assembly over zero-copy packets. The request
  // head (start line + headers) is parsed in place when it fits in the
  // first segment — true for the paper's workloads — and over a copy of
  // the segments' first kMaxHeadBytes when it does not.
  struct ConnState {
    u32 shard = 0;                   // ingress datapath (RSS decided)
    std::vector<net::PktBuf*> pkts;  // segments of the in-flight request
    std::size_t have_bytes = 0;
    // Parsed from the head (valid once head_parsed):
    bool head_parsed = false;
    http::Method method = http::Method::other;
    std::string key;
    std::size_t head_len = 0;   // bytes before the body, within payload
    std::size_t body_len = 0;   // Content-Length
    // Trace bookkeeping: NIC ingress of the first segment, and the
    // head-parse window (the rx span ends where the parse span begins).
    SimTime rx_start = 0;
    SimTime parse_ts = 0;
    SimTime parse_dur = 0;

    // Ready for the connection's next request (same shard); keeps the
    // segment list's and key's capacity.
    void reset() noexcept {
      pkts.clear();
      have_bytes = 0;
      head_parsed = false;
      method = http::Method::other;
      key.clear();
      head_len = body_len = 0;
      rx_start = parse_ts = parse_dur = 0;
    }
  };

  // Quorum-gated client ack: respond() fires only once both the local
  // commit (epoch close or pass-through persist) and the replicator's
  // quorum callback have released it. Shared because either side can
  // finish first, on different event chains.
  struct ReplGate {
    net::TcpConn* conn = nullptr;
    int status = 200;
    u32 shard = 0;
    u64 req = 0;
    bool traced = false;
    bool local = false;
    bool remote = false;
    bool fired = false;
    SimTime local_at = 0;
    SimTime remote_at = 0;
  };
  void gate_release(const std::shared_ptr<ReplGate>& g);

  void on_accept(net::TcpConn& conn, u32 shard);
  // `st` is the connection's state, bound into its on_readable hook.
  void on_readable(net::TcpConn& conn, ConnState& st);
  // Parses the request head once it is complete: in segment 0, or over
  // the gathered segments when segment 0 holds only part of it.
  http::RequestHead::Status try_parse_head(ConnState& st);
  // Answers a request that cannot be served (400 malformed head, 413
  // oversized body, 431 head past kMaxHeadBytes) and closes the
  // connection; unbinds its on_readable hook before dropping the state
  // the hook refers to.
  void reject(net::TcpConn& conn, ConnState& st, int status);
  // Serves /stats, /metrics and /trace/recent from merged snapshots.
  // Returns true when the request was an admin target and a response
  // (including the connection-state reset) was fully handled.
  bool admin_dispatch(net::TcpConn& conn, ConnState& st);
  // Appends the request's record to the shard's flight recorder (no-op
  // without one). Runs before the ack path so the record's publication
  // rides the same commit epoch that releases the ack.
  void flight_record(ConnState& st, const storage::OpBreakdown& bd,
                     u64 req, int status);
  void dispatch(net::TcpConn& conn, ConnState& st);
  // The Fig. 2 simple application's PUT: copy the body into the shard's
  // PM region and flush it.
  void raw_persist(Shard& sh, const ConnState& st, storage::OpBreakdown& bd);
  [[nodiscard]] std::vector<u8> scan_response(std::string_view target);
  void respond(net::TcpConn& conn, int status, std::span<const u8> body = {});
  // Sends a zero-copy hit's value from the handle `sh`'s probe returned.
  void respond_value_zero_copy(net::TcpConn& conn, Shard& sh,
                               const storage::KvStore::Hit& hit);

  // --- Key directory (servers with more than one shard) -----------------
  // Which shards hold a version of each key, and which of them wrote it
  // last. It is volatile: a restarted server rebuilds it from the shards'
  // scan_keys. Each request that consults it pays one DRAM access.
  struct DirEntry {
    u64 shards = 0;  // bit i: shard i holds a version
    u32 last = 0;    // the shard holding the newest version
  };
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view k) const noexcept {
      return std::hash<std::string_view>{}(k);
    }
  };
  using Directory =
      std::unordered_map<std::string, DirEntry, KeyHash, std::equal_to<>>;
  [[nodiscard]] bool has_directory() const noexcept {
    return shards_.size() > 1;
  }
  // The key's entry (charged as a DRAM read), or end().
  Directory::iterator dir_find(std::string_view key);
  // Records that `shard` now holds the newest version (a DRAM write).
  void dir_note_write(std::string_view key, u32 shard);

  Host& host_;
  ServerConfig cfg_;
  std::vector<Shard> shards_;
  Directory dir_;
  repl::Replicator* repl_ = nullptr;
  u64 repl_tax_ns_ = 0;
  u64 repl_gated_ops_ = 0;

  // Open connections, keyed by TcpConn address. Each ConnState is its own
  // allocation, stable for the connection's life: the connection's
  // on_readable hook holds a reference to it.
  [[nodiscard]] static u64 conn_key(const net::TcpConn* c) noexcept {
    return reinterpret_cast<std::uintptr_t>(c);
  }
  [[nodiscard]] bool open(const net::TcpConn* c) noexcept {
    return conns_.find(conn_key(c)) != nullptr;
  }
  FlatMap<std::unique_ptr<ConnState>> conns_;
  u64 ops_ = 0;
  u64 errors_ = 0;
  u64 truncated_responses_ = 0;
  u64 admin_requests_ = 0;
  u64 next_req_ = 1;  // trace request ids (monotonic across shards)
  storage::OpBreakdown breakdown_sum_{};
  u64 breakdown_ops_ = 0;
};

}  // namespace papm::app
