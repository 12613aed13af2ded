// Request-scoped tracing: every completed request yields a Table-1 row.
//
// A TraceContext is carried with the request (the server creates one per
// assembled request; the client one per issued request) and records
// enter/exit timestamps for the canonical datapath stages. Spans land in
// a per-shard TraceLog (append-only, shared-nothing like the metric
// registries) and are merged only at export time. Exporters:
//
//   * attribute()          — per-stage totals/means: the attribution table;
//   * chrome_trace_json()  — Chrome trace_events JSON, loadable in
//                            chrome://tracing and Perfetto (one thread
//                            track per shard, "X" complete events).
//
// Tracing is runtime opt-in (a context without a log swallows every
// span) and charges no simulated time, so it cannot perturb bench numbers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "sim/env.h"

namespace papm::obs {

// Canonical stages of one request through the stack — the rows of the
// paper's Table 1 as seen by the server. `rx`/`tx` are the server-side
// networking halves; parse covers HTTP parse + request preparation;
// the middle four are the data-management + persistence split.
enum class Stage : u8 {
  rx = 0,
  parse,
  checksum,
  slice,       // sliced-descriptor bookkeeping (NIC payload slicer)
  copy,
  alloc_index,
  nic_insert,  // NIC index-engine offload: doorbell + wait + completion
  persist,
  repl,  // replication: forward to replicas -> remote-quorum durable
  tx,
  rtt,         // client-side whole-request span (issue -> response parsed)
  repl_apply,  // replica-side apply of a forwarded mutation (replica track)
};
inline constexpr int kStages = 12;

[[nodiscard]] constexpr std::string_view to_string(Stage s) noexcept {
  switch (s) {
    case Stage::rx: return "rx";
    case Stage::parse: return "parse";
    case Stage::checksum: return "checksum";
    case Stage::slice: return "slice";
    case Stage::copy: return "copy";
    case Stage::alloc_index: return "alloc+index";
    case Stage::nic_insert: return "nic_insert";
    case Stage::persist: return "persist";
    case Stage::repl: return "repl";
    case Stage::tx: return "tx";
    case Stage::rtt: return "rtt";
    case Stage::repl_apply: return "repl_apply";
  }
  return "?";
}

// One closed span: stage `stage` of request `req` on track `track`
// occupied [ts, ts+dur) in simulated time.
struct SpanEvent {
  u64 req = 0;
  u32 track = 0;  // exporter tid: shard id, or kClientTrack for the client
  Stage stage = Stage::rx;
  SimTime ts = 0;
  SimTime dur = 0;
};

inline constexpr u32 kClientTrack = 1000;
// Replica i's apply spans land on track kReplicaTrackBase + i, which the
// Chrome exporter maps to its own process so a stitched trace shows the
// primary and each replica as separate tracks of one timeline.
inline constexpr u32 kReplicaTrackBase = 2000;

// Span log. One per datapath shard; merge_from() at export is
// associative (concatenation; exporters sort by timestamp).
//
// Unbounded by default (the bench-exit exporters want every span).
// set_capacity(n) turns it into a ring of the n most recent spans for
// long-running serving: a full ring overwrites its oldest span and
// counts the overwrite in dropped() (and in the `obs.trace_dropped`
// counter when one is attached) — wraps are never silent.
class TraceLog {
 public:
  void set_track(u32 t) noexcept { track_ = t; }
  [[nodiscard]] u32 track() const noexcept { return track_; }

  // 0 (default) = unbounded append; n > 0 = keep the n most recent spans.
  void set_capacity(std::size_t n) noexcept { capacity_ = n; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] u64 dropped() const noexcept { return dropped_; }
  // Registry hook for ring overwrites (`obs.trace_dropped`); null-safe.
  void set_dropped_counter(Counter* c) noexcept { dropped_counter_ = c; }

  void record(u64 req, Stage s, SimTime ts, SimTime dur) {
    if (capacity_ != 0 && events_.size() >= capacity_) {
      events_[next_] = {req, track_, s, ts, dur};
      next_ = (next_ + 1) % capacity_;
      dropped_++;
      inc(dropped_counter_);
    } else {
      events_.push_back({req, track_, s, ts, dur});
    }
  }

  // Ring order is not chronological after a wrap; exporters sort by ts.
  [[nodiscard]] const std::vector<SpanEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  void clear() noexcept {
    events_.clear();
    next_ = 0;
    dropped_ = 0;
  }

  // Plain concatenation regardless of this log's capacity — merge targets
  // are the export-side scratch logs, which stay unbounded.
  void merge_from(const TraceLog& o) {
    events_.insert(events_.end(), o.events_.begin(), o.events_.end());
    dropped_ += o.dropped_;
  }

 private:
  std::vector<SpanEvent> events_;
  u32 track_ = 0;
  std::size_t capacity_ = 0;  // 0 = unbounded
  std::size_t next_ = 0;      // ring overwrite cursor (capacity_ > 0)
  u64 dropped_ = 0;
  Counter* dropped_counter_ = nullptr;
};

// The request-scoped handle. Null-constructed contexts swallow all
// operations, so call sites never branch on "is tracing on".
class TraceContext {
 public:
  TraceContext() = default;
  TraceContext(sim::Env& env, TraceLog* log, u64 req) noexcept
      : env_(&env), log_(log), req_(req) {}

  [[nodiscard]] bool active() const noexcept { return log_ != nullptr; }
  [[nodiscard]] u64 req() const noexcept { return req_; }

  // Record a span with explicit bounds (for stages measured elsewhere,
  // e.g. per-packet rx costs stamped by the TCP stack).
  void record(Stage s, SimTime ts, SimTime dur) {
    if (active()) log_->record(req_, s, ts, dur);
  }

  // RAII span: enters at construction, closes at destruction (or at an
  // explicit close()). Nesting works naturally — inner spans close
  // first, and the exporter nests them by containment.
  class Span {
   public:
    Span() = default;
    Span(TraceContext& ctx, Stage s) noexcept {
      if (ctx.active()) {
        ctx_ = &ctx;
        stage_ = s;
        t0_ = ctx.env_->now();
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { close(); }

    void close() noexcept {
      if (ctx_ != nullptr) {
        ctx_->record(stage_, t0_, ctx_->env_->now() - t0_);
        ctx_ = nullptr;
      }
    }

   private:
    TraceContext* ctx_ = nullptr;
    Stage stage_ = Stage::rx;
    SimTime t0_ = 0;
  };

  [[nodiscard]] Span span(Stage s) noexcept { return Span(*this, s); }

 private:
  sim::Env* env_ = nullptr;
  TraceLog* log_ = nullptr;
  u64 req_ = 0;
};

// --- Exporters -----------------------------------------------------------

// Per-stage attribution over a span log: totals, span counts and the
// number of distinct requests (the denominator for per-request means).
struct Attribution {
  SimTime total_ns[kStages] = {};
  u64 spans[kStages] = {};
  u64 requests = 0;  // distinct req ids among non-rtt server spans

  [[nodiscard]] double mean_ns(Stage s) const noexcept {
    return requests == 0 ? 0.0
                         : static_cast<double>(total_ns[static_cast<int>(s)]) /
                               static_cast<double>(requests);
  }
  // Sum of the per-request means over the server-side stages (everything
  // except the client rtt track and the replica-side repl_apply spans —
  // replica work overlaps the primary's repl wait, it is not residence).
  [[nodiscard]] double server_sum_ns() const noexcept;
};

[[nodiscard]] Attribution attribute(const TraceLog& log);

// Chrome trace_events JSON (the object form: {"traceEvents": [...]}).
// Every span becomes an "X" (complete) event; ts/dur are microseconds as
// chrome://tracing and Perfetto expect. Tracks map to processes —
// server shards under pid 1 ("papm-server"), the client track under
// pid 2 ("papm-client"), replica tracks under pid 3+i ("papm-replica<i>")
// — with process_name and thread_name "M" metadata events so Perfetto
// labels every track instead of showing bare tids.
[[nodiscard]] std::string chrome_trace_json(const TraceLog& log);

}  // namespace papm::obs
