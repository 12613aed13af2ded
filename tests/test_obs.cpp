// Observability unit tests: histogram bucketing, registry merge algebra,
// trace span nesting across shard hops, and the Chrome trace_events
// export round-tripped through a minimal JSON parser.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pm/pm_device.h"
#include "pm/pm_pool.h"
#include "sim/env.h"

namespace papm {
namespace {

// ---------- Histogram ----------

TEST(Histogram, BucketEdges) {
  using H = obs::Histogram;
  EXPECT_EQ(H::bucket_of(0), 0);
  EXPECT_EQ(H::bucket_of(1), 0);
  EXPECT_EQ(H::bucket_of(2), 1);
  EXPECT_EQ(H::bucket_of(3), 2);
  EXPECT_EQ(H::bucket_of(4), 2);
  EXPECT_EQ(H::bucket_of(5), 3);
  // Every bucket's upper edge maps into that bucket; one past maps out.
  for (int i = 1; i < 62; i++) {
    EXPECT_EQ(H::bucket_of(H::bucket_upper(i)), i) << i;
    EXPECT_EQ(H::bucket_of(H::bucket_upper(i) + 1), i + 1) << i;
  }
  EXPECT_EQ(H::bucket_of(~0ULL), 63);
}

TEST(Histogram, MomentsAndQuantiles) {
  obs::Histogram h;
  for (u64 v = 1; v <= 100; v++) h.observe(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // quantile_upper is the bucket's upper edge holding the nearest rank:
  // the median of 1..100 sits in bucket (32,64].
  EXPECT_EQ(h.quantile_upper(0.5), 64u);
  EXPECT_EQ(h.quantile_upper(1.0), 128u);
  EXPECT_EQ(obs::Histogram{}.quantile_upper(0.5), 0u);
}

// ---------- MetricRegistry ----------

TEST(MetricRegistry, MergeIsAssociativeAndCommutative) {
  // Three shard registries with overlapping and disjoint names.
  auto make = [](u64 a, u64 g, u64 extra) {
    auto r = std::make_unique<obs::MetricRegistry>();
    r->counter("shared.count").add(a);
    r->gauge("shared.peak").peak(g);
    r->histogram("shared.lat").observe(a * 10);
    if (extra != 0) r->counter("only.some").add(extra);
    return r;
  };
  const auto a = make(1, 5, 0);
  const auto b = make(2, 9, 7);
  const auto c = make(4, 3, 1);

  obs::MetricRegistry left;   // (a + b) + c
  left.merge_from(*a);
  left.merge_from(*b);
  left.merge_from(*c);
  obs::MetricRegistry right;  // c + (b + a)
  obs::MetricRegistry inner;
  inner.merge_from(*b);
  inner.merge_from(*a);
  right.merge_from(*c);
  right.merge_from(inner);

  EXPECT_EQ(left.report(), right.report());
  EXPECT_EQ(left.to_json(), right.to_json());
  EXPECT_EQ(left.counter("shared.count").value(), 7u);
  EXPECT_EQ(left.gauge("shared.peak").value(), 9u);   // max, not sum
  EXPECT_EQ(left.counter("only.some").value(), 8u);
  EXPECT_EQ(left.histogram("shared.lat").count(), 3u);
}

TEST(MetricRegistry, ResetKeepsRegistrationsValid) {
  obs::MetricRegistry r;
  obs::Counter* c = &r.counter("x.count");
  obs::Histogram* h = &r.histogram("x.lat");
  obs::inc(c, 5);
  obs::observe(h, 100);
  r.reset_values();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  obs::inc(c, 2);  // cached pointer still the registered instance
  EXPECT_EQ(r.counter("x.count").value(), 2u);
}

TEST(MetricRegistry, HooksAreInertWhenDisabledOrNull) {
  obs::inc(nullptr);  // must not crash
  obs::peak(nullptr, 3);
  obs::observe(nullptr, 3);
  obs::MetricRegistry r;
  obs::Counter* c = &r.counter("n");
  obs::inc(c, 4);
  EXPECT_EQ(c->value(), 4u);
}

// ---------- TraceContext / TraceLog ----------

TEST(Trace, SpansNestAndCloseAcrossShardHops) {
  sim::Env env;
  obs::TraceLog log0, log1;
  log0.set_track(0);
  log1.set_track(1);

  // Request 7 starts on shard 0: an outer rx span with a nested parse.
  obs::TraceContext t0(env, &log0, 7);
  SimTime outer_t0 = env.now();
  {
    auto outer = t0.span(obs::Stage::rx);
    env.clock().advance(100);
    {
      auto inner = t0.span(obs::Stage::parse);
      env.clock().advance(50);
    }  // inner closes first
    env.clock().advance(25);
  }

  // The request hops to shard 1 (e.g. a cross-shard GET): a new context
  // with the SAME request id records into that shard's log.
  obs::TraceContext t1(env, &log1, 7);
  {
    auto persist = t1.span(obs::Stage::persist);
    env.clock().advance(200);
  }

  ASSERT_EQ(log0.size(), 2u);
  ASSERT_EQ(log1.size(), 1u);

  // Inner closed before outer, so it appears first; containment holds.
  const auto& inner_ev = log0.events()[0];
  const auto& outer_ev = log0.events()[1];
  EXPECT_EQ(inner_ev.stage, obs::Stage::parse);
  EXPECT_EQ(outer_ev.stage, obs::Stage::rx);
  EXPECT_EQ(outer_ev.ts, outer_t0);
  EXPECT_EQ(outer_ev.dur, 175u);
  EXPECT_GE(inner_ev.ts, outer_ev.ts);
  EXPECT_LE(inner_ev.ts + inner_ev.dur, outer_ev.ts + outer_ev.dur);

  // Merge is concatenation; attribution counts the request once even
  // though its spans live in two shard logs.
  obs::TraceLog merged;
  merged.merge_from(log0);
  merged.merge_from(log1);
  const obs::Attribution at = obs::attribute(merged);
  EXPECT_EQ(at.requests, 1u);
  EXPECT_EQ(at.total_ns[static_cast<int>(obs::Stage::persist)], 200u);
  EXPECT_EQ(at.spans[static_cast<int>(obs::Stage::rx)], 1u);
  EXPECT_DOUBLE_EQ(at.mean_ns(obs::Stage::parse), 50.0);

  // Null-log contexts swallow everything.
  obs::TraceContext none;
  auto s = none.span(obs::Stage::tx);
  s.close();
  EXPECT_FALSE(none.active());
}

// ---------- Chrome trace JSON round-trip ----------

// Minimal JSON scanner: validates bracket/brace balance and string
// escapes, and extracts every object's name/ph/tid/ts/dur/req fields.
// Deliberately tiny — just enough structure checking to prove the export
// is well-formed without a JSON library.
struct MiniEvent {
  std::string name;
  std::string ph;
  u32 tid = 0;
  double ts = 0;
  double dur = 0;
  u64 req = 0;
};

class MiniParser {
 public:
  explicit MiniParser(std::string_view s) : s_(s) {}

  // Returns false on any structural error.
  bool parse(std::vector<MiniEvent>& out) {
    int depth = 0;
    MiniEvent cur;
    bool in_event = false;
    while (pos_ < s_.size()) {
      skip_ws();
      if (pos_ >= s_.size()) break;
      const char c = s_[pos_];
      if (c == '{' || c == '[') {
        depth++;
        pos_++;
        if (c == '{' && depth == 3) {  // {root {traceEvents [ {event...
          cur = MiniEvent{};
          in_event = true;
        }
      } else if (c == '}' || c == ']') {
        if (depth == 0) return false;
        if (c == '}' && depth == 3 && in_event) {
          out.push_back(cur);
          in_event = false;
        }
        depth--;
        pos_++;
      } else if (c == '"') {
        std::string key;
        if (!string_lit(key)) return false;
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ':') {
          pos_++;
          skip_ws();
          if (!value(key, cur, in_event)) return false;
        }
      } else if (c == ',' || c == ':') {
        pos_++;
      } else {
        return false;
      }
    }
    return depth == 0;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      pos_++;
    }
  }
  bool string_lit(std::string& out) {
    if (s_[pos_] != '"') return false;
    pos_++;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') pos_++;  // escape: take next char verbatim
      if (pos_ >= s_.size()) return false;
      out += s_[pos_++];
    }
    if (pos_ >= s_.size()) return false;
    pos_++;  // closing quote
    return true;
  }
  bool value(const std::string& key, MiniEvent& cur, bool in_event) {
    if (pos_ >= s_.size()) return false;
    if (s_[pos_] == '"') {
      std::string v;
      if (!string_lit(v)) return false;
      if (in_event && key == "name") cur.name = v;
      if (in_event && key == "ph") cur.ph = v;
      return true;
    }
    if (s_[pos_] == '{' || s_[pos_] == '[') return true;  // handled by loop
    // Number.
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == '-' || s_[pos_] == '+' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      pos_++;
    }
    if (pos_ == start) return false;
    const double num = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(), nullptr);
    if (in_event) {
      if (key == "tid") cur.tid = static_cast<u32>(num);
      if (key == "ts") cur.ts = num;
      if (key == "dur") cur.dur = num;
      if (key == "req") cur.req = static_cast<u64>(num);
    }
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

TEST(Trace, ChromeJsonRoundTripsThroughMinimalParser) {
  sim::Env env;
  obs::TraceLog server, client;
  server.set_track(0);
  client.set_track(obs::kClientTrack);

  server.record(1, obs::Stage::rx, 1000, 500);
  server.record(1, obs::Stage::persist, 1500, 2500);
  client.record(1, obs::Stage::rtt, 0, 5000);
  server.record(2, obs::Stage::rx, 6000, 321);

  obs::TraceLog merged;
  merged.merge_from(server);
  merged.merge_from(client);
  const std::string json = obs::chrome_trace_json(merged);

  std::vector<MiniEvent> evs;
  ASSERT_TRUE(MiniParser(json).parse(evs)) << json;

  // 4 metadata events (process_name + thread_name per distinct pid:
  // papm-server and papm-client) + 4 "X" spans, sorted by timestamp.
  std::vector<MiniEvent> xs, ms;
  for (const auto& e : evs) (e.ph == "X" ? xs : ms).push_back(e);
  ASSERT_EQ(ms.size(), 4u);
  ASSERT_EQ(xs.size(), 4u);

  // MiniParser reads the args object's "name" into cur.name, so for "M"
  // events the extracted name is the label Perfetto will display.
  EXPECT_EQ(ms[0].name, "papm-server");  // process_name, pid 1
  EXPECT_EQ(ms[1].name, "papm-client");  // process_name, pid 2
  EXPECT_EQ(ms[2].name, "shard0");       // thread_name, tid 0
  EXPECT_EQ(ms[3].name, "client0");      // thread_name, tid kClientTrack
  EXPECT_EQ(ms[3].tid, obs::kClientTrack);

  EXPECT_EQ(xs[0].name, "rtt");
  EXPECT_EQ(xs[0].tid, obs::kClientTrack);
  EXPECT_DOUBLE_EQ(xs[0].ts, 0.0);
  EXPECT_DOUBLE_EQ(xs[0].dur, 5.0);  // 5000 ns = 5 us
  EXPECT_EQ(xs[1].name, "rx");
  EXPECT_DOUBLE_EQ(xs[1].ts, 1.0);
  EXPECT_DOUBLE_EQ(xs[1].dur, 0.5);
  EXPECT_EQ(xs[2].name, "persist");
  EXPECT_DOUBLE_EQ(xs[2].dur, 2.5);
  EXPECT_EQ(xs[3].name, "rx");
  EXPECT_EQ(xs[3].req, 2u);
  EXPECT_DOUBLE_EQ(xs[3].dur, 0.321);
}

// ---------- TraceLog ring capacity & drop accounting ----------

TEST(Trace, RingCapacityCountsDropsAndKeepsNewest) {
  obs::TraceLog log;
  log.set_track(3);
  log.set_capacity(4);
  obs::MetricRegistry reg;
  obs::Counter* c = &reg.counter("obs.trace_dropped");
  log.set_dropped_counter(c);
  for (u64 i = 1; i <= 10; i++) log.record(i, obs::Stage::rx, i * 10, 1);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);   // every overwrite counted — never silent
  EXPECT_EQ(c->value(), 6u);      // and mirrored into the registry counter
  std::set<u64> reqs;
  for (const auto& e : log.events()) reqs.insert(e.req);
  EXPECT_EQ(reqs, (std::set<u64>{7, 8, 9, 10}));  // newest survive

  // merge_from carries the drop count into the export-side scratch log.
  obs::TraceLog merged;
  merged.merge_from(log);
  EXPECT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged.dropped(), 6u);

  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  log.record(99, obs::Stage::tx, 0, 1);  // ring cursor reset with it
  EXPECT_EQ(log.events()[0].req, 99u);
}

// ---------- FlightRecorder ----------

obs::FlightRecord flight_of(u64 seq) {
  obs::FlightRecord r;
  r.req = 500 + seq;
  r.t0_ns = seq * 7;
  for (std::size_t s = 0; s < obs::kStages; s++) {
    r.stage_ns[s] = static_cast<u32>(seq * 10 + s);
  }
  r.result = 200;
  r.op = 'G';
  return r;
}

TEST(FlightRecorder, AppendRecoverScanRoundTrip) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 20);
  auto pool = pm::PmPool::create(dev, "p", dev.data_base(), 1u << 19);
  auto made = obs::FlightRecorder::create(dev, pool, 0, 8);
  ASSERT_TRUE(made.ok());
  obs::FlightRecorder fr = std::move(made.value());
  obs::MetricRegistry reg;
  fr.set_metrics(&reg);
  for (u64 i = 1; i <= 5; i++) EXPECT_EQ(fr.append(flight_of(i)), i);
  EXPECT_EQ(fr.seq(), 5u);
  EXPECT_EQ(fr.wraps(), 0u);
  EXPECT_EQ(reg.counter("obs.flightrec_records").value(), 5u);

  dev.crash();
  auto rec = obs::FlightRecorder::recover(dev, 0);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().seq(), 5u);  // resumes past the high-water mark
  obs::FlightRecorder::ScanStats st;
  const auto flights = rec.value().scan(&st);
  ASSERT_EQ(flights.size(), 5u);
  EXPECT_EQ(st.scanned, 8u);
  EXPECT_EQ(st.valid, 5u);
  EXPECT_EQ(st.invalid, 0u);
  EXPECT_EQ(st.max_seq, 5u);
  EXPECT_TRUE(st.contiguous);
  for (u64 i = 0; i < 5; i++) {
    EXPECT_EQ(flights[i].seq, i + 1);
    const obs::FlightRecord want = flight_of(i + 1);
    EXPECT_EQ(flights[i].rec.req, want.req);
    EXPECT_EQ(flights[i].rec.t0_ns, want.t0_ns);
    EXPECT_EQ(0, std::memcmp(flights[i].rec.stage_ns, want.stage_ns,
                             sizeof want.stage_ns));
    EXPECT_EQ(flights[i].rec.result, want.result);
    EXPECT_EQ(flights[i].rec.op, want.op);
  }
  EXPECT_EQ(rec.value().append(flight_of(6)), 6u);
}

TEST(FlightRecorder, WrapKeepsNewestWindow) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 20);
  auto pool = pm::PmPool::create(dev, "p", dev.data_base(), 1u << 19);
  auto made = obs::FlightRecorder::create(dev, pool, 0, 4);
  ASSERT_TRUE(made.ok());
  obs::FlightRecorder fr = std::move(made.value());
  obs::MetricRegistry reg;
  fr.set_metrics(&reg);
  for (u64 i = 1; i <= 10; i++) fr.append(flight_of(i));
  EXPECT_EQ(fr.wraps(), 6u);
  EXPECT_EQ(reg.counter("obs.flightrec_wraps").value(), 6u);

  obs::FlightRecorder::ScanStats st;
  const auto flights = fr.scan(&st);
  ASSERT_EQ(flights.size(), 4u);
  EXPECT_TRUE(st.contiguous);
  for (u64 i = 0; i < 4; i++) EXPECT_EQ(flights[i].seq, 7 + i);
}

TEST(FlightRecorder, CorruptedBodyIsRejectedNotResurrected) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 20);
  auto pool = pm::PmPool::create(dev, "p", dev.data_base(), 1u << 19);
  auto made = obs::FlightRecorder::create(dev, pool, 0, 4);
  ASSERT_TRUE(made.ok());
  obs::FlightRecorder fr = std::move(made.value());
  for (u64 i = 1; i <= 3; i++) fr.append(flight_of(i));

  // Smash 8 bytes of seq 2's body (slot index 1) behind the CRC's back.
  const u64 body = fr.region() + obs::FlightRecorder::kHeaderLen +
                   1 * obs::FlightRecorder::kSlotSize + 8;
  dev.store_u64(body, 0xdeadbeefdeadbeefull);
  dev.persist(body, 8);

  obs::FlightRecorder::ScanStats st;
  const auto flights = fr.scan(&st);
  ASSERT_EQ(flights.size(), 2u);
  EXPECT_EQ(st.valid, 2u);
  EXPECT_EQ(st.invalid, 1u);      // the torn slot is counted, not returned
  EXPECT_FALSE(st.contiguous);    // 1 and 3 survive, 2 is the hole
  EXPECT_EQ(flights[0].seq, 1u);
  EXPECT_EQ(flights[1].seq, 3u);

  // The CRC binds body to seq: the same record under a different seq
  // must not verify (the ring-reuse hazard).
  const obs::FlightRecord r = flight_of(1);
  EXPECT_NE(obs::FlightRecorder::record_crc(r, 1),
            obs::FlightRecorder::record_crc(r, 2));
}

TEST(FlightRecorder, RecoverUnknownShardFails) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 20);
  auto rec = obs::FlightRecorder::recover(dev, 9);
  EXPECT_FALSE(rec.ok());
}

// ---------- PmDevice flush accounting ----------

TEST(PmObs, EpochAndRegistryAgreeOnFlushCounts) {
  sim::Env env;
  pm::PmDevice dev(env, 1u << 20);
  obs::MetricRegistry reg;
  dev.set_metrics(&reg);
  dev.obs_begin_epoch();

  std::vector<u8> data(3 * kCacheLine, 0xAB);
  const u64 at = dev.data_base();
  dev.store(at, data);
  dev.persist(at, data.size());

  const auto ep = dev.obs_epoch();
  EXPECT_GE(ep.clwb, 3u);  // at least the three data lines
  EXPECT_GE(ep.sfence, 1u);
  EXPECT_EQ(ep.bytes_flushed, ep.lines_drained * kCacheLine);
  EXPECT_GE(ep.dirty_hwm, 3u);
  EXPECT_GE(ep.pending_hwm, 1u);
  // The registry counters saw the same events.
  EXPECT_EQ(reg.counter("pm.clwb").value(), ep.clwb);
  EXPECT_EQ(reg.counter("pm.sfence").value(), ep.sfence);
  EXPECT_EQ(reg.counter("pm.bytes_flushed").value(), ep.bytes_flushed);

  // A new epoch rewinds the window, not the registry.
  dev.obs_begin_epoch();
  EXPECT_EQ(dev.obs_epoch().clwb, 0u);
  EXPECT_EQ(reg.counter("pm.clwb").value(), ep.clwb);
}

}  // namespace
}  // namespace papm
