// perfbench: the papm two-clock benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// --trace 0 repeats the workload untraced for --seconds of host time and
// reports the end-to-end metrics: host-clock ones as the median over the
// repetitions at reference speed, simulated-clock ones pooled over the
// workload's sub-seeds after checking that every repeat reproduced its
// results bit for bit. --trace 1 alternates untraced and traced
// repetitions, runs the per-layer wall-clock benches and the link-cut
// self-test, and reports the per-layer metrics; traces go to --out-dir.
// Human-readable lines come first; the last line is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "layers.h"
#include "obs/trace.h"
#include "testbed.h"

namespace perfbench {
namespace {

using Steady = std::chrono::steady_clock;

double host_now() {
  return std::chrono::duration<double>(Steady::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && a.seconds > 0;
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

// Metrics in print order; the JSON carries the ones marked for it.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
  bool json;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = "", bool json = true) {
    metrics_.push_back({std::move(name), value, std::move(unit),
                        std::move(note), json});
  }
  void fail(const std::string& why) {
    correct_ = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  [[nodiscard]] bool correct() const { return correct_; }

  void print(u64 attempted, u64 failed) const {
    for (const auto& m : metrics_) {
      std::printf("  %-28s %18.6f %-7s %s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.json ? "" : "[stdout only] ",
                  m.note.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    char num[64];
    for (const auto& m : metrics_) {
      if (!m.json) continue;
      std::snprintf(num, sizeof num, "%.17g", m.value);
      json += std::string(first ? "" : ", ") + "\"" + m.name +
              "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// The benchmark's own host-clock spans, exported as a Chrome trace.
class HostSpans {
 public:
  HostSpans() : t0_(host_now()) {}
  void add(const std::string& name, double start_s, double dur_s) {
    spans_.push_back({name, (start_s - t0_) * 1e6, dur_s * 1e6});
  }
  void add_rep(const std::string& label, double start, const HostTimes& h) {
    double t = start;
    const std::pair<const char*, double> phases[] = {
        {"setup_hosts", h.setup_hosts}, {"prime", h.prime},
        {"warmup", h.warmup},           {"window", h.window},
        {"post", h.post}};
    for (const auto& [name, dur] : phases) {
      add(label + "." + name, t, dur);
      t += dur;
    }
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); i++) {
      char ev[256];
      std::snprintf(ev, sizeof ev,
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f}",
                    i == 0 ? "" : ", ", spans_[i].name.c_str(),
                    spans_[i].ts_us, spans_[i].dur_us);
      out << ev;
    }
    out << "], \"displayTimeUnit\": \"ms\"}\n";
  }

 private:
  struct Span {
    std::string name;
    double ts_us, dur_us;
  };
  double t0_;
  std::vector<Span> spans_;
};

std::string count_note(u64 n) { return "n=" + std::to_string(n); }

// Host-speed reference: fixed work that touches none of papm — a sort, hash
// inserts and fresh zeroed pages, the resource mix of a repetition. It runs
// before every repetition; the host-clock end-to-end metrics divide each
// repetition's time by it and rescale to kReferenceS, about its time on a
// quiet machine. On a shared machine whole stretches of seconds run up to
// 40% slow (neighbour load); both timings slow together, so the ratio
// tracks the code's own speed two to three times as steadily as the raw
// time did in five-seed trials. Raw medians are printed beside them.
constexpr double kReferenceS = 0.125;

double reference_kernel_s() {
  const double t0 = host_now();
  std::mt19937_64 gen(42);
  std::vector<u64> v(400'000);
  for (auto& x : v) x = gen();
  std::sort(v.begin(), v.end());
  std::unordered_set<u64> h;
  for (std::size_t i = 0; i < 200'000; i++) h.insert(v[(i * 7919) % v.size()]);
  std::vector<char> pages(32u << 20);  // value-initialised: every page zeroed
  if (h.size() + static_cast<std::size_t>(pages[4096]) == 0) std::abort();
  return host_now() - t0;
}

// Simulated-clock end-to-end numbers over a run's distinct simulations:
// latency samples pooled, throughput summed.
struct Pooled {
  papm::Stats lat;
  double kreq_per_s = 0;
  double pct_us(double p) const { return lat.percentile(p) / 1000.0; }
};

Pooled pool(const Workload& w, const std::vector<RepResult>& reps) {
  Pooled p;
  u64 completed = 0;
  for (int i = 0; i < w.sub_seeds; i++) {
    p.lat.merge_from(reps[static_cast<std::size_t>(i)].latencies);
    completed += reps[static_cast<std::size_t>(i)].window_requests;
  }
  p.kreq_per_s = static_cast<double>(completed) /
                 (static_cast<double>(w.measure_ns) / 1e9 * w.sub_seeds) /
                 1000.0;
  return p;
}

// Runs repetitions cycling through the workload's sub-seeds: at least
// `min_count`, then more until `seconds` have passed (at most 100).
// `run` takes the repetition's index and sub-seed.
template <typename Run>
void repeat(const Workload& w, double seconds, std::size_t min_count,
            Run&& run) {
  const double start = host_now();
  const auto k = static_cast<std::size_t>(w.sub_seeds);
  for (std::size_t i = 0; i < 100; i++) {
    if (i >= min_count && host_now() - start >= seconds) break;
    run(i, i % k);
  }
}

int run_e2e(const Workload& w, const Args& a) {
  Report rep;
  HostSpans spans;
  std::vector<RepResult> reps;
  std::vector<double> refs;  // reference kernel seconds before each rep
  const double start = host_now();
  // Every sub-seed once, then one repeat at least for the bit-identity check.
  repeat(w, a.seconds, static_cast<std::size_t>(w.sub_seeds) + 1,
         [&](std::size_t i, std::size_t sub) {
    RepOptions o;
    o.seed = sub_seed(a.seed, static_cast<int>(sub));
    double t = host_now();
    refs.push_back(reference_kernel_s());
    spans.add("reference" + std::to_string(i + 1), t, refs.back());
    t = host_now();
    reps.push_back(run_rep(w, o));
    spans.add_rep("rep" + std::to_string(i + 1), t, reps.back().host);
  });
  // Every repeat of a sub-seed must reproduce its simulated results.
  const auto k = static_cast<std::size_t>(w.sub_seeds);
  for (std::size_t i = k; i < reps.size(); i++) {
    if (!(reps[i].sim == reps[i % k].sim)) {
      rep.fail("simulated-clock results differ between repetitions");
      break;
    }
  }
  const Pooled pooled = pool(w, reps);
  // Report the highest percentile the sample supports: >= 10 beyond it.
  if (pooled.lat.count() < 10'000) {
    rep.fail("p999 needs >= 10000 window samples, have " +
             std::to_string(pooled.lat.count()));
  }
  u64 attempted = 0, failed = 0;
  for (const auto& r : reps) {
    attempted += r.sim.attempted;
    failed += r.sim.failed;
  }
  if (failed != 0) rep.fail("failed_frac > 0");
  const SimResult& s = reps.front().sim;

  // Per repetition: raw host seconds, and seconds at reference speed.
  std::vector<double> setup, wall, rate, setup_ref, wall_ref, rate_ref;
  for (std::size_t i = 0; i < reps.size(); i++) {
    const HostTimes& h = reps[i].host;
    const double speed = kReferenceS / refs[i];
    const double per_s = static_cast<double>(reps[i].window_requests);
    setup.push_back(h.setup());
    wall.push_back(h.wall());
    rate.push_back(per_s / h.window);
    setup_ref.push_back(h.setup() * speed);
    wall_ref.push_back(h.wall() * speed);
    rate_ref.push_back(per_s / (h.window * speed));
  }
  char raw[160];
  auto note = [&](const char* unit, const std::vector<double>& v) {
    std::snprintf(raw, sizeof raw,
                  "median of %zu reps at reference speed; raw median %.6g %s, "
                  "reference %.4f s",
                  reps.size(), median(v), unit, median(refs));
    return std::string(raw);
  };
  std::printf("perfbench %s seed=%llu trace=0: %zu repetitions in %.2f s\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              reps.size(), host_now() - start);

  std::vector<LadderRung> ladder;
  if (!w.ladder_rps.empty()) {
    const double t = host_now();
    ladder = run_ladder(w, sub_seed(a.seed, 0));
    spans.add("slo_ladder", t, host_now() - t);
  }

  // End-to-end metrics, host clock then simulated clock.
  rep.add("setup_s", median(setup_ref), "s", note("s", setup));
  rep.add("wall_s", median(wall_ref), "s", note("s", wall));
  rep.add("sim_req_per_host_s", median(rate_ref), "req/s", note("req/s", rate));
  rep.add("peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss");
  const std::string n = count_note(pooled.lat.count()) + " pooled over " +
                        std::to_string(w.sub_seeds) + " sub-seeds";
  rep.add("kreq_per_s", pooled.kreq_per_s, "kreq/s", n);
  const char* lat = w.open_loop ? "sojourn from scheduled arrival, "
                                : "closed-loop RTT, ";
  rep.add("p50_us", pooled.pct_us(50), "us", lat + n);
  rep.add("p99_us", pooled.pct_us(99), "us", lat + n);
  rep.add("p999_us", pooled.pct_us(99.9), "us", lat + n);
  // Metrics that are zero or undefined on some workload are printed but
  // left out of the JSON, which must carry the same nonzero set every run.
  const double failed_frac = static_cast<double>(failed) /
                             static_cast<double>(std::max<u64>(1, attempted));
  rep.add("failed_frac", failed_frac, "ratio",
          count_note(attempted) + " attempted; sub-seed 0: unanswered " +
              std::to_string(s.unanswered) + ", non-2xx " +
              std::to_string(s.http_errors) + ", readback " +
              std::to_string(s.readback_bad) + ", acked-lost " +
              std::to_string(s.acked_lost),
          false);
  rep.add("slo_miss_rate", s.slo_miss_rate, "ratio",
          w.open_loop ? "over 200 us deadline or failed, of window arrivals"
                      : "no deadline in a closed loop: failed share",
          false);
  if (!ladder.empty()) {
    double best = 0;
    for (const auto& g : ladder) {
      std::printf("  ladder %6.0f krps: p99 %9.2f us (n=%llu), backlog %llu -> "
                  "%llu%s -> %s\n",
                  g.rate_rps / 1000.0, g.p99_us,
                  static_cast<unsigned long long>(g.samples),
                  static_cast<unsigned long long>(g.backlog_first),
                  static_cast<unsigned long long>(g.backlog_second),
                  g.growing ? " (growing)" : "", g.pass ? "pass" : "FAIL");
      if (g.pass) best = g.rate_rps / 1000.0;
    }
    if (best == 0) rep.fail("no ladder rung met the SLO");
    rep.add("slo_krps", best, "kreq/s", "p99 <= 200 us, no growing backlog",
            false);
  }
  if (w.repl) {  // sub-seed 0
    rep.add("failover_us", s.failover_us, "us",
            "detect " + std::to_string(s.detect_us) + " us", false);
    rep.add("restart_us", s.restart_us, "us",
            count_note(s.acked_keys) + " acked keys byte-checked", false);
  }
  std::filesystem::create_directories(a.out_dir);
  spans.write(a.out_dir + "/host_spans_" + w.name + "_e2e.json");
  rep.print(attempted, failed);
  return rep.correct() ? 0 : 1;
}

int run_layers(const Workload& w, const Args& a) {
  Report rep;
  HostSpans spans;
  std::filesystem::create_directories(a.out_dir);
  const double start = host_now();
  std::vector<RepResult> plain, traced;
  // Untraced and traced repetitions of each sub-seed in turn; half the
  // budget goes here, the rest to the wall-clock benches.
  repeat(w, a.seconds / 2, 2, [&](std::size_t i, std::size_t sub) {
    RepOptions o;
    o.seed = sub_seed(a.seed, static_cast<int>(sub));
    double t = host_now();
    plain.push_back(run_rep(w, o));
    spans.add_rep("untraced" + std::to_string(i + 1), t, plain.back().host);
    o.trace = true;
    if (i == 0) o.trace_path = a.out_dir + "/trace_" + w.name + ".json";
    t = host_now();
    traced.push_back(run_rep(w, o));
    spans.add_rep("traced" + std::to_string(i + 1), t, traced.back().host);
  });
  const auto k = static_cast<std::size_t>(w.sub_seeds);
  for (std::size_t i = 0; i < plain.size(); i++) {
    if (!(traced[i].sim == plain[i].sim) || !(plain[i].sim == plain[i % k].sim)) {
      rep.fail("traced simulated results differ from untraced");
      break;
    }
  }
  const SimResult& s = plain[0].sim;
  u64 attempted = 0, failed = 0;
  for (const auto& r : plain) {
    attempted += r.sim.attempted;
    failed += r.sim.failed;
  }
  if (failed != 0) rep.fail("failed_frac > 0");

  // Link-cut self-test: a short run whose server link drops mid-window
  // must report failures (unanswered requests and readbacks).
  {
    Workload cut = *find_workload("put1k_closed");
    cut.pm_size = 64u << 20;
    cut.warmup_ns = 5'000'000;
    cut.measure_ns = 10'000'000;
    cut.keyspace = 256;
    RepOptions o;
    o.seed = a.seed;
    o.cut_link_mid_window = true;
    const double t = host_now();
    const RepResult r = run_rep(cut, o);
    spans.add("selftest_linkcut", t, host_now() - t);
    const double frac = static_cast<double>(r.sim.failed) /
                        static_cast<double>(std::max<u64>(1, r.sim.attempted));
    std::printf("  selftest link cut mid-window: failed_frac %.6f (%llu of "
                "%llu attempted) -> %s\n",
                frac, static_cast<unsigned long long>(r.sim.failed),
                static_cast<unsigned long long>(r.sim.attempted),
                r.sim.failed > 0 ? "detected" : "MISSED");
    if (r.sim.failed == 0) rep.fail("link-cut self-test reported no failures");
  }

  const std::vector<LayerTiming> timings =
      run_layer_benches(w, a.seed, [&](const std::string& name, double t0) {
        spans.add("layer." + name, t0, host_now() - t0);
      });
  std::map<std::string, const LayerTiming*> by_name;
  for (const auto& t : timings) by_name[t.name] = &t;
  auto wall = [&](const std::string& name) {
    const LayerTiming& t = *by_name.at(name);
    rep.add(t.name, t.value, t.unit, count_note(t.samples) + ", " + t.shape);
  };

  // Traced-run [S] and [D] numbers come from the first traced repetition
  // (simulated values are identical in every one); host spans are medians.
  // Stage times that some workload never exercises (its mechanism is
  // bypassed there) are printed but left out of the JSON.
  const LayerSim& L = traced[0].layer;
  auto stage = [&](papm::obs::Stage st) {
    return L.stage_us[static_cast<int>(st)];
  };
  auto host_median = [&](auto&& field) {
    std::vector<double> v;
    for (const auto& r : traced) v.push_back(field(r.host));
    return median(v);
  };
  std::vector<double> plain_win, traced_win;
  for (const auto& r : plain) plain_win.push_back(r.host.window);
  for (const auto& r : traced) traced_win.push_back(r.host.window);
  const std::string spr = "per request";
  const std::string reps_note =
      "median of " + std::to_string(traced.size()) + " traced reps";

  wall("sim.event_ns");
  wall("pm.device_init_s");
  wall("pm.store_clwb_ns");
  wall("pm.sfence_ns");
  wall("pm.epoch_close_ns");
  rep.add("pm.clone_ms", host_median([](const HostTimes& h) { return h.clone_ms; }),
          "ms", "clone_persisted of the server image, " + reps_note);
  rep.add("pm.clwb_per_op", L.clwb_per_op, "count", "window ops");
  rep.add("pm.sfence_per_op", L.sfence_per_op, "count", "window ops");
  rep.add("pm.persist_us", stage(papm::obs::Stage::persist), "us", spr, false);
  wall("container.put_ns");
  wall("container.get_ns");
  rep.add("container.alloc_index_us", stage(papm::obs::Stage::alloc_index), "us",
          spr, false);
  rep.add("container.tower_rebuild_us", L.tower_rebuild_us, "us",
          "restart of the server image");
  wall("core.put_pkts_ns");
  wall("core.get_as_pkts_ns");
  rep.add("core.recover_ms",
          host_median([](const HostTimes& h) { return h.recover_ms; }), "ms",
          "PmPool::recover + PktStore::recover, " + reps_note);
  rep.add("core.checksum_us", stage(papm::obs::Stage::checksum), "us", spr, false);
  rep.add("core.copy_us", stage(papm::obs::Stage::copy), "us", spr, false);
  wall("common.crc32c_ns_per_kb");
  wall("common.inet_csum_ns_per_kb");
  rep.add("nic.slice_us", stage(papm::obs::Stage::slice), "us", spr, false);
  rep.add("nic.insert_us", stage(papm::obs::Stage::nic_insert), "us", spr, false);
  rep.add("nic.imbalance", L.imbalance, "ratio", "max/mean shard requests");
  rep.add("net.rx_us", stage(papm::obs::Stage::rx), "us", spr);
  rep.add("net.tx_us", stage(papm::obs::Stage::tx), "us", spr, false);
  wall("net.tcp_rx_ns");
  wall("net.pktbuf_alloc_ns");
  rep.add("net.retransmits", static_cast<double>(L.tcp_retransmits), "count",
          "server + client TCP, window", false);
  rep.add("http.parse_us", stage(papm::obs::Stage::parse), "us", spr);
  rep.add("repl.quorum_us", stage(papm::obs::Stage::repl), "us", spr, false);
  rep.add("repl.apply_us", L.repl_apply_us, "us", "per replica apply span",
          false);
  rep.add("repl.forwards_per_op", L.repl_forwards_per_op, "count", "window ops",
          false);
  rep.add("repl.retransmits", static_cast<double>(L.repl_retransmits), "count",
          "window", false);
  rep.add("repl.detect_us", s.detect_us, "us", "cut -> first suspect", false);
  rep.add("app.cpu_util", L.cpu_util, "ratio", "server cores, window-clipped");
  rep.add("app.wait_us", L.wait_us, "us",
          "mean latency - sum of server stage self-times");
  rep.add("app.setup_hosts_s",
          host_median([](const HostTimes& h) { return h.setup_hosts; }), "s",
          reps_note);
  rep.add("app.prime_s", host_median([](const HostTimes& h) { return h.prime; }),
          "s", reps_note, false);
  rep.add("app.warmup_s", host_median([](const HostTimes& h) { return h.warmup; }),
          "s", reps_note);
  rep.add("obs.trace_overhead", median(traced_win) / median(plain_win) - 1.0,
          "ratio",
          "traced / untraced window host time - 1, " +
              std::to_string(traced.size()) + " pairs, " +
              std::to_string(L.trace_spans) + " spans");

  std::printf("perfbench %s seed=%llu trace=1: %zu untraced + %zu traced reps, "
              "%zu wall-clock layer benches in %.2f s; trace %s/trace_%s.json\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              plain.size(), traced.size(), timings.size(), host_now() - start,
              a.out_dir.c_str(), w.name.c_str());
  spans.write(a.out_dir + "/host_spans_" + w.name + "_layers.json");
  rep.print(attempted, failed);
  return rep.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  const auto w = perfbench::find_workload(a.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (have:",
                 a.workload.c_str());
    for (const auto& n : perfbench::workload_names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }
  try {
    return a.trace == 0 ? perfbench::run_e2e(*w, a)
                        : perfbench::run_layers(*w, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
