// Ablation A3 (§5.1 crash consistency): post-crash recovery time and
// correctness, for the packet-metadata store and the LSM baseline, as a
// function of resident keys.
//
// Recovery work is real: pool reattach, skip-list tower rebuild from
// level 0, chain validation and data-reference restoration. Reported
// times are simulated (cost-model) nanoseconds of that work.
//
// --crashpoints adds experiment R1: a FaultPlan (pm/fault_plan.h) cuts
// power at sampled flush/fence boundaries *inside* the write workload
// (torn lines + dirty-line eviction enabled), and the table reports, per
// crash point, how many keys survived, the simulated recovery time and
// the bytes the recovery path actually touched (total_accessed_bytes
// delta) — i.e. what recovery costs when the crash was mid-operation
// rather than at a clean boundary.
//
// --shadow-index {on,off} A/Bs the selective-persistence split
// (PSkipListOptions::shadow_towers): `on` keeps the upper index towers
// DRAM-only during operation and rebuilds them at recovery (the group-
// commit default), `off` is the persist-everything baseline. The A3
// table reports the pktstore recovery time split into the level-0
// backbone scan and the tower relink, so the flag shows exactly what the
// rebuild-at-recovery bargain costs.
// --flightrec runs the telemetry-plane counterpart of R1: a wrapping
// flight-recorder append workload under group-commit epochs, power cut
// at sampled flush/fence boundaries, each point recovering the ring and
// reconciling it against the ack stream (on_committed is the ack
// boundary). Reports valid/invalid slots, acked records lost inside the
// retention window, and phantoms (seqs never appended or torn bodies
// that survived CRC — must both be zero); exits nonzero on violation.
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/pktstore.h"
#include "obs/flightrec.h"
#include "pm/fault_plan.h"
#include "pm/flush_batch.h"
#include "storage/lsm_store.h"

using namespace papm;

namespace {

constexpr u64 kDevSize = 512u << 20;

struct PktRecovery {
  double total_ns = -1;
  double scan_ns = 0;   // level-0 backbone walk (incl. dead-node repair)
  double tower_ns = 0;  // upper-tower relink
};

PktRecovery recover_pktstore(std::size_t keys, sim::Env& env,
                             bool shadow_index) {
  pm::PmDevice dev(env, kDevSize);
  auto pool = pm::PmPool::create(dev, "pkts", dev.data_base(), kDevSize - 4096);
  pool.set_charges(env.cost.pool_alloc_ns, env.cost.pool_alloc_ns / 2);
  net::PmArena arena(dev, pool);
  net::PktBufPool pktpool(env, arena);
  core::PktStoreOptions opts;
  opts.index.shadow_towers = shadow_index;
  auto store = core::PktStore::create(pktpool, "store", opts);

  std::vector<u8> value(1024, 0xab);
  for (std::size_t i = 0; i < keys; i++) {
    if (!store.put_bytes("key" + std::to_string(i), value).ok()) return {};
  }
  dev.crash();

  const SimTime t0 = env.now();
  auto pool2 = pm::PmPool::recover(dev, "pkts");
  net::PmArena arena2(dev, pool2.value());
  net::PktBufPool pktpool2(env, arena2);
  auto rec = core::PktStore::recover(pktpool2, "store", opts);
  const SimTime elapsed = env.now() - t0;
  if (!rec.ok() || rec->size() != keys) return {};
  // Spot-check integrity.
  if (keys > 0 && !rec->verify("key0").ok()) return {};
  PktRecovery r;
  r.total_ns = static_cast<double>(elapsed);
  r.scan_ns = static_cast<double>(rec->index_recover_stats().scan_ns);
  r.tower_ns = static_cast<double>(rec->index_recover_stats().tower_ns);
  return r;
}

double recover_lsm(std::size_t keys, sim::Env& env) {
  pm::PmDevice dev(env, kDevSize);
  auto pool = pm::PmPool::create(dev, "db", dev.data_base(), kDevSize - 4096);
  auto store = storage::LsmStore::create(dev, pool, "store");

  std::vector<u8> value(1024, 0xcd);
  for (std::size_t i = 0; i < keys; i++) {
    if (!store.put("key" + std::to_string(i), value).ok()) return -1;
  }
  dev.crash();

  const SimTime t0 = env.now();
  auto pool2 = pm::PmPool::recover(dev, "db");
  auto rec = storage::LsmStore::recover(dev, pool2.value(), "store");
  const SimTime elapsed = env.now() - t0;
  if (!rec.ok() || rec->entries() != keys) return -1;
  if (keys > 0 && !rec->get("key0").ok()) return -1;
  return static_cast<double>(elapsed);
}

// --- R1: recovery vs crash point -----------------------------------------

constexpr std::size_t kCpKeys = 256;  // 1 KB puts in the injected workload
constexpr u64 kCpDevSize = 32u << 20;

pm::FaultPlan crashpoint_plan(u64 cut) {
  pm::FaultPlan plan;  // the full failure model: reorder + tear + evict
  plan.crash_at_event = cut;
  plan.unfenced_drain_p = 0.4;
  plan.tear_p = 0.75;
  plan.evict_dirty_p = 0.35;
  plan.seed = 7;
  return plan;
}

struct CrashPointRow {
  u64 events = 0;          // boundaries reached before the cut
  std::size_t keys = 0;    // keys visible after recovery
  double recover_us = -1;  // simulated recovery time
  double scanned_kb = 0;   // bytes recovery touched on the device
};

// cut == 0: run the full workload (counting boundaries), cut at the end.
CrashPointRow crashpoint_pktstore(u64 cut) {
  sim::Env env;
  pm::PmDevice dev(env, kCpDevSize);
  auto pool = pm::PmPool::create(dev, "pkts", dev.data_base(), kCpDevSize - 4096);
  pool.set_charges(env.cost.pool_alloc_ns, env.cost.pool_alloc_ns / 2);
  net::PmArena arena(dev, pool);
  net::PktBufPool pktpool(env, arena);
  auto store = core::PktStore::create(pktpool, "store");
  dev.set_fault_plan(crashpoint_plan(cut));
  std::vector<u8> value(1024, 0xab);
  try {
    for (std::size_t i = 0; i < kCpKeys; i++) {
      if (!store.put_bytes("key" + std::to_string(i), value).ok()) return {};
    }
    dev.crash();
  } catch (const pm::PowerFailure&) {
  }
  CrashPointRow row;
  row.events = dev.fault_events();
  dev.clear_fault_plan();
  const u64 bytes0 = dev.total_accessed_bytes();
  const SimTime t0 = env.now();
  auto pool2 = pm::PmPool::recover(dev, "pkts");
  if (!pool2.ok()) return row;
  net::PmArena arena2(dev, pool2.value());
  net::PktBufPool pktpool2(env, arena2);
  auto rec = core::PktStore::recover(pktpool2, "store");
  if (!rec.ok()) return row;
  row.recover_us = static_cast<double>(env.now() - t0) / 1000.0;
  row.scanned_kb = static_cast<double>(dev.total_accessed_bytes() - bytes0) / 1024.0;
  row.keys = rec->size();
  return row;
}

CrashPointRow crashpoint_lsm(u64 cut) {
  sim::Env env;
  pm::PmDevice dev(env, kCpDevSize);
  auto pool = pm::PmPool::create(dev, "db", dev.data_base(), kCpDevSize - 4096);
  auto store = storage::LsmStore::create(dev, pool, "store");
  dev.set_fault_plan(crashpoint_plan(cut));
  std::vector<u8> value(1024, 0xcd);
  try {
    for (std::size_t i = 0; i < kCpKeys; i++) {
      if (!store.put("key" + std::to_string(i), value).ok()) return {};
    }
    dev.crash();
  } catch (const pm::PowerFailure&) {
  }
  CrashPointRow row;
  row.events = dev.fault_events();
  dev.clear_fault_plan();
  const u64 bytes0 = dev.total_accessed_bytes();
  const SimTime t0 = env.now();
  auto pool2 = pm::PmPool::recover(dev, "db");
  if (!pool2.ok()) return row;
  auto rec = storage::LsmStore::recover(dev, pool2.value(), "store");
  if (!rec.ok()) return row;
  row.recover_us = static_cast<double>(env.now() - t0) / 1000.0;
  row.scanned_kb = static_cast<double>(dev.total_accessed_bytes() - bytes0) / 1024.0;
  row.keys = rec->entries();
  return row;
}

void run_crashpoints() {
  std::printf(
      "=== R1: recovery time & bytes scanned vs crash point "
      "(%zu x 1KB puts, tear+evict fault plan) ===\n",
      kCpKeys);
  std::printf("%9s %10s %6s %10s %12s %12s\n", "backend", "cutpoint", "pct",
              "keys", "recover[us]", "scanned[KB]");
  for (int backend = 0; backend < 2; backend++) {
    const char* name = backend == 0 ? "pktstore" : "lsm";
    auto run = backend == 0 ? crashpoint_pktstore : crashpoint_lsm;
    const u64 total = run(0).events;  // boundary count of the full workload
    for (int i = 1; i <= 8; i++) {
      const u64 cut = total * static_cast<u64>(i) / 8;
      const CrashPointRow row = run(cut);
      std::printf("%9s %10llu %5.0f%% %10zu %12.1f %12.1f\n", name,
                  static_cast<unsigned long long>(cut),
                  100.0 * static_cast<double>(cut) / static_cast<double>(total),
                  row.keys, row.recover_us, row.scanned_kb);
    }
  }
  std::printf(
      "\n(cutpoint = flush/fence boundary index at which power was cut;\n"
      " keys counts survivors — the in-flight put may land or vanish;\n"
      " scanned = device bytes the recovery path touched)\n");
}

// --- Flight-recorder crash sweep (--flightrec) ----------------------------

constexpr u32 kFrCap = 64;        // ring slots; the workload wraps it 4x
constexpr std::size_t kFrOps = 256;
constexpr u64 kFrDevSize = 8u << 20;

obs::FlightRecord fr_record_of(u64 seq) {
  obs::FlightRecord r;
  r.req = 0x100000 + seq;
  r.t0_ns = seq * 131;
  for (std::size_t s = 0; s < obs::kStages; s++) {
    r.stage_ns[s] = static_cast<u32>(seq * 1000 + s);
  }
  r.result = 201;
  r.op = 'P';
  return r;
}

struct FrRow {
  u64 cut = 0;         // boundary index at which power was cut
  u64 events = 0;      // boundaries the run reached
  u64 appended = 0;    // appends started before the cut
  u64 acked = 0;       // on_committed fired (group-commit fence #2)
  u64 valid = 0;       // CRC-valid slots the scan recovered
  u64 invalid = 0;     // torn / stale slots the scan rejected
  u64 lost_acked = 0;  // acked, inside the retention window, missing
  u64 phantoms = 0;    // recovered seq never appended, or body mismatch
  bool recovered = false;
};

// cut == 0: run the full workload (counting boundaries), cut at the end.
FrRow flightrec_point(u64 cut) {
  sim::Env env;
  pm::PmDevice dev(env, kFrDevSize);
  auto pool = pm::PmPool::create(dev, "fr", dev.data_base(), kFrDevSize / 2);
  auto made = obs::FlightRecorder::create(dev, pool, 0, kFrCap);
  FrRow row;
  row.cut = cut;
  if (!made.ok()) return row;
  obs::FlightRecorder fr = std::move(made.value());
  pm::GroupCommitPolicy pol;
  pol.max_epoch_ops = 8;  // < kFrCap: the newest ack is never reclaimed
  pol.max_deferral_ns = 1'000'000'000;
  pm::FlushBatcher batcher(dev, pol);
  batcher.register_pool(pool);
  fr.set_batcher(batcher);
  dev.set_fault_plan(crashpoint_plan(cut));
  std::set<u64> acked;
  u64 appended = 0;
  try {
    for (std::size_t i = 0; i < kFrOps; i++) {
      batcher.begin_op(true, 0);
      appended++;
      const u64 seq = fr.append(fr_record_of(appended));
      batcher.on_committed([&acked, seq] { acked.insert(seq); });
      batcher.end_op();
    }
    batcher.deactivate();
    dev.crash();
  } catch (const pm::PowerFailure&) {
  }
  row.events = dev.fault_events();
  dev.clear_fault_plan();
  row.appended = appended;
  row.acked = acked.size();
  auto rec = obs::FlightRecorder::recover(dev, 0);
  if (!rec.ok()) return row;
  row.recovered = true;
  obs::FlightRecorder::ScanStats st;
  const auto flights = rec.value().scan(&st);
  row.valid = st.valid;
  row.invalid = st.invalid;
  std::set<u64> seen;
  for (const auto& f : flights) {
    bool ok = f.seq >= 1 && f.seq <= appended && seen.insert(f.seq).second;
    if (ok) {
      const obs::FlightRecord want = fr_record_of(f.seq);
      ok = f.rec.req == want.req && f.rec.t0_ns == want.t0_ns &&
           std::memcmp(f.rec.stage_ns, want.stage_ns,
                       sizeof want.stage_ns) == 0 &&
           f.rec.result == want.result && f.rec.op == want.op;
    }
    if (!ok) row.phantoms++;
  }
  for (const u64 k : acked) {
    // A later append may legitimately reclaim an acked slot; only seqs
    // still inside the retention window are guaranteed recoverable.
    if (k + kFrCap <= appended) continue;
    if (!seen.contains(k)) row.lost_acked++;
  }
  return row;
}

int run_flightrec(const std::string& json_path) {
  std::printf(
      "=== Flight recorder: recovered prefix vs crash point "
      "(%zu appends, %u-slot ring, tear+evict fault plan) ===\n",
      kFrOps, kFrCap);
  const u64 total = flightrec_point(0).events;
  if (total == 0) {
    std::fprintf(stderr, "bench_recovery: flightrec produced no boundaries\n");
    return 1;
  }
  std::printf("%10s %5s %9s %7s %7s %9s %6s %9s\n", "cutpoint", "pct",
              "appended", "acked", "valid", "invalid", "lost", "phantoms");
  // Dense sweep: every boundary when cheap, else <= 64 sampled points.
  const u64 stride = total > 64 ? (total + 63) / 64 : 1;
  std::vector<FrRow> rows;
  u64 lost = 0, phantoms = 0, unrecovered = 0;
  for (u64 cut = 1; cut <= total; cut += stride) {
    rows.push_back(flightrec_point(cut));
    const FrRow& r = rows.back();
    lost += r.lost_acked;
    phantoms += r.phantoms;
    if (!r.recovered) unrecovered++;
  }
  const std::size_t print_stride = rows.size() > 8 ? rows.size() / 8 : 1;
  for (std::size_t i = 0; i < rows.size(); i++) {
    if (i % print_stride != 0 && i != rows.size() - 1) continue;
    const FrRow& r = rows[i];
    std::printf("%10llu %4.0f%% %9llu %7llu %7llu %9llu %6llu %9llu%s\n",
                static_cast<unsigned long long>(r.cut),
                100.0 * static_cast<double>(r.cut) / static_cast<double>(total),
                static_cast<unsigned long long>(r.appended),
                static_cast<unsigned long long>(r.acked),
                static_cast<unsigned long long>(r.valid),
                static_cast<unsigned long long>(r.invalid),
                static_cast<unsigned long long>(r.lost_acked),
                static_cast<unsigned long long>(r.phantoms),
                r.recovered ? "" : "  [RECOVERY FAILED]");
  }
  std::printf(
      "\n(%zu crash points swept; lost counts acked records missing from\n"
      " the recovered ring while still inside the %u-slot retention\n"
      " window; phantoms counts recovered records never appended or with\n"
      " torn bodies — both columns must be zero)\n",
      rows.size(), kFrCap);
  if (!json_path.empty()) {
    benchio::JsonWriter w;
    w.begin_object();
    benchio::write_metadata(w, "recovery_flightrec");
    w.field("ops", static_cast<long long>(kFrOps));
    w.field("ring_slots", static_cast<long long>(kFrCap));
    w.field("boundaries", static_cast<long long>(total));
    w.begin_array("results");
    for (const FrRow& r : rows) {
      w.begin_object();
      w.field("cut_event", static_cast<long long>(r.cut));
      w.field("appended", static_cast<long long>(r.appended));
      w.field("fr_acked", static_cast<long long>(r.acked));
      w.field("fr_valid", static_cast<long long>(r.valid));
      w.field("fr_invalid", static_cast<long long>(r.invalid));
      w.field("fr_lost", static_cast<long long>(r.lost_acked));
      w.field("fr_phantoms", static_cast<long long>(r.phantoms));
      w.field("recovered", static_cast<long long>(r.recovered ? 1 : 0));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!w.write(json_path)) {
      std::fprintf(stderr, "bench_recovery: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s (%zu records)\n", json_path.c_str(), rows.size());
  }
  if (lost != 0 || phantoms != 0 || unrecovered != 0) {
    std::fprintf(stderr,
                 "bench_recovery: FAIL flightrec lost=%llu phantoms=%llu "
                 "unrecovered=%llu\n",
                 static_cast<unsigned long long>(lost),
                 static_cast<unsigned long long>(phantoms),
                 static_cast<unsigned long long>(unrecovered));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (benchio::has_flag(argc, argv, "--flightrec")) {
    return run_flightrec(benchio::json_path_from_args(argc, argv));
  }
  if (benchio::has_flag(argc, argv, "--crashpoints")) {
    run_crashpoints();
    return 0;
  }
  const std::string shadow_arg = benchio::arg_value(argc, argv, "--shadow-index");
  if (!shadow_arg.empty() && shadow_arg != "on" && shadow_arg != "off") {
    std::fprintf(stderr, "bench_recovery: --shadow-index takes on|off\n");
    return 2;
  }
  const bool shadow = shadow_arg != "off";  // default: the group-commit split
  std::printf(
      "=== A3: crash-recovery time vs resident keys (1KB values, "
      "shadow-index %s) ===\n",
      shadow ? "on" : "off");
  std::printf("%10s %16s %12s %12s %16s\n", "keys", "pktstore[us]",
              "scan[us]", "towers[us]", "lsm[us]");
  for (const std::size_t keys : {1000u, 4000u, 16000u, 64000u}) {
    sim::Env env_a, env_b;
    const PktRecovery a = recover_pktstore(keys, env_a, shadow);
    const double b = recover_lsm(keys, env_b);
    std::printf("%10zu %16.1f %12.1f %12.1f %16.1f\n", keys, a.total_ns / 1000.0,
                a.scan_ns / 1000.0, a.tower_ns / 1000.0, b / 1000.0);
  }
  std::printf(
      "\n(recovery rebuilds skip-list towers from level 0 and re-registers\n"
      " packet-data references; it scales linearly with resident keys.\n"
      " scan/towers split the pktstore index-recovery time; run with\n"
      " --shadow-index off for the persist-everything baseline)\n");
  return 0;
}
