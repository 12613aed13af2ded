// Shared bench plumbing: `--json <path>` output for machine-readable
// results alongside the human tables.
//
// The writer emits fixed-precision numbers (%.6f) so that two runs with
// the same seed and configuration produce byte-identical files — the
// determinism contract the scaling experiments assert. (The metadata
// block carries the varying context — git sha, build flags — so files
// stay comparable across builds without breaking that contract within
// one build.)
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "pm/pm_device.h"
#include "sim/cost_model.h"

namespace papm::benchio {

// Bump when the emitted record shape changes incompatibly.
// v3: per-record flush-cost fields (clwb_per_op / sfence_per_op /
//     bytes_flushed_per_op) — the group/epoch-commit persistence bill.
// v4: open-loop / tail-latency fields (p50_us / p99_us / p999_us,
//     deadline_miss_rate, offered_krps) and shard-balance fields
//     (imbalance, bucket_moves, conns_migrated, indir_remaps). The v3
//     flush fields remain unchanged alongside them.
// v5: optional `cost_model` nested object (write_cost_model, behind the
//     --cost-model flag) recording every calibrated constant the run
//     used, making BENCH_*.json self-describing without cost_model.h at
//     the matching sha. Prior fields unchanged.
// v6: replication / availability fields (bench_repl): `quorum`,
//     `repl_tax_ns` (mean added ack latency per quorum-gated op),
//     `degraded_acks`, and the failover records' `detect_us` /
//     `failover_us` / `acked_puts` / `acked_lost`. Prior fields
//     unchanged.
// v7: telemetry-plane fields — bench_openloop's `admin` /
//     `admin_requests` / `admin_scrapes` / `flightrec_records` /
//     `flightrec_wraps` / `trace_dropped` and the --admin-overhead
//     record's `p99_base_us` / `p99_admin_us` / `overhead_pct`;
//     bench_recovery's flightrec records (`cut_event`, `fr_valid`,
//     `fr_invalid`, `fr_acked`, `fr_lost`, `fr_phantoms`). Prior fields
//     unchanged.
inline constexpr long long kSchemaVersion = 7;

// Returns the value following `flag`, or empty if absent.
inline std::string arg_value(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i + 1 < argc; i++) {
    if (std::string_view(argv[i]) == flag) return argv[i + 1];
  }
  return {};
}

// Returns the value following "--json", or empty if absent.
inline std::string json_path_from_args(int argc, char** argv) {
  return arg_value(argc, argv, "--json");
}

inline bool has_flag(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; i++) {
    if (std::string_view(argv[i]) == flag) return true;
  }
  return false;
}

// Minimal append-only JSON builder: enough for flat benchmark records,
// nothing clever. All floating-point fields go through %.6f.
class JsonWriter {
 public:
  void begin_object() { open("{"); }
  // Keyed nested object: `"key": {...}` (the cost_model block).
  void begin_object(std::string_view key) {
    pad();
    out_ += '"';
    out_ += key;
    out_ += "\": {";
    fresh_ = true;
  }
  void end_object() { close("}"); }
  void begin_array(std::string_view key) {
    pad();
    out_ += '"';
    out_ += key;
    out_ += "\": [";
    fresh_ = true;
  }
  void end_array() { close("]"); }

  void field(std::string_view key, std::string_view v) {
    pad();
    kv(key);
    out_ += '"';
    out_ += v;
    out_ += '"';
  }
  void field(std::string_view key, double v) {
    pad();
    kv(key);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    out_ += buf;
  }
  void field(std::string_view key, long long v) {
    pad();
    kv(key);
    out_ += std::to_string(v);
  }

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fwrite(out_.data(), 1, out_.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
  }

 private:
  void kv(std::string_view key) {
    out_ += '"';
    out_ += key;
    out_ += "\": ";
  }
  void pad() {
    if (!fresh_) out_ += ", ";
    fresh_ = false;
  }
  void open(std::string_view tok) {
    pad();
    out_ += tok;
    fresh_ = true;
  }
  void close(std::string_view tok) {
    out_ += tok;
    fresh_ = false;
  }

  std::string out_;
  bool fresh_ = true;
};

// Emits the shared provenance block every bench record starts with:
// schema version, the commit the binary was built from and the build
// type. Call right after begin_object().
inline void write_metadata(JsonWriter& w, std::string_view bench) {
  w.field("schema", kSchemaVersion);
  w.field("bench", bench);
#ifdef PAPM_GIT_SHA
  w.field("git_sha", PAPM_GIT_SHA);
#else
  w.field("git_sha", "unknown");
#endif
#ifdef NDEBUG
  w.field("build", "release");
#else
  w.field("build", "debug");
#endif
}

// Emits the per-op flush-cost fields of schema v3: the persistence bill
// a run actually paid, normalized over the ops the measurement window
// completed. Group commit shows up here as clwb_per_op dropping toward
// the pure content-line count and sfence_per_op toward ~1/epoch.
inline void write_flush_per_op(JsonWriter& w, const pm::PmDevice::FlushEpoch& f,
                               u64 ops) {
  const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
  w.field("clwb_per_op", static_cast<double>(f.clwb) / n);
  w.field("sfence_per_op", static_cast<double>(f.sfence) / n);
  w.field("bytes_flushed_per_op", static_cast<double>(f.bytes_flushed) / n);
}

// Emits every calibrated constant of the cost model the run used (the
// schema-v5 `cost_model` nested object, behind each bench's --cost-model
// flag). Caller brackets with begin_object("cost_model") / end_object().
// Keep in sync with sim::CostModel — this is the self-description that
// makes a BENCH_*.json reproducible without cost_model.h at its sha.
inline void write_cost_model(JsonWriter& w, const sim::CostModel& c) {
  w.field("dram_read_ns", static_cast<long long>(c.dram_read_ns));
  w.field("pm_read_ns", static_cast<long long>(c.pm_read_ns));
  w.field("dram_write_ns", static_cast<long long>(c.dram_write_ns));
  w.field("pm_write_ns", static_cast<long long>(c.pm_write_ns));
  w.field("clwb_ns", static_cast<long long>(c.clwb_ns));
  w.field("sfence_ns", static_cast<long long>(c.sfence_ns));
  w.field("crc32c_ns_per_byte", c.crc32c_ns_per_byte);
  w.field("crc32c_fixed_ns", static_cast<long long>(c.crc32c_fixed_ns));
  w.field("inet_csum_ns_per_byte", c.inet_csum_ns_per_byte);
  w.field("inet_csum_fixed_ns", static_cast<long long>(c.inet_csum_fixed_ns));
  w.field("copy_ns_per_byte", c.copy_ns_per_byte);
  w.field("copy_fixed_ns", static_cast<long long>(c.copy_fixed_ns));
  w.field("dram_stream_ns_per_byte", c.dram_stream_ns_per_byte);
  w.field("request_prep_ns", static_cast<long long>(c.request_prep_ns));
  w.field("pktstore_prep_ns", static_cast<long long>(c.pktstore_prep_ns));
  w.field("pm_alloc_ns", static_cast<long long>(c.pm_alloc_ns));
  w.field("pm_free_ns", static_cast<long long>(c.pm_free_ns));
  w.field("heap_alloc_ns", static_cast<long long>(c.heap_alloc_ns));
  w.field("pool_alloc_ns", static_cast<long long>(c.pool_alloc_ns));
  w.field("batched_prep_scale", c.batched_prep_scale);
  w.field("batched_warm_scale", c.batched_warm_scale);
  w.field("client_stack_tx_ns", static_cast<long long>(c.client_stack_tx_ns));
  w.field("client_stack_rx_ns", static_cast<long long>(c.client_stack_rx_ns));
  w.field("client_http_build_ns",
          static_cast<long long>(c.client_http_build_ns));
  w.field("client_http_parse_ns",
          static_cast<long long>(c.client_http_parse_ns));
  w.field("server_stack_rx_ns", static_cast<long long>(c.server_stack_rx_ns));
  w.field("server_stack_tx_ns", static_cast<long long>(c.server_stack_tx_ns));
  w.field("server_http_parse_ns",
          static_cast<long long>(c.server_http_parse_ns));
  w.field("server_http_build_ns",
          static_cast<long long>(c.server_http_build_ns));
  w.field("tcp_ack_process_ns", static_cast<long long>(c.tcp_ack_process_ns));
  w.field("udp_stack_rx_ns", static_cast<long long>(c.udp_stack_rx_ns));
  w.field("udp_stack_tx_ns", static_cast<long long>(c.udp_stack_tx_ns));
  w.field("bypass_stack_rx_ns", static_cast<long long>(c.bypass_stack_rx_ns));
  w.field("bypass_stack_tx_ns", static_cast<long long>(c.bypass_stack_tx_ns));
  w.field("homa_proc_ns", static_cast<long long>(c.homa_proc_ns));
  w.field("nic_tx_ns", static_cast<long long>(c.nic_tx_ns));
  w.field("nic_rx_ns", static_cast<long long>(c.nic_rx_ns));
  w.field("nic_csum_offload_ns",
          static_cast<long long>(c.nic_csum_offload_ns));
  w.field("nic_slice_host_ns", static_cast<long long>(c.nic_slice_host_ns));
  w.field("nic_insert_doorbell_ns",
          static_cast<long long>(c.nic_insert_doorbell_ns));
  w.field("nic_insert_completion_ns",
          static_cast<long long>(c.nic_insert_completion_ns));
  w.field("nic_insert_cmd_ns", static_cast<long long>(c.nic_insert_cmd_ns));
  w.field("nic_insert_meta_ns", static_cast<long long>(c.nic_insert_meta_ns));
  w.field("wire_ns_per_byte", c.wire_ns_per_byte);
  w.field("fabric_propagation_ns",
          static_cast<long long>(c.fabric_propagation_ns));
  w.field("net_scale", c.net_scale);
}

}  // namespace papm::benchio
