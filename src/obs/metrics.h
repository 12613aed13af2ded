// Observability: counters, gauges and fixed-bucket histograms.
//
// The paper's core evidence is an *attribution* measurement (Table 1
// splits a 34.79 µs RTT into seven rows); this module lets the running
// system answer the same question about itself. Design constraints:
//
//   * near-zero hot-path cost: metrics live in per-shard MetricRegistry
//     instances (one per datapath shard — shared-nothing, like the rest
//     of the datapath) and are merged by name only at report time.
//     Subsystems register once at construction, cache the returned
//     pointer, and the hot-path hook is a single inlined increment;
//   * free in simulated time: hooks charge no cost-model time, so bench
//     numbers are identical whether or not anything is wired or read;
//   * static metric names: every registered name is a string literal
//     (scripts/check_docs.sh greps them and fails the lint when a name
//     is undocumented in docs/OBSERVABILITY.md). Shard identity is the
//     registry *instance*, never a name suffix, so merges line up.
#pragma once

#include <bit>
#include <cstddef>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace papm::obs {

// Monotonic event count; merged by summing.
class Counter {
 public:
  void add(u64 n = 1) noexcept { v_ += n; }
  [[nodiscard]] u64 value() const noexcept { return v_; }
  void merge_from(const Counter& o) noexcept { v_ += o.v_; }
  void reset() noexcept { v_ = 0; }

 private:
  u64 v_ = 0;
};

// High-water mark (e.g. dirty-line peak); merged by taking the max.
class Gauge {
 public:
  void set(u64 v) noexcept { v_ = v; }
  void peak(u64 v) noexcept {
    if (v > v_) v_ = v;
  }
  [[nodiscard]] u64 value() const noexcept { return v_; }
  void merge_from(const Gauge& o) noexcept { peak(o.v_); }
  void reset() noexcept { v_ = 0; }

 private:
  u64 v_ = 0;
};

// Fixed power-of-two-bucket histogram over u64 samples (typically ns).
// 64 buckets cover the full u64 range, so observe() never branches on
// configuration — one bsr + three increments.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(u64 v) noexcept {
    buckets_[bucket_of(v)]++;
    count_++;
    sum_ += v;
  }

  [[nodiscard]] u64 count() const noexcept { return count_; }
  [[nodiscard]] u64 sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] u64 bucket(int i) const noexcept { return buckets_[i]; }

  // Upper-bound estimate of the q-quantile (q in [0,1]): the upper edge
  // of the bucket holding the nearest-rank sample. Coarse by design —
  // exact latency percentiles come from Stats; this is the cheap
  // always-on sketch.
  [[nodiscard]] u64 quantile_upper(double q) const noexcept;

  void merge_from(const Histogram& o) noexcept {
    for (int i = 0; i < kBuckets; i++) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
    sum_ += o.sum_;
  }

  void reset() noexcept { *this = Histogram{}; }

  // Bucket i holds values in [2^(i-1)+1 .. 2^i] (bucket 0: {0, 1};
  // bucket 63 additionally absorbs everything above 2^63).
  [[nodiscard]] static int bucket_of(u64 v) noexcept {
    if (v <= 1) return 0;
    const int b = 64 - std::countl_zero(v - 1);
    return b > 63 ? 63 : b;
  }
  [[nodiscard]] static u64 bucket_upper(int i) noexcept {
    return i >= 63 ? ~0ULL : (1ULL << i);
  }

 private:
  u64 buckets_[kBuckets] = {};
  u64 count_ = 0;
  u64 sum_ = 0;
};

// A named set of metrics. One instance per datapath shard (plus one per
// host for shard-less subsystems like the PM device); never shared
// between cores, so registration and increments need no locks. Merging
// is associative and commutative: counters sum, gauges max, histograms
// add bucket-wise — merge order never changes the report.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(MetricRegistry&&) = default;
  MetricRegistry& operator=(MetricRegistry&&) = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Registration: returns a stable pointer (metrics live in deques).
  // Re-registering a name returns the existing instance, so two
  // subsystems may share a counter deliberately.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Report-time merge: pulls `o`'s values into this registry, creating
  // missing names. Associative; safe across shard registries.
  void merge_from(const MetricRegistry& o);

  // Zeroes every value, keeping registrations (and cached pointers in
  // subsystems) valid — the warmup/measure boundary of a bench run.
  void reset_values() noexcept;

  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + hists_.size();
  }

  // Human-readable table, sorted by name. Histograms render count/mean/
  // p50/p99 upper-bound estimates.
  [[nodiscard]] std::string report() const;

  // Machine-readable flat JSON object:
  //   {"counters":{...},"gauges":{...},
  //    "histograms":{"name":{"count":..,"sum":..,"mean":..}}}
  [[nodiscard]] std::string to_json() const;

  // Iteration (sorted by name) for custom exporters.
  template <typename Fn>
  void each_counter(Fn&& fn) const {
    for (const auto& n : sorted_names(counter_idx_)) {
      fn(n, counters_[counter_idx_.at(n)]);
    }
  }
  template <typename Fn>
  void each_gauge(Fn&& fn) const {
    for (const auto& n : sorted_names(gauge_idx_)) fn(n, gauges_[gauge_idx_.at(n)]);
  }
  template <typename Fn>
  void each_histogram(Fn&& fn) const {
    for (const auto& n : sorted_names(hist_idx_)) fn(n, hists_[hist_idx_.at(n)]);
  }

 private:
  static std::vector<std::string> sorted_names(
      const std::unordered_map<std::string, std::size_t>& idx);

  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> hists_;
  std::unordered_map<std::string, std::size_t> counter_idx_;
  std::unordered_map<std::string, std::size_t> gauge_idx_;
  std::unordered_map<std::string, std::size_t> hist_idx_;
};

// --- Hot-path hooks ------------------------------------------------------
// Subsystems hold nullable pointers obtained at registration and call
// these. Null-safe, so unwired components cost one predictable branch.

inline void inc(Counter* c, u64 n = 1) noexcept {
  if (c != nullptr) c->add(n);
}

inline void peak(Gauge* g, u64 v) noexcept {
  if (g != nullptr) g->peak(v);
}

inline void observe(Histogram* h, u64 v) noexcept {
  if (h != nullptr) h->observe(v);
}

}  // namespace papm::obs
