// Latency/throughput statistics collection for the experiment harness.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.h"

namespace papm {

// Accumulates samples (e.g. per-request RTTs in ns) and reports summary
// statistics. Percentile queries sort the samples in place, lazily: no
// query depends on the order they were added in, and a sorted copy
// would double the memory every queried collection holds.
class Stats {
 public:
  void add(double sample) {
    samples_.push_back(sample);
    sum_ += sample;
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
  }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  // Nearest-rank percentile: the smallest sample whose cumulative
  // frequency covers p% of the distribution. p is clamped to [0, 100];
  // p <= 0 returns the minimum, empty returns 0, a single sample is
  // returned for every p. Always an actual sample — never interpolated.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] double stddev() const;

  // ASCII sketch of the sample distribution: `buckets` equal-width rows
  // between min and max, each "lo..hi | #### count". Empty stats yield
  // "(no samples)". For quick eyeballing in bench output.
  [[nodiscard]] std::string hist(int buckets = 10, int width = 40) const;

  // Folds another collection's samples into this one. Multi-client-host
  // sweeps (bench_openloop beyond the u16 ephemeral-port limit) merge
  // per-host distributions into one before taking percentiles.
  void merge_from(const Stats& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sum_ += other.sum_;
    sorted_ = false;
  }

  void clear() {
    samples_.clear();
    sum_ = 0;
    sorted_ = false;
  }

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  double sum_ = 0;
  mutable bool sorted_ = false;
};

// Formats nanoseconds as a human-readable microsecond string ("26.71").
[[nodiscard]] std::string format_us(double ns, int decimals = 2);

}  // namespace papm
