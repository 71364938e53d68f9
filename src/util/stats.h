// Streaming statistics accumulators used by the benchmark harness.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace bftbc {

// Accumulates samples; computes count/mean/min/max/stddev/percentiles.
// Percentiles keep all samples (fine at bench scale: <10^7 samples).
//
// Empty-summary contract: every statistic on a zero-sample Summary
// returns the defined sentinel 0.0 (never indexes the empty sample
// vector — benches routinely print summaries for scenarios that
// recorded nothing).
class Summary {
 public:
  void add(double x);

  // Appends all of `other`'s samples (bench pipeline: fold per-cluster
  // summaries into one report-level summary).
  void merge(const Summary& other);

  std::size_t count() const { return samples_.size(); }
  double mean() const;
  // min()/max() are O(1): tracked as running values in add()/merge(),
  // independent of the sorted-percentile cache.
  double min() const;
  double max() const;
  double stddev() const;
  // q in [0,1] (clamped); nearest-rank on the sorted samples.
  //
  // The sorted view is cached: reading several percentiles from a sealed
  // summary sorts once; any add() afterwards invalidates the cache so
  // the next read re-sorts (pinned by SummaryTest.AddAfterRead...).
  double percentile(double q) const;
  double median() const { return percentile(0.5); }
  double p99() const { return percentile(0.99); }

  // All emission-relevant statistics in one struct, computed with a
  // single sort — what the metrics JSON pipeline reads.
  struct Snapshot {
    std::size_t count = 0;
    double mean = 0, min = 0, max = 0, stddev = 0;
    double p50 = 0, p90 = 0, p99 = 0, p999 = 0;
  };
  Snapshot snapshot() const;

  // One-line rendering for bench output.
  std::string to_string() const;

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  double sum_ = 0;
  double sum_sq_ = 0;
  // Running extrema (meaningful only while samples_ is non-empty).
  double min_ = 0;
  double max_ = 0;
};

// Integer-valued histogram (e.g. "number of phases a write took").
class Histogram {
 public:
  void add(std::int64_t v) { ++buckets_[v]; ++total_; }

  void merge(const Histogram& other) {
    for (const auto& [v, c] : other.buckets_) buckets_[v] += c;
    total_ += other.total_;
  }

  std::uint64_t total() const { return total_; }
  std::uint64_t count_of(std::int64_t v) const {
    auto it = buckets_.find(v);
    return it == buckets_.end() ? 0 : it->second;
  }
  double fraction_of(std::int64_t v) const {
    return total_ == 0 ? 0.0 : static_cast<double>(count_of(v)) / total_;
  }
  std::int64_t max_value() const {
    return buckets_.empty() ? 0 : buckets_.rbegin()->first;
  }
  double mean() const;

  const std::map<std::int64_t, std::uint64_t>& buckets() const {
    return buckets_;
  }

  // e.g. "2:914 3:86" — value:count pairs.
  std::string to_string() const;

 private:
  std::map<std::int64_t, std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
};

// Monotonic counters keyed by name; the metrics sink for protocol
// instrumentation (messages sent, bytes, signatures computed, ...).
// Lookups are heterogeneous, so incrementing an existing counter builds
// no std::string; only a name's first increment allocates its key.
class Counters {
 public:
  void inc(std::string_view name, std::uint64_t by = 1) {
    auto it = counts_.find(name);
    if (it == counts_.end()) it = counts_.emplace(name, 0).first;
    it->second += by;
  }
  std::uint64_t get(std::string_view name) const {
    auto it = counts_.find(name);
    return it == counts_.end() ? 0 : it->second;
  }
  void reset() { counts_.clear(); }
  const std::map<std::string, std::uint64_t, std::less<>>& all() const {
    return counts_;
  }

 private:
  std::map<std::string, std::uint64_t, std::less<>> counts_;
};

}  // namespace bftbc
