// Metrics registry: named counters, gauges, and latency
// summaries/histograms (reusing util/stats accumulators) behind stable
// handles.
//
// Design constraints (ROADMAP "fast as the hardware allows"):
//   - Hot-path recording is O(1): components resolve handles ONCE at
//     construction (`Counter& c = reg.counter("net/msgs_sent")`) and
//     then record through the pointer — no per-event string lookups.
//   - Handles stay valid for the registry's lifetime (deque-backed
//     slots; the name→slot index is only touched at resolve time).
//   - Scoping is by name prefix: `reg.scoped("replica/3")` returns a
//     Scope whose counter("grants") resolves "replica/3/grants", giving
//     per-replica and per-client metric families without any new
//     machinery at read time.
//
// Emission: `to_json()` renders the whole registry as one JSON object
// ({counters, gauges, summaries, histograms}); summaries are emitted as
// {count, mean, p50, p90, p99, min, max, stddev} via Summary::snapshot()
// so each is sorted exactly once.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "util/stats.h"

namespace bftbc::metrics {

// Monotonic counter slot. Plain (non-atomic): single simulator thread.
struct Counter {
  std::uint64_t value = 0;
  void inc(std::uint64_t by = 1) { value += by; }
  void set(std::uint64_t v) { value = v; }
};

// Last-value-wins instantaneous measurement (queue depths, occupancy).
struct Gauge {
  double value = 0;
  void set(double v) { value = v; }
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Resolve-or-create; returned references remain valid until the
  // registry is destroyed or reset().
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Summary& summary(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Collision-aware name claiming. counter()/summary()/... are
  // resolve-or-create: two components that independently resolve the
  // same name silently share one slot, which is intentional for
  // same-role aggregation (every client feeds "client.write.total_ms")
  // but a silent aliasing bug when DIFFERENT roles collide — e.g. a
  // routing client's whole-op summary landing in an inner per-shard
  // client's summary because both derived the same prefix. claim_unique
  // returns `base` if no metric of any kind exists under that name and
  // nothing has claimed it yet; otherwise it disambiguates to
  // "<base>#2", "<base>#3", ... Claimants then resolve handles under
  // the returned name, so the collision is visible in the emitted JSON
  // instead of silently merged.
  std::string claim_unique(std::string_view base);

  // Prefix helper: Scope{reg, "replica/3"}.counter("grants") is
  // reg.counter("replica/3/grants").
  class Scope {
   public:
    Scope(MetricsRegistry& reg, std::string prefix)
        : reg_(reg), prefix_(std::move(prefix)) {}
    Counter& counter(std::string_view name) const {
      return reg_.counter(prefix_ + "/" + std::string(name));
    }
    Gauge& gauge(std::string_view name) const {
      return reg_.gauge(prefix_ + "/" + std::string(name));
    }
    Summary& summary(std::string_view name) const {
      return reg_.summary(prefix_ + "/" + std::string(name));
    }
    Histogram& histogram(std::string_view name) const {
      return reg_.histogram(prefix_ + "/" + std::string(name));
    }

   private:
    MetricsRegistry& reg_;
    std::string prefix_;
  };
  Scope scoped(std::string prefix) { return Scope(*this, std::move(prefix)); }

  // Imports a legacy util/stats Counters map (replica / client / keystore
  // instrumentation) under `scope` ("" = unscoped). SET semantics — the
  // sources are cumulative, so re-snapshotting is idempotent rather than
  // double-counting.
  void fold_counters(std::string_view scope, const Counters& counters);

  // Merges another registry into this one (bench reports aggregate the
  // registries of every cluster they measured): counters add, gauges
  // last-write-wins, summaries/histograms merge samples.
  void merge(const MetricsRegistry& other);

  // Read-side iteration (sorted by name — deterministic JSON).
  const std::map<std::string, std::size_t>& counter_names() const {
    return counter_index_;
  }
  const Counter& counter_at(std::size_t slot) const {
    return counters_[slot];
  }
  const std::map<std::string, std::size_t>& gauge_names() const {
    return gauge_index_;
  }
  const Gauge& gauge_at(std::size_t slot) const { return gauges_[slot]; }
  const std::map<std::string, std::size_t>& summary_names() const {
    return summary_index_;
  }
  const Summary& summary_at(std::size_t slot) const {
    return summaries_[slot];
  }
  const std::map<std::string, std::size_t>& histogram_names() const {
    return histogram_index_;
  }
  const Histogram& histogram_at(std::size_t slot) const {
    return histograms_[slot];
  }

  // {"counters": {...}, "gauges": {...}, "summaries": {...},
  //  "histograms": {...}} — appended to an in-progress writer so the
  //  bench report can embed it.
  void write_json(class JsonWriter& w) const;
  std::string to_json() const;

  // Drops every metric AND invalidates all handles. Only for tests.
  void reset();

 private:
  template <typename SlotT>
  static SlotT& resolve(std::map<std::string, std::size_t>& index,
                        std::deque<SlotT>& slots, std::string_view name);

  std::map<std::string, std::size_t> counter_index_;
  std::deque<Counter> counters_;
  std::map<std::string, std::size_t> gauge_index_;
  std::deque<Gauge> gauges_;
  std::map<std::string, std::size_t> summary_index_;
  std::deque<Summary> summaries_;
  std::map<std::string, std::size_t> histogram_index_;
  std::deque<Histogram> histograms_;
  // Names handed out by claim_unique (they may not have resolved any
  // handle yet, so the indices alone cannot answer "is this taken?").
  std::set<std::string> claims_;
};

}  // namespace bftbc::metrics
