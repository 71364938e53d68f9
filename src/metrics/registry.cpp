#include "metrics/registry.h"

#include "metrics/json.h"

namespace bftbc::metrics {

template <typename SlotT>
SlotT& MetricsRegistry::resolve(
    std::map<std::string, std::size_t>& index, std::deque<SlotT>& slots,
    std::string_view name) {
  auto it = index.find(std::string(name));
  if (it == index.end()) {
    it = index.emplace(std::string(name), slots.size()).first;
    slots.emplace_back();
  }
  return slots[it->second];
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return resolve(counter_index_, counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return resolve(gauge_index_, gauges_, name);
}

Summary& MetricsRegistry::summary(std::string_view name) {
  return resolve(summary_index_, summaries_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return resolve(histogram_index_, histograms_, name);
}

std::string MetricsRegistry::claim_unique(std::string_view base) {
  auto taken = [this](const std::string& name) {
    return claims_.count(name) != 0 || counter_index_.count(name) != 0 ||
           gauge_index_.count(name) != 0 || summary_index_.count(name) != 0 ||
           histogram_index_.count(name) != 0;
  };
  std::string name(base);
  for (std::size_t i = 2; taken(name); ++i) {
    name = std::string(base) + "#" + std::to_string(i);
  }
  claims_.insert(name);
  return name;
}

void MetricsRegistry::fold_counters(std::string_view scope,
                                    const Counters& counters) {
  const std::string prefix =
      scope.empty() ? std::string() : std::string(scope) + "/";
  for (const auto& [name, value] : counters.all()) {
    resolve(counter_index_, counters_, prefix + name).set(value);
  }
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  // Self-merge would double every counter and grow each summary while
  // iterating its own samples.
  if (&other == this) return;
  for (const auto& [name, slot] : other.counter_index_) {
    resolve(counter_index_, counters_, name).inc(other.counters_[slot].value);
  }
  for (const auto& [name, slot] : other.gauge_index_) {
    resolve(gauge_index_, gauges_, name).set(other.gauges_[slot].value);
  }
  for (const auto& [name, slot] : other.summary_index_) {
    resolve(summary_index_, summaries_, name).merge(other.summaries_[slot]);
  }
  for (const auto& [name, slot] : other.histogram_index_) {
    resolve(histogram_index_, histograms_, name)
        .merge(other.histograms_[slot]);
  }
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  w.begin_object();

  w.key("counters");
  w.begin_object();
  for (const auto& [name, slot] : counter_index_) {
    w.key(name);
    w.value(counters_[slot].value);
  }
  w.end_object();

  w.key("gauges");
  w.begin_object();
  for (const auto& [name, slot] : gauge_index_) {
    w.key(name);
    w.value(gauges_[slot].value);
  }
  w.end_object();

  w.key("summaries");
  w.begin_object();
  for (const auto& [name, slot] : summary_index_) {
    const Summary::Snapshot s = summaries_[slot].snapshot();
    w.key(name);
    w.begin_object();
    w.key("count");
    w.value(static_cast<std::uint64_t>(s.count));
    w.key("mean");
    w.value(s.mean);
    w.key("p50");
    w.value(s.p50);
    w.key("p90");
    w.value(s.p90);
    w.key("p99");
    w.value(s.p99);
    w.key("p999");
    w.value(s.p999);
    w.key("min");
    w.value(s.min);
    w.key("max");
    w.value(s.max);
    w.key("stddev");
    w.value(s.stddev);
    w.end_object();
  }
  w.end_object();

  w.key("histograms");
  w.begin_object();
  for (const auto& [name, slot] : histogram_index_) {
    const Histogram& h = histograms_[slot];
    w.key(name);
    w.begin_object();
    w.key("total");
    w.value(h.total());
    w.key("mean");
    w.value(h.mean());
    w.key("max");
    w.value(h.max_value());
    w.key("buckets");
    w.begin_object();
    for (const auto& [v, c] : h.buckets()) {
      w.key(std::to_string(v));
      w.value(c);
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();

  w.end_object();
}

std::string MetricsRegistry::to_json() const {
  JsonWriter w;
  write_json(w);
  return std::move(w).take();
}

void MetricsRegistry::reset() {
  counter_index_.clear();
  counters_.clear();
  gauge_index_.clear();
  gauges_.clear();
  summary_index_.clear();
  summaries_.clear();
  histogram_index_.clear();
  histograms_.clear();
  claims_.clear();
}

}  // namespace bftbc::metrics
