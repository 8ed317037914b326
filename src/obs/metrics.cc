#include "obs/metrics.h"

#include <algorithm>

#include "common/json.h"
#include "common/macros.h"

namespace phoebe::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  PHOEBE_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                   "histogram bounds must be sorted ascending");
  for (size_t i = 1; i < bounds_.size(); ++i) {
    PHOEBE_CHECK_MSG(bounds_[i - 1] < bounds_[i],
                     "histogram bounds must be strictly increasing");
  }
}

void Histogram::Observe(double v) {
  // upper_bound over a handful of doubles; the atomics dominate. NaN
  // compares false against every bound and lands in the overflow bucket.
  size_t i = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 int n) {
  PHOEBE_CHECK(start > 0.0 && factor > 1.0 && n >= 1);
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(n));
  double b = start;
  for (int i = 0; i < n; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  if (root_ != this) return root_->counter(prefix_ + name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it != counters_.end()) return it->second.get();
  PHOEBE_CHECK_MSG(kinds_.count(name) == 0,
                   "metric name already registered as another kind");
  kinds_[name] = Kind::kCounter;
  return counters_.emplace(name, std::make_unique<Counter>())
      .first->second.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  if (root_ != this) return root_->gauge(prefix_ + name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second.get();
  PHOEBE_CHECK_MSG(kinds_.count(name) == 0,
                   "metric name already registered as another kind");
  kinds_[name] = Kind::kGauge;
  return gauges_.emplace(name, std::make_unique<Gauge>()).first->second.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  if (root_ != this) return root_->histogram(prefix_ + name, std::move(bounds));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second.get();
  PHOEBE_CHECK_MSG(kinds_.count(name) == 0,
                   "metric name already registered as another kind");
  kinds_[name] = Kind::kHistogram;
  return histograms_
      .emplace(name, std::make_unique<Histogram>(std::move(bounds)))
      .first->second.get();
}

MetricsRegistry* MetricsRegistry::Namespaced(const std::string& prefix) {
  // A view delegates to the root so nested prefixes concatenate and all
  // views — whatever they were created from — live in one flat map.
  if (root_ != this) return root_->Namespaced(prefix_ + prefix);
  if (prefix.empty()) return this;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = views_.find(prefix);
  if (it != views_.end()) return it->second.get();
  std::unique_ptr<MetricsRegistry> view(new MetricsRegistry(this, prefix));
  return views_.emplace(prefix, std::move(view)).first->second.get();
}

namespace {

/// Keep only the metrics whose (full) name starts with `prefix`.
MetricsSnapshot FilterSnapshot(MetricsSnapshot snap, const std::string& prefix) {
  MetricsSnapshot out;
  for (auto& [name, v] : snap.counters) {
    if (name.rfind(prefix, 0) == 0) out.counters[name] = v;
  }
  for (auto& [name, v] : snap.gauges) {
    if (name.rfind(prefix, 0) == 0) out.gauges[name] = v;
  }
  for (auto& [name, h] : snap.histograms) {
    if (name.rfind(prefix, 0) == 0) out.histograms[name] = std::move(h);
  }
  return out;
}

}  // namespace

MetricsSnapshot MetricsRegistry::Snapshot() const {
  if (root_ != this) return FilterSnapshot(root_->Snapshot(), prefix_);
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramView view;
    view.bounds = h->bounds_;
    view.buckets.reserve(h->buckets_.size());
    for (const auto& b : h->buckets_) {
      view.buckets.push_back(b.load(std::memory_order_relaxed));
    }
    view.count = h->count();
    view.sum = h->sum();
    snap.histograms[name] = std::move(view);
  }
  return snap;
}

MetricsSnapshot SnapshotDelta(const MetricsSnapshot& before,
                              const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  for (const auto& [name, v] : after.counters) {
    auto it = before.counters.find(name);
    delta.counters[name] = it == before.counters.end() ? v : v - it->second;
  }
  delta.gauges = after.gauges;  // levels, not flows
  for (const auto& [name, h] : after.histograms) {
    MetricsSnapshot::HistogramView view = h;
    auto it = before.histograms.find(name);
    if (it != before.histograms.end() && it->second.bounds == h.bounds) {
      for (size_t i = 0; i < view.buckets.size(); ++i) {
        view.buckets[i] -= it->second.buckets[i];
      }
      view.count -= it->second.count;
      view.sum -= it->second.sum;
    }
    delta.histograms[name] = std::move(view);
  }
  return delta;
}

std::string TelemetryLineJson(const MetricsSnapshot& snapshot,
                              const std::string& scope, int day) {
  JsonWriter w;
  w.BeginObject();
  w.KV("telemetry", "phoebe.obs.v1");
  w.KV("scope", scope);
  w.KV("day", day);
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, v] : snapshot.counters) w.KV(name, v);
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, v] : snapshot.gauges) w.KV(name, v);
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, h] : snapshot.histograms) {
    w.Key(name);
    w.BeginObject();
    w.KV("count", h.count);
    w.KV("sum", h.sum);
    w.KV("mean", h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0);
    w.Key("bounds");
    w.BeginArray();
    for (double b : h.bounds) w.Value(b);
    w.EndArray();
    w.Key("buckets");
    w.BeginArray();
    for (int64_t b : h.buckets) w.Value(b);
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

}  // namespace phoebe::obs
