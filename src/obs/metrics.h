// Fleet observability: a small, dependency-free metrics subsystem.
//
// Phoebe's premise is that a Workload Insight Service *watches* the
// production fleet (paper §2, Figure 4), yet until this layer existed the
// fleet driver was a black box — FleetDayReport says what was decided, not
// where decide-time went. src/obs/ answers the "where" question:
//
//   * MetricsRegistry — named counters, gauges, and fixed-bucket histograms.
//     Registration (name -> metric object) takes a mutex; every update is a
//     relaxed atomic, so the parallel decide phase can record freely with no
//     lock contention and no TSan reports (obs_registry_test pins this).
//   * ScopedTimer — RAII span over a named phase: construct at phase entry,
//     the destructor observes the elapsed seconds into a histogram. Phase
//     hierarchy is expressed in the metric name ("fleet.day.decide.seconds"
//     is a child span of "fleet.day.seconds"; see DESIGN.md "Observability").
//   * Snapshot / Delta / TelemetryLineJson — a deterministic point-in-time
//     view (names sorted, values exact), the difference between two views,
//     and the single-line JSON rendering exported per fleet day next to
//     FleetDayReportJson.
//
// Metrics are strictly passive. Every instrumented call site takes a
// nullable registry (or metric pointer) and the helpers below no-op on
// nullptr, so with metrics off the only cost is a branch — and with metrics
// on, nothing feeds back into any decision: FleetDayReport streams are
// byte-identical either way (core_fleet_metrics_test pins this; the nightly
// bench gates the overhead at <= 2% of decide time).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace phoebe::obs {

/// \brief Monotonically increasing integer metric.
class Counter {
 public:
  void Add(int64_t v) { v_.fetch_add(v, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// \brief Last-written double metric (e.g. a queue depth or artifact size).
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// \brief Fixed-bucket histogram over half-open buckets: bucket 0 counts
/// observations v < bounds[0], bucket i counts bounds[i-1] <= v < bounds[i],
/// and the overflow bucket counts v >= bounds.back() (and NaN). A value equal
/// to a bound therefore lands in the bucket above it (perfbench's
/// `serve.batch.gt1_share` reads batches of exactly 1 from the [1, 2)
/// bucket of `serve.batch.size`). Bucket counts and the observation count are
/// exact under concurrency; `sum` is a relaxed float accumulation, so its
/// last bits may depend on interleaving (fine for telemetry, never used in
/// any decision).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Exponential bucket upper bounds: start, start*factor, ... (n bounds).
  static std::vector<double> ExponentialBounds(double start, double factor, int n);
  /// The default latency scale: 1us .. ~100s in 4x steps (14 bounds).
  static std::vector<double> LatencyBounds() {
    return ExponentialBounds(1e-6, 4.0, 14);
  }

 private:
  friend class MetricsRegistry;
  std::vector<double> bounds_;                    ///< sorted upper bounds
  std::vector<std::atomic<int64_t>> buckets_;     ///< bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Null-safe update helpers: instrumented code holds possibly-null metric
/// pointers (null = metrics off) and calls these unconditionally.
inline void Add(Counter* c, int64_t v) {
  if (c != nullptr) c->Add(v);
}
inline void Increment(Counter* c) {
  if (c != nullptr) c->Increment();
}
inline void Set(Gauge* g, double v) {
  if (g != nullptr) g->Set(v);
}
inline void Observe(Histogram* h, double v) {
  if (h != nullptr) h->Observe(v);
}

/// \brief Deterministic point-in-time view of a registry (names sorted by
/// std::map; values read with relaxed loads — exact when no update is
/// concurrent with the snapshot, e.g. taken between fleet days).
struct MetricsSnapshot {
  struct HistogramView {
    std::vector<double> bounds;
    std::vector<int64_t> buckets;  ///< bounds.size() + 1 (last = overflow)
    int64_t count = 0;
    double sum = 0.0;
  };
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramView> histograms;
};

/// `after - before`, metric by metric: counters and histogram buckets
/// subtract, gauges keep the `after` value (a gauge is a level, not a flow).
/// Metrics absent from `before` pass through unchanged.
MetricsSnapshot SnapshotDelta(const MetricsSnapshot& before,
                              const MetricsSnapshot& after);

/// Single-line JSON rendering of one snapshot — the per-day telemetry line
/// written next to FleetDayReportJson. `scope` says what the line covers
/// ("day" deltas or the cumulative "run"); `day` is the 0-based day index
/// (-1 for run-scope lines). Key order is fixed and doubles print %.17g, so
/// equal snapshots render byte-identically. Ends without a newline.
std::string TelemetryLineJson(const MetricsSnapshot& snapshot,
                              const std::string& scope, int day);

/// \brief Thread-safe registry of named metrics.
///
/// Registration interns the name and returns a stable pointer (metrics are
/// never removed); instrumented components resolve their metric pointers
/// once — typically at construction — and update through the lock-free
/// objects on the hot path. Re-registering a name returns the existing
/// object; registering the same name as two different kinds is a programming
/// bug and aborts.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  /// `bounds` applies on first registration only (first caller wins).
  Histogram* histogram(const std::string& name,
                       std::vector<double> bounds = Histogram::LatencyBounds());

  /// A namespaced view over this registry: every registration through the
  /// returned registry gets `prefix` prepended to its name ("ab.arm0." +
  /// "engine.decide.ml_stacked.seconds"), and its Snapshot() sees only the
  /// prefixed names (full names kept). This is how N DecisionEngine arms
  /// share one output file without colliding on `engine.<source>.*` — each
  /// arm registers through its own view, all storage stays in this root.
  ///
  /// The view is owned by the root (same lifetime; callers never delete it),
  /// calling with the same prefix returns the same pointer, an empty prefix
  /// returns the root itself, and nesting concatenates prefixes. Thread-safe
  /// like every other registry call.
  MetricsRegistry* Namespaced(const std::string& prefix);

  MetricsSnapshot Snapshot() const;

 private:
  MetricsRegistry(MetricsRegistry* root, std::string prefix)
      : root_(root), prefix_(std::move(prefix)) {}

  enum class Kind { kCounter, kGauge, kHistogram };
  MetricsRegistry* root_ = this;  ///< self for a root, the root for a view
  std::string prefix_;            ///< empty for a root
  mutable std::mutex mu_;
  std::map<std::string, Kind> kinds_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<MetricsRegistry>> views_;  ///< by prefix
};

/// \brief RAII span over a named phase: observes the elapsed wall-clock
/// seconds into `h` on destruction. Null histogram = metrics off: the timer
/// then never reads the clock at all.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) : h_(h) {
    if (h_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() { Stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Observe now instead of at scope exit (idempotent).
  void Stop() {
    if (h_ == nullptr) return;
    h_->Observe(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start_)
                    .count());
    h_ = nullptr;
  }

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace phoebe::obs
