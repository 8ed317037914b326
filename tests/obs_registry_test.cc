// The observability layer's own contract: lock-free metric updates are
// race-free and exact (run under PHOEBE_SANITIZE=thread this suite is the
// data-race check), snapshots are deterministic, deltas subtract flows but
// pass gauge levels through, and the telemetry JSON line renders equal
// snapshots byte-identically.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace phoebe::obs {
namespace {

TEST(ObsRegistryTest, CounterGaugeHistogramBasics) {
  MetricsRegistry reg;
  Counter* c = reg.counter("c");
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->value(), 42);

  Gauge* g = reg.gauge("g");
  g->Set(2.5);
  EXPECT_EQ(g->value(), 2.5);

  Histogram* h = reg.histogram("h", {1.0, 10.0});
  h->Observe(0.5);   // bucket 0 (< 1)
  h->Observe(5.0);   // bucket 1 ([1, 10))
  h->Observe(100.0); // overflow bucket
  EXPECT_EQ(h->count(), 3);
  EXPECT_EQ(h->sum(), 105.5);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("c"), 42);
  EXPECT_EQ(snap.gauges.at("g"), 2.5);
  const auto& hv = snap.histograms.at("h");
  ASSERT_EQ(hv.buckets.size(), 3u);
  EXPECT_EQ(hv.buckets[0], 1);
  EXPECT_EQ(hv.buckets[1], 1);
  EXPECT_EQ(hv.buckets[2], 1);
}

TEST(ObsRegistryTest, ValueEqualToABoundLandsInTheBucketAbove) {
  // Buckets are half-open [bounds[i-1], bounds[i]): a value equal to a bound
  // counts in the next bucket up, and one equal to the last bound overflows.
  MetricsRegistry reg;
  Histogram* h = reg.histogram("edges", {1.0, 2.0});
  h->Observe(1.0);
  h->Observe(2.0);
  h->Observe(std::nextafter(1.0, 0.0));
  MetricsSnapshot snap = reg.Snapshot();
  const auto& hv = snap.histograms.at("edges");
  ASSERT_EQ(hv.buckets.size(), 3u);
  EXPECT_EQ(hv.buckets[0], 1);  // just below 1.0
  EXPECT_EQ(hv.buckets[1], 1);  // exactly 1.0
  EXPECT_EQ(hv.buckets[2], 1);  // exactly 2.0, the last bound
}

TEST(ObsRegistryTest, RegistrationReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* c1 = reg.counter("same");
  Counter* c2 = reg.counter("same");
  EXPECT_EQ(c1, c2);
  Histogram* h1 = reg.histogram("hist", {1.0});
  // First caller wins on bounds; re-registration ignores the new bounds.
  Histogram* h2 = reg.histogram("hist", {2.0, 3.0});
  EXPECT_EQ(h1, h2);
  ASSERT_EQ(h2->bounds().size(), 1u);
  EXPECT_EQ(h2->bounds()[0], 1.0);
}

TEST(ObsRegistryTest, ExponentialBoundsAndOverflow) {
  std::vector<double> b = Histogram::ExponentialBounds(1e-6, 4.0, 14);
  ASSERT_EQ(b.size(), 14u);
  EXPECT_DOUBLE_EQ(b[0], 1e-6);
  for (size_t i = 1; i < b.size(); ++i) EXPECT_GT(b[i], b[i - 1]);

  Histogram h(b);
  h.Observe(1e9);  // far beyond the last bound: overflow, not a crash
  EXPECT_EQ(h.count(), 1);
}

TEST(ObsRegistryTest, NullHelpersAreNoOps) {
  // Instrumented code calls these with nullptr when metrics are off.
  Add(nullptr, 5);
  Increment(nullptr);
  Set(nullptr, 1.0);
  Observe(nullptr, 1.0);
  ScopedTimer t(nullptr);  // must never read the clock
  t.Stop();
}

TEST(ObsRegistryTest, ScopedTimerObservesOnceAndStopIsIdempotent) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("span.seconds");
  {
    ScopedTimer t(h);
    t.Stop();
    t.Stop();  // second Stop and the destructor must not double-observe
  }
  EXPECT_EQ(h->count(), 1);
  { ScopedTimer t(h); }  // destructor path
  EXPECT_EQ(h->count(), 2);
}

TEST(ObsRegistryTest, ConcurrentUpdatesAreExact) {
  MetricsRegistry reg;
  Counter* c = reg.counter("hits");
  Gauge* g = reg.gauge("level");
  Histogram* h = reg.histogram("lat", {1.0, 2.0, 3.0});

  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      // Registration from worker threads must also be safe (mutex path).
      Counter* mine = reg.counter("per." + std::to_string(w % 2));
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        mine->Increment();
        g->Set(static_cast<double>(w));
        h->Observe(static_cast<double>(i % 4));  // hits every bucket incl. overflow
      }
    });
  }
  for (auto& t : workers) t.join();

  EXPECT_EQ(c->value(), kThreads * kPerThread);
  EXPECT_EQ(h->count(), kThreads * kPerThread);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("per.0") + snap.counters.at("per.1"),
            kThreads * kPerThread);
  // Bucket counts are exact (integer fetch_add), i%4 spreads evenly.
  const auto& hv = snap.histograms.at("lat");
  ASSERT_EQ(hv.buckets.size(), 4u);
  for (int64_t b : hv.buckets) EXPECT_EQ(b, kThreads * kPerThread / 4);
  // The gauge holds one of the written levels.
  EXPECT_GE(snap.gauges.at("level"), 0.0);
  EXPECT_LT(snap.gauges.at("level"), kThreads);
}

TEST(ObsRegistryTest, SnapshotDeltaSubtractsFlowsKeepsLevels) {
  MetricsRegistry reg;
  Counter* c = reg.counter("c");
  Gauge* g = reg.gauge("g");
  Histogram* h = reg.histogram("h", {1.0});

  c->Add(10);
  g->Set(3.0);
  h->Observe(0.5);
  MetricsSnapshot before = reg.Snapshot();

  c->Add(5);
  g->Set(7.0);
  h->Observe(2.0);
  reg.counter("new")->Add(2);  // appears only after `before`
  MetricsSnapshot after = reg.Snapshot();

  MetricsSnapshot delta = SnapshotDelta(before, after);
  EXPECT_EQ(delta.counters.at("c"), 5);
  EXPECT_EQ(delta.counters.at("new"), 2);     // passes through unchanged
  EXPECT_EQ(delta.gauges.at("g"), 7.0);       // level, not flow
  const auto& hv = delta.histograms.at("h");
  EXPECT_EQ(hv.count, 1);
  EXPECT_EQ(hv.sum, 2.0);
  ASSERT_EQ(hv.buckets.size(), 2u);
  EXPECT_EQ(hv.buckets[0], 0);
  EXPECT_EQ(hv.buckets[1], 1);  // the 2.0 observation overflowed the 1.0 bound
}

TEST(ObsRegistryTest, TelemetryLineJsonIsDeterministic) {
  MetricsRegistry reg;
  reg.counter("b.count")->Add(3);
  reg.counter("a.count")->Add(1);
  reg.gauge("size")->Set(1.5);
  reg.histogram("lat", {1.0})->Observe(0.25);

  std::string line = TelemetryLineJson(reg.Snapshot(), "day", 4);
  EXPECT_NE(line.find("\"telemetry\":\"phoebe.obs.v1\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"scope\":\"day\""), std::string::npos);
  EXPECT_NE(line.find("\"day\":4"), std::string::npos);
  EXPECT_NE(line.find("\"a.count\":1"), std::string::npos);
  // Sorted key order and exact rendering: equal snapshots, equal bytes.
  EXPECT_LT(line.find("a.count"), line.find("b.count"));
  EXPECT_EQ(line, TelemetryLineJson(reg.Snapshot(), "day", 4));
  EXPECT_EQ(line.find('\n'), std::string::npos);  // single line, no newline
}

TEST(ObsRegistryTest, NamespacedViewsPrefixWithoutColliding) {
  // The fleet-ab scenario: two engines both register "engine.decide.seconds"
  // through distinct arm views over one root. Without namespacing the second
  // registration would silently share (or, cross-kind, abort); with it each
  // arm gets its own metric under its own full name.
  MetricsRegistry root;
  MetricsRegistry* arm0 = root.Namespaced("ab.arm0.");
  MetricsRegistry* arm1 = root.Namespaced("ab.arm1.");
  ASSERT_NE(arm0, arm1);

  Counter* c0 = arm0->counter("engine.decide.count");
  Counter* c1 = arm1->counter("engine.decide.count");
  ASSERT_NE(c0, c1);
  c0->Add(2);
  c1->Add(5);

  MetricsSnapshot snap = root.Snapshot();
  EXPECT_EQ(snap.counters.at("ab.arm0.engine.decide.count"), 2);
  EXPECT_EQ(snap.counters.at("ab.arm1.engine.decide.count"), 5);
  EXPECT_EQ(snap.counters.count("engine.decide.count"), 0u);
}

TEST(ObsRegistryTest, NamespacedIsIdempotentEmptyIsRootNestingConcatenates) {
  MetricsRegistry root;
  EXPECT_EQ(root.Namespaced(""), &root);
  MetricsRegistry* a = root.Namespaced("a.");
  EXPECT_EQ(root.Namespaced("a."), a);  // same prefix, same view object

  // Nesting concatenates: a view's view registers under the joined prefix,
  // and the same joined prefix reached either way is the same view.
  MetricsRegistry* ab = a->Namespaced("b.");
  EXPECT_EQ(ab, root.Namespaced("a.b."));
  ab->counter("n")->Increment();
  EXPECT_EQ(root.Snapshot().counters.at("a.b.n"), 1);

  // Registering the same leaf name through root and view coexists: the full
  // names differ, so these are two distinct metrics.
  Counter* plain = root.counter("n");
  EXPECT_NE(plain, ab->counter("n"));
}

TEST(ObsRegistryTest, NamespacedSnapshotFiltersToThePrefix) {
  MetricsRegistry root;
  root.counter("outside")->Add(1);
  MetricsRegistry* arm = root.Namespaced("arm0.");
  arm->counter("hits")->Add(3);
  arm->gauge("level")->Set(2.0);
  arm->histogram("lat", {1.0})->Observe(0.5);

  // The view's snapshot is the root's restricted to its prefix — full names
  // kept, so a per-arm snapshot still merges cleanly into run-level JSON.
  MetricsSnapshot snap = arm->Snapshot();
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters.at("arm0.hits"), 3);
  EXPECT_EQ(snap.gauges.at("arm0.level"), 2.0);
  EXPECT_EQ(snap.histograms.at("arm0.lat").count, 1);
  EXPECT_EQ(snap.counters.count("outside"), 0u);
  // Everything is still visible from the root.
  EXPECT_EQ(root.Snapshot().counters.size(), 2u);
}

TEST(ObsRegistryTest, MetricsConfigValidate) {
  MetricsConfig cfg;
  EXPECT_TRUE(cfg.Validate().ok());  // disabled default is valid
  cfg.output_path = "telemetry.jsonl";
  EXPECT_FALSE(cfg.Validate().ok());  // a path while disabled is a config bug
  cfg.enabled = true;
  EXPECT_TRUE(cfg.Validate().ok());
}

}  // namespace
}  // namespace phoebe::obs
