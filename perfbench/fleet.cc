// fleet-recurring and fleet-cold: one trained bundle deciding 20 served days
// through FleetDriver::RunDay, each pass on a fresh driver.
//
// fleet-recurring runs the production configuration: approximate template
// cache and a storage budget, so cache and admission do most of the work and
// the predictors only see cache misses. fleet-cold turns both off in effect
// (exact-mode cache that never hits, unlimited budget) and asks for three
// cuts, so every job runs featurize -> predict -> simulate -> TTL -> DP. A
// cache or admission change must show a gain on the first and none on the
// second.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "common/checksum.h"
#include "core/evaluate.h"
#include "core/fleet.h"
#include "core/fleet_shard.h"
#include "core/retrainer.h"

namespace phoebe::perfbench {
namespace {

/// fleet-recurring's daily storage budget, as a share of the mean daily
/// global bytes the training days' cuts ask for. Data volume varies between
/// seeds, so a fixed byte budget would admit far more on one seed than on
/// another; at this share admission takes about 40% of the cut jobs.
constexpr double kBudgetShare = 0.45;

struct Shape {
  int templates;
  int train_days;
  int serve_days;
};

Shape ShapeFor(const Options& o) {
  return o.smoke ? Shape{20, 2, 2} : Shape{200, 3, 20};
}

/// Mean global bytes per training day that the cut decisions ask for: what
/// admission would have to fit if every cut were admitted.
double DailyDemandBytes(const Deployment& d, const core::DecisionEngine& engine) {
  double bytes = 0.0;
  for (int day = d.first_day; day < d.served_begin(); ++day) {
    const telemetry::HistoricStats stats = d.repo.StatsBefore(day);
    for (const auto& job : d.Day(day)) {
      if (job.graph.num_stages() < 2) continue;
      auto r = engine.DecideJob(job, stats, {});
      r.status().Check();
      if (!r->combined.cut.empty()) bytes += r->combined.global_bytes;
    }
  }
  return bytes / d.train_days;
}

core::FleetConfig ConfigFor(bool cold) {
  core::FleetConfig cfg;
  cfg.num_threads = 1;
  cfg.template_cache.enabled = true;
  cfg.template_cache.capacity = 65536;
  if (cold) {
    cfg.num_cuts = 3;
    cfg.template_cache.quantize_bps = 0;
  } else {
    cfg.template_cache.quantize_bps = 5000;
  }
  return cfg;
}

/// One pass over the served days on a fresh driver.
struct Pass {
  std::vector<double> day_s;  ///< RunDay wall time per served day
  int64_t decisions = 0;      ///< eligible jobs decided (cache hits included)
  int64_t failed = 0;
  uint32_t digest = 0;        ///< CRC over every day's report JSON
  int64_t hits = 0, misses = 0, evictions = 0, with_cut = 0, admitted = 0;
  int64_t engine_calls = 0;   ///< DecideJobInto calls on the timed days (traced)
  double realized = 0.0, total = 0.0;
  bool invariants = true;
  core::FleetDayReport first_day;

  double Seconds() const {
    double s = 0.0;
    for (double x : day_s) s += x;
    return s;
  }
};

Pass RunPass(const Deployment& d, const core::DecisionEngine& engine,
             core::FleetConfig cfg, obs::MetricsRegistry* registry) {
  cfg.metrics = registry;
  core::FleetDriver driver(&engine, cfg);
  // The last training day calibrates admission and, run untimed, warms the
  // template cache, so the timed days see the steady state a long-running
  // fleet does rather than a cold start.
  const int warm = d.served_begin() - 1;
  if (std::isfinite(cfg.storage_budget_bytes)) {
    driver.Calibrate(d.Day(warm), d.stats.at(warm)).Check();
  }
  driver.RunDay(d.Day(warm), d.stats.at(warm)).status().Check();
  const obs::Histogram* engine_decides =
      registry ? registry->histogram("engine.ml_stacked.decide.seconds") : nullptr;
  const int64_t calls_before = engine_decides ? engine_decides->count() : 0;
  Pass pass;
  for (int day = d.served_begin(); day < d.end(); ++day) {
    const auto& jobs = d.Day(day);
    auto t0 = Clock::now();
    Result<core::FleetDayReport> r = driver.RunDay(jobs, d.stats.at(day));
    const double s = SecondsSince(t0);
    if (!r.ok()) {
      std::fprintf(stderr, "phoebe_bench: RunDay(%d): %s\n", day,
                   r.status().ToString().c_str());
      for (const auto& job : jobs) pass.failed += job.graph.num_stages() >= 2 ? 1 : 0;
      continue;
    }
    pass.day_s.push_back(s);
    pass.decisions += r->jobs_considered;
    pass.digest = Crc32(core::FleetDayReportJson(*r, day), pass.digest);
    pass.hits += r->cache_hits;
    pass.misses += r->cache_misses;
    pass.evictions += r->cache_evictions;
    pass.with_cut += r->jobs_with_cut;
    pass.admitted += r->jobs_admitted;
    pass.realized += r->realized_saving_byte_seconds;
    pass.total += r->total_temp_byte_seconds;
    pass.invariants = pass.invariants && r->jobs_admitted <= r->jobs_with_cut &&
                      r->jobs_with_cut <= r->jobs_considered &&
                      r->storage_used_bytes <= cfg.storage_budget_bytes &&
                      r->realized_saving_byte_seconds <= r->total_temp_byte_seconds;
    if (day == d.served_begin()) pass.first_day = *std::move(r);
  }
  if (engine_decides) pass.engine_calls = engine_decides->count() - calls_before;
  return pass;
}

/// In exact-cache, unbudgeted mode every outcome must be the decision the
/// engine computes afresh for that job.
bool MatchesFreshDecisions(const Deployment& d, const core::DecisionEngine& engine,
                           const core::FleetConfig& cfg, const core::FleetDayReport& day) {
  const auto& jobs = d.Day(d.served_begin());
  if (day.outcomes.size() != jobs.size()) return false;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const core::FleetJobOutcome& out = day.outcomes[i];
    if (jobs[i].graph.num_stages() < 2) {
      if (!out.cuts.empty()) return false;
      continue;
    }
    auto fresh = engine.DecideJob(jobs[i], d.stats.at(d.served_begin()), cfg.decide_options());
    if (!fresh.ok() || fresh->cuts.size() != out.cuts.size()) return false;
    for (size_t c = 0; c < out.cuts.size(); ++c) {
      if (fresh->cuts[c].before_cut != out.cuts[c].before_cut) return false;
    }
    if (!out.cuts.empty() && !out.admitted) return false;
  }
  return true;
}

void CheckShares(const Options& o, bool cold, const Pass& p, Report* report) {
  const double hit_share = Ratio(static_cast<double>(p.hits),
                                 static_cast<double>(p.hits + p.misses));
  const double admit_ratio = Ratio(static_cast<double>(p.admitted),
                                   static_cast<double>(p.with_cut));
  report->Diag("fleet.hit_share", hit_share);
  report->Diag("fleet.admit_ratio", admit_ratio);
  if (o.smoke) return;  // tiny days do not stress the layers
  if (cold) {
    report->Check("guard.hit_share_below_0.01", hit_share < 0.01);
  } else {
    report->Check("guard.hit_share_at_least_0.6", hit_share >= 0.6);
    report->Check("guard.admit_ratio_in_0.2_0.8", admit_ratio > 0.2 && admit_ratio < 0.8);
  }
}

void RunFleet(const Options& o, bool cold, Report* report) {
  const Shape shape = ShapeFor(o);
  const int total_days = shape.train_days + shape.serve_days;
  TempDir tmp(o.out_dir);

  // Set-up, repeated: generate + stats + train + bundle round trip.
  std::unique_ptr<Deployment> d;
  std::vector<double> setup_s;
  for (int i = 0; i < (o.trace ? 1 : kSetupReps); ++i) {
    d.reset();
    auto t0 = Clock::now();
    d = Deploy(shape.templates, o.seed, shape.train_days, total_days, tmp.path());
    setup_s.push_back(SecondsSince(t0));
  }
  core::DecisionEngine engine(d->bundle);
  core::FleetConfig cfg = ConfigFor(cold);
  if (!cold) {
    cfg.storage_budget_bytes = kBudgetShare * DailyDemandBytes(*d, engine);
    report->Diag("fleet.budget_gb", cfg.storage_budget_bytes / 1e9);
  }
  report->Diag("jobs", static_cast<double>(d->repo.TotalJobs()));

  if (!o.trace) {
    std::vector<Pass> passes;
    double elapsed = 0.0;
    while (passes.empty() || elapsed < o.seconds) {
      passes.push_back(RunPass(*d, engine, cfg, nullptr));
      elapsed += passes.back().Seconds();
    }
    std::vector<double> rates, day_ms;
    bool same_digest = true, invariants = true;
    for (const Pass& p : passes) {
      rates.push_back(Ratio(static_cast<double>(p.decisions), p.Seconds()));
      for (double s : p.day_s) day_ms.push_back(1e3 * s);
      report->attempted += p.decisions + p.failed;
      report->failed += p.failed;
      same_digest = same_digest && p.digest == passes.front().digest;
      invariants = invariants && p.invariants;
    }
    const Pass& p0 = passes.front();
    double r2 = 0.0;
    for (int day = d->served_begin(); day < d->end(); ++day) {
      r2 += core::EvaluateExecR2(d->bundle->exec_predictor(), d->repo, day);
    }
    report->Metric("setup_s", Percentile(setup_s, 0.5));
    report->Metric("decisions_per_s", Percentile(rates, 0.5));
    report->Metric("latency_p50_ms", Percentile(day_ms, 0.50));
    report->Metric("latency_p90_ms", Percentile(day_ms, 0.90));
    report->Diag("latency_p99_ms", Percentile(day_ms, 0.99));
    report->Metric("saving_fraction", Ratio(p0.realized, p0.total));
    report->Metric("exec_r2", r2 / shape.serve_days);
    report->Metric("peak_rss_mb", PeakRssMb());
    report->Diag("passes", static_cast<double>(passes.size()));
    report->Diag("latency_samples", static_cast<double>(day_ms.size()));
    report->Check("fleet.digest_equal_across_passes", same_digest);
    report->Check("fleet.report_invariants", invariants);
    if (cold) {
      report->Check("fleet.outcomes_equal_fresh_decisions",
                    MatchesFreshDecisions(*d, engine, cfg, p0.first_day));
    }
    CheckShares(o, cold, p0, report);
    return;
  }

  // Traced run: plain and registry-attached passes alternate, so the
  // overhead ratio compares equal work under equal conditions.
  obs::MetricsRegistry registry;
  core::DecisionEngine traced_engine(d->bundle, &registry);
  std::vector<Pass> plain, traced;
  double elapsed = 0.0;
  while (plain.empty() || elapsed < o.seconds) {
    plain.push_back(RunPass(*d, engine, cfg, nullptr));
    traced.push_back(RunPass(*d, traced_engine, cfg, &registry));
    elapsed += plain.back().Seconds() + traced.back().Seconds();
  }
  double plain_s = 0.0, traced_s = 0.0;
  bool same_digest = true;
  for (size_t i = 0; i < plain.size(); ++i) {
    plain_s += plain[i].Seconds();
    traced_s += traced[i].Seconds();
    same_digest = same_digest && plain[i].digest == plain[0].digest &&
                  traced[i].digest == plain[0].digest;
    report->attempted += plain[i].decisions + traced[i].decisions;
    report->failed += plain[i].failed + traced[i].failed;
  }
  report->Check("fleet.digest_traced_equals_untraced", same_digest);
  report->Metric("trace.overhead_ratio", traced_s / plain_s - 1.0);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  const Pass& p = traced.front();
  report->Metric("decide.calls_per_job", Ratio(static_cast<double>(p.engine_calls),
                                               static_cast<double>(p.decisions)));
  FleetCounts counts;
  counts.lookups = static_cast<double>(p.hits + p.misses);
  counts.hits = static_cast<double>(p.hits);
  counts.evictions = static_cast<double>(p.evictions);
  counts.offers = static_cast<double>(p.with_cut);
  counts.admitted = static_cast<double>(p.admitted);
  ReportFleetLayers(snap, counts, report);
  CheckShares(o, cold, p, report);
  ReportSetupLayers(*d, report);

  LayerReplay replay(d->bundle, cfg.decide_options());
  for (int day = d->served_begin(); day < d->end() && !replay.full(); ++day) {
    for (const auto& job : d->Day(day)) replay.Add(job, d->stats.at(day));
  }
  replay.Run();
  replay.Finish(o.out_dir + "/" + o.workload + ".trace.jsonl", report);
}

}  // namespace

void RunFleetRecurring(const Options& o, Report* report) { RunFleet(o, false, report); }
void RunFleetCold(const Options& o, Report* report) { RunFleet(o, true, report); }

}  // namespace phoebe::perfbench
