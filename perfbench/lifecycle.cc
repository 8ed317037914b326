// lifecycle: LifecycleDriver run day by day for 20 days, with shadow diffs on
// and bundles written to a fresh directory. Every fourth day the loop
// retrains, canary-backtests both bundles (two arms over a shared
// DayContext), shadow-decides and, since the catalogue's day-to-day drift
// keeps making the incumbent stale, promotes, all beside serving. A
// serve-path gain that costs training, or a slower A/B, shows up here.
//
// The run has to do the same amount of work for every seed, since a retrain
// costs as much as thirty served days. So retraining follows the age trigger
// alone (the accuracy trigger fires on a seed-dependent number of days), and
// the traffic has the generator's own drift rather than the drift-gradual
// preset, under which candidates were rejected, and retrained again, on some
// seeds but not others. The models are the small ones the lifecycle soak
// uses (12 trees), so the 20-day loop over the 200-template catalogue fits a
// run three times.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "lifecycle/lifecycle.h"

namespace phoebe::perfbench {
namespace {

struct Shape {
  int templates;
  int days;
};

Shape ShapeFor(const Options& o) { return o.smoke ? Shape{20, 5} : Shape{200, 20}; }

lifecycle::LifecycleConfig LoopConfig() {
  lifecycle::LifecycleConfig cfg;
  for (core::PredictorConfig* p : {&cfg.pipeline.exec_predictor, &cfg.pipeline.size_predictor}) {
    p->gbdt.num_trees = 12;
  }
  cfg.pipeline.ttl.gbdt.num_trees = 12;
  cfg.policy.min_exec_r2 = -1.0;  // age trigger only
  cfg.policy.max_age_days = 4;
  cfg.backtest_window_days = 3;
  cfg.shadow = true;
  cfg.fleet.num_threads = 1;
  return cfg;
}

/// One full pass of the loop on a fresh driver.
struct Loop {
  std::vector<double> day_s;  ///< OnDayCompleted wall time per day
  int64_t attempted = 0;      ///< jobs of every day
  int64_t failed = 0;         ///< jobs of days whose call failed
  int64_t served_jobs = 0;
  int served_days = 0;
  double realized = 0.0, total = 0.0, r2_sum = 0.0;
  int64_t with_cut = 0, admitted = 0;
  int retrains = 0, promotions = 0;
  std::string artifacts;      ///< promotion.log + day_reports.jsonl bytes
  bool artifacts_match = false;
  std::shared_ptr<const core::PipelineBundle> incumbent;

  double Seconds() const {
    double s = 0.0;
    for (double x : day_s) s += x;
    return s;
  }
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs days [first, first + day_total.size()); day_total[k] is the total
/// temp byte-seconds of day first + k.
Loop RunLoop(telemetry::WorkloadRepository* repo, int first,
             const std::vector<double>& day_total, const std::string& dir,
             obs::MetricsRegistry* registry) {
  lifecycle::LifecycleConfig cfg = LoopConfig();
  cfg.out_dir = dir;
  cfg.metrics = registry;
  lifecycle::LifecycleDriver driver(cfg);

  Loop loop;
  for (int day = first; day < first + static_cast<int>(day_total.size()); ++day) {
    const double day_bytes = day_total[static_cast<size_t>(day - first)];
    const int64_t jobs = static_cast<int64_t>(repo->Day(day).size());
    loop.attempted += jobs;
    auto t0 = Clock::now();
    Result<lifecycle::LifecycleDayReport> r = driver.OnDayCompleted(repo, day);
    loop.day_s.push_back(SecondsSince(t0));
    if (!r.ok()) {
      std::fprintf(stderr, "phoebe_bench: OnDayCompleted(%d): %s\n", day,
                   r.status().ToString().c_str());
      loop.failed += jobs;
      continue;
    }
    if (r->served) {
      ++loop.served_days;
      loop.served_jobs += r->jobs;
      loop.realized += r->saving_fraction * day_bytes;
      loop.total += day_bytes;
      loop.r2_sum += r->exec_r2;
      loop.with_cut += r->jobs_with_cut;
      loop.admitted += r->jobs_admitted;
    }
    loop.retrains += r->retrained ? 1 : 0;
    loop.promotions += r->verdict == "promoted" ? 1 : 0;
  }
  const std::string log = ReadFile(dir + "/promotion.log");
  const std::string reports = ReadFile(dir + "/day_reports.jsonl");
  std::string expected_reports;
  for (const auto& r : driver.history()) {
    expected_reports += lifecycle::LifecycleDayReportJson(r) + "\n";
  }
  loop.artifacts = log + reports;
  loop.artifacts_match = log == lifecycle::SerializePromotionLog(driver.promotion_records()) &&
                         reports == expected_reports;
  loop.incumbent = driver.incumbent();
  return loop;
}

}  // namespace

void RunLifecycle(const Options& o, Report* report) {
  const Shape shape = ShapeFor(o);
  // The loop starts at the seed's first day, with a training window of
  // history before it so the bootstrap retrain sees a full window.
  const int first = FirstDay(o.seed);
  const int history = LoopConfig().policy.train_window_days - 1;
  TempDir tmp(o.out_dir);

  // Set-up, repeated: generate the days. Training happens inside the loop,
  // so it is part of the timed phase here.
  std::unique_ptr<telemetry::WorkloadRepository> repo;
  std::vector<double> setup_s;
  double generate_s = 0.0;
  for (int i = 0; i < (o.trace ? 1 : kSetupReps); ++i) {
    repo.reset();
    auto t0 = Clock::now();
    repo = std::make_unique<telemetry::WorkloadRepository>();
    workload::WorkloadGenerator gen(Catalogue(shape.templates));
    for (int day = first - history; day < first + shape.days; ++day) {
      repo->AddDay(day, gen.GenerateDay(day)).Check();
    }
    setup_s.push_back(SecondsSince(t0));
    generate_s = setup_s.back();
  }
  std::vector<double> day_total;
  for (int day = first; day < first + shape.days; ++day) {
    double total = 0.0;
    for (const auto& job : repo->Day(day)) total += job.TempByteSeconds();
    day_total.push_back(total);
  }
  report->Diag("jobs", static_cast<double>(repo->TotalJobs()));
  int pass_index = 0;
  auto run = [&](obs::MetricsRegistry* registry) {
    return RunLoop(repo.get(), first, day_total,
                   tmp.path() + "/pass" + std::to_string(pass_index++), registry);
  };

  if (!o.trace) {
    std::vector<Loop> loops;
    double elapsed = 0.0;
    while (loops.empty() || elapsed < o.seconds) {
      loops.push_back(run(nullptr));
      elapsed += loops.back().Seconds();
    }
    std::vector<double> rates, day_ms;
    bool same = true, match = true;
    for (const Loop& l : loops) {
      rates.push_back(Ratio(static_cast<double>(l.served_jobs), l.Seconds()));
      for (double s : l.day_s) day_ms.push_back(1e3 * s);
      report->attempted += l.attempted;
      report->failed += l.failed;
      same = same && l.artifacts == loops.front().artifacts;
      match = match && l.artifacts_match;
    }
    const Loop& l0 = loops.front();
    report->Metric("setup_s", Percentile(setup_s, 0.5));
    report->Metric("decisions_per_s", Percentile(rates, 0.5));
    report->Metric("latency_p50_ms", Percentile(day_ms, 0.50));
    report->Metric("latency_p90_ms", Percentile(day_ms, 0.90));
    report->Diag("latency_p99_ms", Percentile(day_ms, 0.99));
    report->Metric("saving_fraction", Ratio(l0.realized, l0.total));
    report->Metric("exec_r2", Ratio(l0.r2_sum, l0.served_days));
    report->Metric("peak_rss_mb", PeakRssMb());
    report->Diag("passes", static_cast<double>(loops.size()));
    report->Diag("latency_samples", static_cast<double>(day_ms.size()));
    report->Diag("lifecycle.retrains", l0.retrains);
    report->Diag("lifecycle.promotions", l0.promotions);
    report->Check("lifecycle.artifacts_equal_across_passes", same);
    report->Check("lifecycle.artifacts_equal_in_memory_history", match);
    if (!o.smoke) {
      report->Check("guard.retrains_and_promotions", l0.retrains >= 1 && l0.promotions >= 1);
    }
    return;
  }

  // Traced run: plain and registry-attached loops alternate.
  obs::MetricsRegistry registry;
  std::vector<Loop> plain, traced;
  double elapsed = 0.0;
  while (plain.empty() || elapsed < o.seconds) {
    plain.push_back(run(nullptr));
    traced.push_back(run(&registry));
    elapsed += plain.back().Seconds() + traced.back().Seconds();
  }
  double plain_s = 0.0, traced_s = 0.0;
  bool same = true;
  for (size_t i = 0; i < plain.size(); ++i) {
    plain_s += plain[i].Seconds();
    traced_s += traced[i].Seconds();
    same = same && plain[i].artifacts == plain[0].artifacts &&
           traced[i].artifacts == plain[0].artifacts;
    report->attempted += plain[i].attempted + traced[i].attempted;
    report->failed += plain[i].failed + traced[i].failed;
  }
  report->Check("lifecycle.artifacts_traced_equal_untraced", same);
  report->Metric("trace.overhead_ratio", traced_s / plain_s - 1.0);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  const double loops = static_cast<double>(traced.size());
  const Loop& l = traced.front();
  const double day_sum = Hist(snap, "lifecycle.day.seconds").sum;
  report->Metric("lifecycle.train.time_share",
                 Ratio(Hist(snap, "lifecycle.train.seconds").sum, day_sum));
  report->Metric("lifecycle.backtest.time_share",
                 Ratio(Hist(snap, "lifecycle.backtest.seconds").sum, day_sum));
  report->Metric("lifecycle.shadow.time_share",
                 Ratio(Hist(snap, "lifecycle.shadow.seconds").sum, day_sum));
  report->Metric("lifecycle.serve.time_share",
                 Ratio(Hist(snap, "fleet.day.seconds").sum, day_sum));
  report->Diag("lifecycle.retrains", l.retrains);
  report->Diag("lifecycle.promotions", l.promotions);
  double served = 0.0;
  for (const Loop& t : traced) served += static_cast<double>(t.served_jobs);
  report->Metric("decide.calls_per_job",
                 static_cast<double>(Hist(snap, "engine.ml_stacked.decide.seconds").count) /
                     served);
  // Cache counters come from the registry (the report has none), averaged
  // over the traced passes.
  FleetCounts counts;
  counts.hits = static_cast<double>(Count(snap, "fleet.cache.hits")) / loops;
  counts.lookups = counts.hits + static_cast<double>(Count(snap, "fleet.cache.misses")) / loops;
  counts.evictions = static_cast<double>(Count(snap, "fleet.cache.evictions")) / loops;
  counts.offers = static_cast<double>(l.with_cut);
  counts.admitted = static_cast<double>(l.admitted);
  ReportFleetLayers(snap, counts, report);
  if (!o.smoke) {
    report->Check("guard.retrains_and_promotions", l.retrains >= 1 && l.promotions >= 1);
  }

  // Set-up layers: generation from the set-up; stats, training and the
  // bundle round trip as the loop does them (the last retrain's bundle).
  const int end = first + shape.days;
  report->Metric("workload.generate.s_per_day", generate_s / (history + shape.days));
  auto t0 = Clock::now();
  std::vector<telemetry::HistoricStats> stats;
  for (int day = end - 3; day < end; ++day) {
    stats.push_back(repo->StatsBefore(day));
  }
  report->Metric("telemetry.stats.s_per_day", SecondsSince(t0) / 3.0);
  report->Metric("train.s", Hist(snap, "lifecycle.train.seconds").mean());
  const std::string path = tmp.path() + "/incumbent.phoebe";
  t0 = Clock::now();
  l.incumbent->SaveToFile(path).Check();
  report->Metric("bundle.save_s", SecondsSince(t0));
  report->Metric("bundle.bytes", static_cast<double>(std::filesystem::file_size(path)));
  t0 = Clock::now();
  auto loaded = core::PipelineBundle::LoadFromFile(path);
  report->Metric("bundle.load_s", SecondsSince(t0));
  report->Check("bundle.round_trip", loaded.ok() &&
                                         (*loaded)->checksum() == l.incumbent->checksum());

  // Replay the incumbent's decisions over the last days, newest first.
  LayerReplay replay(l.incumbent, core::FleetConfig().decide_options());
  for (int k = 0; k < 3 && !replay.full(); ++k) {
    const int day = end - 1 - k;
    for (const auto& job : repo->Day(day)) replay.Add(job, stats[static_cast<size_t>(2 - k)]);
  }
  replay.Run();
  replay.Finish(o.out_dir + "/" + o.workload + ".trace.jsonl", report);
}

}  // namespace phoebe::perfbench
