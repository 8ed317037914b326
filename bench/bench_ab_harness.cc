// Differential A/B harness bench: N arms over one shared DayContext vs the
// same arms run standalone, one FleetDriver each. Times both and gates the
// contract that makes the harness trustworthy — every arm's per-day report
// must be byte-identical to the report that arm produces standalone, and the
// paired comparison report must be byte-identical across thread counts.
// Emits a JSON document on stdout for dashboards; human-readable progress
// goes to stderr.
//
// The harness's win is structural (workload generation, historic stats, and
// the day context are materialized once instead of once per arm), so the
// wall-clock series is the perf-trajectory signal and the byte-identity
// booleans are the correctness gates — tools/bench_compare.py fails the
// nightly if either regresses.
//
// Usage: bench_ab_harness [--days N] [--num-cuts K] [--budget-gb G]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/threadpool.h"
#include "core/engine.h"
#include "core/fleet.h"
#include "core/fleet_ab.h"
#include "core/fleet_shard.h"

namespace phoebe::bench {
namespace {

int ArgInt(int argc, char** argv, const char* flag, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int Run(int argc, char** argv) {
  const int num_days = ArgInt(argc, argv, "--days", 3);
  const int num_cuts = ArgInt(argc, argv, "--num-cuts", 1);
  const int budget_gb = ArgInt(argc, argv, "--budget-gb", 0);

  std::fprintf(stderr, "training pipeline...\n");
  BenchEnv env = MakeEnv(/*num_templates=*/60, /*train_days=*/5, /*test_days=*/1);

  // The fleet span: the stored test day plus freshly generated days beyond
  // it. Stats stay fixed at the test-day view, as in production serving.
  std::vector<std::vector<workload::JobInstance>> days;
  days.push_back(env.TestDay(0));
  for (int d = 1; d < num_days; ++d) {
    days.push_back(env.gen->GenerateDay(env.train_days + env.test_days + d));
  }
  const telemetry::HistoricStats stats = env.StatsForTestDay(0);
  size_t total_jobs = 0;
  for (const auto& day : days) total_jobs += day.size();
  std::fprintf(stderr, "%d day(s) assembled: %zu jobs total\n", num_days,
               total_jobs);

  // Two arms over the shared bundle: the baseline config and a 2x-cuts
  // variant — a realistic "does more cut candidates pay for itself?" run.
  core::FleetConfig base_cfg;
  base_cfg.num_cuts = num_cuts;
  if (budget_gb > 0) base_cfg.storage_budget_bytes = budget_gb * 1e9;
  core::FleetConfig variant_cfg = base_cfg;
  variant_cfg.num_cuts = num_cuts * 2;

  const uint32_t checksum = env.phoebe->bundle()->checksum();
  auto make_specs = [&](int threads) {
    core::FleetConfig b = base_cfg, v = variant_cfg;
    b.num_threads = threads;
    v.num_threads = threads;
    return std::vector<core::FleetArmSpec>{
        {"base", &env.phoebe->engine(), b, checksum},
        {"morecuts", &env.phoebe->engine(), v, checksum}};
  };
  const core::DayContext calibration_day(-1, env.repo.Day(env.train_days - 1),
                                         env.repo.StatsBefore(env.train_days - 1));

  // --- Standalone baseline: one FleetDriver per arm, full pass each -------
  auto t_sa0 = std::chrono::steady_clock::now();
  std::vector<std::string> standalone_json(2);
  {
    const auto specs = make_specs(1);
    for (size_t k = 0; k < specs.size(); ++k) {
      core::FleetDriver driver(specs[k].engine, specs[k].config);
      if (budget_gb > 0) {
        driver.Calibrate(env.repo.Day(env.train_days - 1),
                         env.repo.StatsBefore(env.train_days - 1))
            .Check();
      }
      for (int d = 0; d < num_days; ++d) {
        auto report = driver.RunDay(days[static_cast<size_t>(d)], stats);
        report.status().Check();
        standalone_json[k] += core::FleetDayReportJson(*report, d) + "\n";
      }
    }
  }
  const double standalone_seconds =
      Seconds(t_sa0, std::chrono::steady_clock::now());
  std::fprintf(stderr, "standalone (2 arms, serial): %.3f s\n",
               standalone_seconds);

  // --- Harness series: shared DayContext, every arm, 1/2/4 threads --------
  struct Series {
    int threads;
    double seconds;
    bool paired_identical;
  };
  std::vector<Series> series;
  std::string paired_baseline;
  bool arm_reports_identical = true;

  for (int threads : {1, 2, 4}) {
    core::FleetAbDriver ab(make_specs(threads));
    if (budget_gb > 0) {
      ab.Calibrate(std::vector<core::DayContext>(ab.num_arms(), calibration_day)).Check();
    }
    auto t0 = std::chrono::steady_clock::now();
    std::vector<core::AbDayComparison> comparisons;
    std::vector<std::string> arm_json(2);
    for (int d = 0; d < num_days; ++d) {
      core::DayContext ctx(d, days[static_cast<size_t>(d)], stats);
      auto result = ab.RunDay(std::vector<core::DayContext>(ab.num_arms(), ctx));
      result.status().Check();
      comparisons.push_back(result->comparison);
      for (size_t k = 0; k < arm_json.size(); ++k) {
        arm_json[k] += core::FleetDayReportJson(result->reports[k], d) + "\n";
      }
    }
    const std::string paired = core::SerializeAbReport(comparisons);
    const double seconds = Seconds(t0, std::chrono::steady_clock::now());

    bool paired_identical = true;
    if (threads == 1) {
      paired_baseline = paired;
      for (size_t k = 0; k < arm_json.size(); ++k) {
        arm_reports_identical =
            arm_reports_identical && arm_json[k] == standalone_json[k];
      }
    } else {
      paired_identical = paired == paired_baseline;
    }
    series.push_back({threads, seconds, paired_identical});
    std::fprintf(stderr, "harness threads %d: %.3f s%s\n", threads, seconds,
                 paired_identical ? "" : "  PAIRED REPORT MISMATCH");
  }
  std::fprintf(stderr, "arm reports identical to standalone: %s\n",
               arm_reports_identical ? "yes" : "NO");

  JsonWriter json;
  json.BeginObject();
  json.KV("bench", "ab_harness");
  json.KV("days", num_days);
  json.KV("jobs_total", total_jobs);
  json.KV("arms", 2);
  json.KV("num_cuts", num_cuts);
  json.KV("budget_gb", budget_gb);
  json.KV("hardware_concurrency", ThreadPool::Resolve(0));
  json.KV("arm_reports_identical_to_standalone", arm_reports_identical);
  json.Key("series").BeginArray();
  {
    json.BeginObject();
    json.KV("threads", 0);  // standalone two-driver baseline
    json.KV("seconds", standalone_seconds);
    json.EndObject();
  }
  for (const Series& s : series) {
    json.BeginObject();
    json.KV("threads", s.threads);
    json.KV("seconds", s.seconds);
    json.KV("speedup_vs_standalone", standalone_seconds / s.seconds);
    json.KV("paired_identical_to_serial", s.paired_identical);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());

  if (!arm_reports_identical) return 1;  // determinism violation = failure
  for (const Series& s : series) {
    if (!s.paired_identical) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace phoebe::bench

int main(int argc, char** argv) { return phoebe::bench::Run(argc, argv); }
