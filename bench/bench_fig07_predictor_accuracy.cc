// Figure 7: accuracy of the stage-type-specific LightGBM-style models on a
// held-out day — execution time (paper R^2 = 0.85), output size (0.91), and
// TTL (0.35, correlation 0.77).
#include <cstdio>
#include <map>

#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "bench_util.h"
#include "workload/stage_type.h"

using namespace phoebe;

int main() {
  bench::Banner("Figure 7",
                "Held-out-day accuracy of the stage-type-specific GBDT models "
                "(5 training days, 1 test day).");

  auto env = bench::MakeEnv(/*num_templates=*/60, /*train_days=*/5, /*test_days=*/1);
  const auto& jobs = env.TestDay(0);
  auto stats = env.StatsForTestDay(0);

  std::vector<double> et, ep, ot, op, tt, tp, traw;
  std::map<int, std::pair<std::vector<double>, std::vector<double>>> exec_by_type;
  for (const auto& job : jobs) {
    auto exec = env.phoebe->exec_predictor().PredictJob(job, stats);
    auto out = env.phoebe->size_predictor().PredictJob(job, stats);
    const core::DecisionEngine& engine = env.phoebe->engine();
    auto costs_stacked = engine.BuildCosts(job, core::CostSource::kMlStacked, stats);
    auto costs_raw = engine.BuildCosts(job, core::CostSource::kMlSimulator, stats);
    costs_stacked.status().Check();
    costs_raw.status().Check();
    for (size_t i = 0; i < job.graph.num_stages(); ++i) {
      et.push_back(job.truth[i].exec_seconds);
      ep.push_back(exec[i]);
      ot.push_back(job.truth[i].output_bytes);
      op.push_back(out[i]);
      tt.push_back(job.truth[i].ttl);
      tp.push_back(costs_stacked->ttl[i]);
      traw.push_back(costs_raw->ttl[i]);
      int type = job.graph.stage(static_cast<dag::StageId>(i)).stage_type;
      exec_by_type[type].first.push_back(job.truth[i].exec_seconds);
      exec_by_type[type].second.push_back(exec[i]);
    }
  }

  TablePrinter table({"target", "R^2 (measured)", "R^2 (paper)", "corr (measured)"});
  table.AddRow({"stage execution time", StrFormat("%.3f", RSquared(et, ep)), "0.85",
                StrFormat("%.3f", PearsonCorrelation(et, ep))});
  table.AddRow({"stage output size", StrFormat("%.3f", RSquared(ot, op)), "0.91",
                StrFormat("%.3f", PearsonCorrelation(ot, op))});
  table.AddRow({"time-to-live (stacked)", StrFormat("%.3f", RSquared(tt, tp)), "0.35",
                StrFormat("%.3f (paper 0.77)", PearsonCorrelation(tt, tp))});
  table.AddRow({"time-to-live (simulator only)", StrFormat("%.3f", RSquared(tt, traw)),
                "-", StrFormat("%.3f", PearsonCorrelation(tt, traw))});
  table.Print();

  // TTL bias check: the strict-boundary simulator over-estimates TTL (§4.2.2).
  double bias_raw = 0, bias_stacked = 0;
  for (size_t i = 0; i < tt.size(); ++i) {
    bias_raw += traw[i] - tt[i];
    bias_stacked += tp[i] - tt[i];
  }
  std::printf("\nmean TTL bias: simulator %+.1fs, after stacking %+.1fs "
              "(paper: strict boundaries bias the simulator's TTL; the "
              "stacking model shrinks the bias)\n",
              bias_raw / static_cast<double>(tt.size()),
              bias_stacked / static_cast<double>(tt.size()));

  // Per-stage-type view of the exec-time models (the color coding of Fig. 7).
  std::printf("\nper-stage-type execution-time R^2 (types with >= 200 test stages):\n");
  TablePrinter per_type({"stage type", "test stages", "R^2"});
  for (const auto& [type, data] : exec_by_type) {
    if (data.first.size() < 200) continue;
    per_type.AddRow({workload::StageTypeCatalog()[static_cast<size_t>(type)].name,
                     StrFormat("%zu", data.first.size()),
                     StrFormat("%.3f", RSquared(data.first, data.second))});
  }
  per_type.Print();
  return 0;
}
