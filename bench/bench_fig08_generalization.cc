// Figure 8: generalization to future days — accuracy of a once-trained model
// on test days progressively further from the training window (paper: R^2
// decays gradually, motivating periodic retraining).
#include <cstdio>

#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "bench_util.h"

using namespace phoebe;

int main() {
  bench::Banner("Figure 8",
                "Accuracy of the day-0..4-trained models on test days +1..+7.");

  auto env = bench::MakeEnv(/*num_templates=*/60, /*train_days=*/5, /*test_days=*/7);

  TablePrinter table({"days after training", "R^2 exec", "R^2 output", "R^2 TTL"});
  double first_exec = 0.0, last_exec = 0.0;
  for (int k = 0; k < env.test_days; ++k) {
    const auto& jobs = env.TestDay(k);
    // Production keeps serving the stats snapshot from deployment time, so
    // the decay reflects both model and statistics staleness.
    auto stats = env.StatsForTestDay(0);
    std::vector<double> et, ep, ot, op, tt, tp;
    for (const auto& job : jobs) {
      auto exec = env.phoebe->exec_predictor().PredictJob(job, stats);
      auto out = env.phoebe->size_predictor().PredictJob(job, stats);
      auto costs =
          env.phoebe->engine().BuildCosts(job, core::CostSource::kMlStacked, stats);
      costs.status().Check();
      for (size_t i = 0; i < job.graph.num_stages(); ++i) {
        et.push_back(job.truth[i].exec_seconds);
        ep.push_back(exec[i]);
        ot.push_back(job.truth[i].output_bytes);
        op.push_back(out[i]);
        tt.push_back(job.truth[i].ttl);
        tp.push_back(costs->ttl[i]);
      }
    }
    double r2e = RSquared(et, ep);
    if (k == 0) first_exec = r2e;
    last_exec = r2e;
    table.AddRow(StrFormat("+%d", k + 1),
                 {r2e, RSquared(ot, op), RSquared(tt, tp)});
  }
  table.Print();
  std::printf("\nexec-time R^2 drift over the week: %+.3f "
              "(paper: gradual decay as test days move away from training)\n",
              last_exec - first_exec);
  return 0;
}
