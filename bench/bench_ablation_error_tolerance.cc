// Error-tolerance ablation: how does realized temp saving degrade as the
// cost inputs get noisier? This connects Figure 7 (model accuracy) to
// Figure 12 (end savings): the TTL-threshold sweep needs ordering, not
// absolute values, so savings degrade gracefully until errors are large
// enough to reshuffle the stage order — which is also why the raw optimizer
// estimates (orders of magnitude off) land so far below the learned models.
#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/sensitivity.h"
#include "bench_util.h"

using namespace phoebe;

int main() {
  bench::Banner("Error-tolerance ablation",
                "Realized temp saving and cut stability vs injected log-normal "
                "error on the optimizer's inputs (truth + noise).");

  auto env = bench::MakeEnv(60, 0, 1, /*seed=*/19);
  const auto& jobs = env.TestDay(0);

  TablePrinter table({"noise sigma (log)", "approx QError", "mean saving %",
                      "mean regret pts", "cut Jaccard"});
  Rng rng(5);
  for (double sigma : {0.0, 0.2, 0.5, 1.0, 1.5, 2.5}) {
    core::CostPerturbation p;
    p.output_sigma = sigma;
    p.ttl_sigma = sigma;
    RunningStats saving, regret, jaccard;
    for (const auto& job : jobs) {
      if (job.graph.num_stages() < 4) continue;
      auto costs = env.phoebe->engine().BuildCosts(job, core::CostSource::kTruth,
                                                   env.phoebe->inference_stats());
      costs.status().Check();
      auto r = core::EvaluateCutSensitivity(job, *costs, p, &rng);
      r.status().Check();
      saving.Add(r->realized_noisy);
      regret.Add(r->regret);
      jaccard.Add(r->jaccard);
    }
    // Median multiplicative error of LogNormal(0, sigma) noise ~ exp(0.674*sigma).
    table.AddRow(StrFormat("%.1f", sigma),
                 {std::exp(0.6745 * sigma), 100 * saving.mean(), 100 * regret.mean(),
                  jaccard.mean()},
                 2);
  }
  table.Print();
  std::printf("\nreading: at the learned models' error level (sigma ~0.2, i.e. "
              "~1.1-1.2x typical error)\nthe regret is only a few points — the "
              "OMLS-vs-Optimal gap of Figure 12. At the multi-x\nerrors of raw "
              "optimizer estimates, savings halve — the OP bar of Figure 12.\n");
  return 0;
}
