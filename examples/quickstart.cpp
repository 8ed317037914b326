// Quickstart: generate a synthetic SCOPE-like workload, train Phoebe, and
// pick a checkpoint cut for a fresh job.
//
//   $ ./build/examples/quickstart
//
// Walks the full Figure-4 loop: telemetry accumulates in the workload
// repository -> the three predictors train -> a new job is scored, its
// schedule simulated, its TTL stacked, and the optimizer picks the cut.
#include <chrono>
#include <cstdio>

#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/evaluate.h"
#include "core/pipeline.h"
#include "telemetry/repository.h"
#include "workload/generator.h"

using namespace phoebe;

int main() {
  // --- 1. A recurring workload: 40 templates, 6 days of history.
  workload::WorkloadConfig wcfg;
  wcfg.num_templates = 40;
  wcfg.seed = 11;
  workload::WorkloadGenerator gen(wcfg);

  telemetry::WorkloadRepository repo;
  for (int day = 0; day < 6; ++day) {
    repo.AddDay(day, gen.GenerateDay(day)).Check();
  }
  std::printf("repository: %zu jobs, %zu stage records over %zu days\n",
              repo.TotalJobs(), repo.TotalStageRecords(), repo.Days().size());

  // --- 2. Train Phoebe on days 0-4 (day 5 stays unseen).
  core::PhoebePipeline phoebe;
  phoebe.Train(repo, /*first_day=*/0, /*num_days=*/5).Check();
  std::printf("trained: %zu exec-time models, %zu output-size models, "
              "%zu TTL stacking models\n",
              phoebe.exec_predictor().num_type_models(),
              phoebe.size_predictor().num_type_models(),
              phoebe.ttl_estimator().num_type_models());

  // --- 3. Prediction quality on the held-out day.
  const auto& test_jobs = repo.Day(5);
  std::vector<double> exec_true, exec_pred, out_true, out_pred, ttl_true, ttl_pred;
  for (const auto& job : test_jobs) {
    auto costs = phoebe.engine().BuildCosts(job, core::CostSource::kMlStacked,
                                            phoebe.inference_stats());
    costs.status().Check();
    for (size_t i = 0; i < job.graph.num_stages(); ++i) {
      exec_true.push_back(job.truth[i].exec_seconds);
      out_true.push_back(job.truth[i].output_bytes);
      ttl_true.push_back(job.truth[i].ttl);
      out_pred.push_back(costs->output_bytes[i]);
      ttl_pred.push_back(costs->ttl[i]);
    }
    auto exec = phoebe.exec_predictor().PredictJob(job, phoebe.inference_stats());
    exec_pred.insert(exec_pred.end(), exec.begin(), exec.end());
  }
  std::printf("held-out day: R2(exec time) = %.3f, R2(output size) = %.3f, "
              "R2(TTL) = %.3f, corr(TTL) = %.3f\n",
              RSquared(exec_true, exec_pred), RSquared(out_true, out_pred),
              RSquared(ttl_true, ttl_pred), PearsonCorrelation(ttl_true, ttl_pred));

  // --- 4. Checkpoint decision for one fresh job.
  const workload::JobInstance* big = nullptr;
  for (const auto& job : test_jobs) {
    if (!big || job.graph.num_stages() > big->graph.num_stages()) big = &job;
  }
  const auto start = std::chrono::steady_clock::now();
  auto decision = phoebe.engine().DecideJob(*big, phoebe.inference_stats(),
                                            {core::Objective::kTempStorage});
  const std::chrono::duration<double> latency = std::chrono::steady_clock::now() - start;
  decision.status().Check();
  const auto& cut = decision->combined;
  std::printf("\njob '%s': %zu stages, runtime %s\n", big->job_name.c_str(),
              big->graph.num_stages(), HumanDuration(big->JobRuntime()).c_str());
  std::printf("  decision latency: %.1f ms\n", 1e3 * latency.count());
  size_t before = 0;
  for (bool b : cut.cut.before_cut) before += b ? 1 : 0;
  std::printf("  cut: %zu stages before, global storage %s, realized temp saving %.1f%%\n",
              before, HumanBytes(cut.global_bytes).c_str(),
              100.0 * core::RealizedTempSaving(*big, cut.cut));
  std::printf("  checkpoint stages:");
  for (dag::StageId u : cluster::CheckpointStages(big->graph, cut.cut)) {
    std::printf(" %s", big->graph.stage(u).name.c_str());
  }
  std::printf("\n");
  return 0;
}
