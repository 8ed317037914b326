#include "core/retrainer.h"

#include "common/stats.h"

namespace phoebe::core {

double EvaluateExecR2(const StageCostPredictor& exec,
                      const telemetry::WorkloadRepository& repo, int day) {
  auto stats = repo.StatsBefore(day);
  std::vector<double> y_true, y_pred;
  for (const workload::JobInstance& job : repo.Day(day)) {
    auto pred = exec.PredictJob(job, stats);
    for (size_t i = 0; i < job.graph.num_stages(); ++i) {
      y_true.push_back(job.truth[i].exec_seconds);
      y_pred.push_back(pred[i]);
    }
  }
  return RSquared(y_true, y_pred);
}

Status RetrainPolicy::Validate() const {
  if (min_exec_r2 < -1.0 || min_exec_r2 > 1.0) {
    return Status::InvalidArgument("min_exec_r2 must be in [-1, 1]");
  }
  if (max_age_days < 1) return Status::InvalidArgument("max_age_days must be >= 1");
  if (train_window_days < 1) {
    return Status::InvalidArgument("train_window_days must be >= 1");
  }
  if (min_history_days < 1) {
    return Status::InvalidArgument("min_history_days must be >= 1");
  }
  return Status::OK();
}

}  // namespace phoebe::core
