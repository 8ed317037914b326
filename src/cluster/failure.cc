#include "cluster/failure.h"

#include <algorithm>
#include <cmath>

namespace phoebe::cluster {

FailureModel::FailureModel(const workload::JobInstance& job, double mtbf_seconds)
    : job_(job) {
  PHOEBE_CHECK(mtbf_seconds > 0.0);
  stage_fail_.reserve(job.truth.size());
  for (const workload::StageTruth& t : job.truth) {
    // P(stage has >= 1 failed task) = 1 - exp(-tasks * task_runtime / MTBF);
    // for small exponents this matches the paper's delta * v_u approximation.
    double lam = static_cast<double>(t.num_tasks) * t.exec_seconds / mtbf_seconds;
    stage_fail_.push_back(1.0 - std::exp(-lam));
  }
}

double FailureModel::StageFailureProb(dag::StageId u) const {
  return stage_fail_[static_cast<size_t>(u)];
}

double FailureModel::JobFailureProb() const {
  double no_fail = 1.0;
  for (double p : stage_fail_) no_fail *= (1.0 - p);
  return 1.0 - no_fail;
}

double FailureModel::RecoveryLine(const CutSet& cut) const {
  double line = 0.0;
  bool any_after = false;
  for (size_t u = 0; u < stage_fail_.size(); ++u) {
    bool after = cut.empty() || !cut.before_cut[u];
    if (after) {
      double tfs = job_.truth[u].tfs;
      if (!any_after || tfs < line) line = tfs;
      any_after = true;
    }
  }
  return any_after ? line : 0.0;
}

double FailureModel::RestartSavingFraction(const CutSet& cut) const {
  if (cut.empty()) return 0.0;
  double line = RecoveryLine(cut);
  double weight = 0.0, loss = 0.0;
  for (size_t u = 0; u < stage_fail_.size(); ++u) {
    if (cut.before_cut[u]) continue;
    weight += stage_fail_[u];
    loss += stage_fail_[u] * job_.truth[u].end_time;
  }
  if (weight <= 0.0 || loss <= 0.0) return 0.0;
  return std::clamp(line * weight / loss, 0.0, 1.0);
}

FailureSample SampleFailure(const workload::JobInstance& job, double mtbf_seconds,
                            Rng* rng) {
  FailureSample best;
  for (size_t u = 0; u < job.truth.size(); ++u) {
    const workload::StageTruth& t = job.truth[u];
    double lam = static_cast<double>(t.num_tasks) * t.exec_seconds / mtbf_seconds;
    if (lam <= 0.0) continue;
    if (!rng->Bernoulli(1.0 - std::exp(-lam))) continue;
    // Failure occurs uniformly within the stage's execution window.
    double when = t.start_time + rng->Uniform() * t.exec_seconds;
    if (!best.failed || when < best.time) {
      best.failed = true;
      best.stage = static_cast<dag::StageId>(u);
      best.time = when;
    }
  }
  return best;
}

RecoveryReplayResult ReplayRecovery(const workload::JobInstance& job,
                                    const CutSet& cut, double mtbf_seconds,
                                    int trials, Rng* rng) {
  PHOEBE_CHECK(trials > 0);
  FailureModel fm(job, mtbf_seconds);
  const double line = fm.RecoveryLine(cut);
  const double clear = CutClearTime(job, cut);

  RecoveryReplayResult r;
  r.trials = trials;
  double wasted_scratch = 0.0, wasted_ckpt = 0.0;
  for (int t = 0; t < trials; ++t) {
    FailureSample f = SampleFailure(job, mtbf_seconds, rng);
    if (!f.failed) continue;
    ++r.failures;
    wasted_scratch += f.time;
    bool covered = !cut.empty() &&
                   !cut.before_cut[static_cast<size_t>(f.stage)] && f.time >= clear;
    if (covered) {
      ++r.helped;
      wasted_ckpt += std::max(0.0, f.time - line);
    } else {
      wasted_ckpt += f.time;
    }
  }
  if (r.failures > 0) {
    r.mean_wasted_scratch = wasted_scratch / r.failures;
    r.mean_wasted_ckpt = wasted_ckpt / r.failures;
    if (wasted_scratch > 0.0) r.saving_fraction = 1.0 - wasted_ckpt / wasted_scratch;
  }
  return r;
}

}  // namespace phoebe::cluster
