// Failure and recovery model (paper §5.3, Figures 2-right and 14).
//
// Tasks fail independently with rate 1/MTBF over their runtime. A job-level
// failure aborts the job; without a checkpoint it restarts from scratch,
// with a checkpoint it resumes from the durable cut. Both analytic
// expectations and Monte-Carlo sampling are provided.
#pragma once

#include "common/rng.h"
#include "cluster/cluster.h"
#include "workload/job_instance.h"

namespace phoebe::cluster {

/// \brief Analytic failure probabilities for one job.
class FailureModel {
 public:
  /// \param mtbf_seconds mean time between failures of one task slot
  FailureModel(const workload::JobInstance& job, double mtbf_seconds);

  /// Per-task failure probability for stage u: delta * (runtime scaling).
  double StageFailureProb(dag::StageId u) const;

  /// P(at least one stage of the job fails).
  double JobFailureProb() const;

  /// Minimum TFS among after-cut stages (the recovery line, eq. 34).
  double RecoveryLine(const CutSet& cut) const;

  /// Restart-time saving for failures the checkpoint helps: conditional on a
  /// failure in an after-cut stage, the fraction of the wasted work that the
  /// checkpoint avoids, T-bar / E[end of failed stage | failure after cut].
  /// This is the per-failed-job saving the paper reports in Figure 14
  /// ("restart failed jobs 68% faster on average"). In [0, 1].
  double RestartSavingFraction(const CutSet& cut) const;

 private:
  const workload::JobInstance& job_;
  std::vector<double> stage_fail_;  ///< per-stage failure probability
};

/// \brief One sampled failure event.
struct FailureSample {
  bool failed = false;
  dag::StageId stage = dag::kInvalidStage;
  double time = 0.0;  ///< failure time relative to job start
};

/// Sample whether/where the job first fails (Monte Carlo; for back-testing).
FailureSample SampleFailure(const workload::JobInstance& job, double mtbf_seconds,
                            Rng* rng);

/// \brief Aggregate result of a Monte-Carlo recovery replay.
struct RecoveryReplayResult {
  int trials = 0;
  int failures = 0;                ///< trials with at least one task failure
  int helped = 0;                  ///< failures the checkpoint could help
  double mean_wasted_scratch = 0;  ///< wasted seconds restarting from scratch
  double mean_wasted_ckpt = 0;     ///< wasted seconds restarting from the cut
  /// 1 - wasted_ckpt / wasted_scratch, over failing trials; 0 if none fail.
  double saving_fraction = 0;
};

/// Replay `trials` failure draws for `job` under `cut`. A failure in an
/// after-cut stage at time t wastes t when restarting from scratch and
/// max(0, t - recovery_line) when the checkpoint has completed by then;
/// failures in before-cut stages waste t either way. Validates the analytic
/// RestartSavingFraction (see tests).
RecoveryReplayResult ReplayRecovery(const workload::JobInstance& job,
                                    const CutSet& cut, double mtbf_seconds,
                                    int trials, Rng* rng);

}  // namespace phoebe::cluster
