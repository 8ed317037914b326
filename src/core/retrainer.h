// Retraining policy: keeps the pipeline fresh as the workload drifts.
//
// Figure 8 of the paper shows model accuracy decaying on days further from
// the training window, and §3/§6.1 describe periodic retraining from the
// workload repository. RetrainPolicy encodes when to retrain — bootstrap once
// enough history exists, then on accuracy decay or model age — and
// EvaluateExecR2 is the accuracy signal. lifecycle::LifecycleDriver runs the
// loop that applies them.
#pragma once

#include "core/pipeline.h"

namespace phoebe::core {

/// \brief When to retrain.
struct RetrainPolicy {
  double min_exec_r2 = 0.70;   ///< retrain if held-out exec R^2 drops below
  int max_age_days = 7;        ///< retrain at least this often
  int train_window_days = 5;   ///< days of history per training run
  int min_history_days = 2;    ///< wait for this much history before training

  Status Validate() const;
};

/// Held-out R^2 of `exec` on `day`'s stage runtimes, featurized against the
/// historic stats available strictly before `day` — the accuracy-decay
/// signal of Figure 8 that the lifecycle loop triggers retraining off.
double EvaluateExecR2(const StageCostPredictor& exec,
                      const telemetry::WorkloadRepository& repo, int day);

}  // namespace phoebe::core
