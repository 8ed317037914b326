// Time-to-live estimator (paper §4.2): job runtime simulator + per-stage-type
// stacking model.
//
// The simulator (core/simulator.h) assumes strict stage boundaries and hence
// over-estimates TTL for pipelined stage types. The stacking model corrects
// that bias: per stage type, a small GBDT maps (simulated TTL, simulated TFS)
// — the "position" of the stage within the job — to the true TTL.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/predictors.h"
#include "core/simulator.h"
#include "ml/gbdt.h"

namespace phoebe::core {

/// \brief Configuration of the TTL stacking model.
struct TtlConfig {
  ml::GbdtParams gbdt = [] {
    ml::GbdtParams p;
    p.num_trees = 60;
    p.num_leaves = 15;
    p.min_data_in_leaf = 30;
    return p;
  }();
  int min_samples_per_type = 100;
};

/// \brief Stacked TTL estimator.
class TtlEstimator {
 public:
  explicit TtlEstimator(TtlConfig config = {});

  /// Train the stacking models. For each training job, stage execution times
  /// are predicted by `exec_predictor` (so the stacking model sees the same
  /// input distribution it will see at inference time), the schedule is
  /// simulated, and true TTLs are the regression targets.
  Status Train(const std::vector<TrainExample>& examples,
               const StageCostPredictor& exec_predictor);

  bool trained() const { return trained_; }
  size_t num_type_models() const { return per_type_.size(); }

  /// Stacked TTL predictions for every stage given the simulated schedule:
  /// the stacking rows go through ScoreByStageType (per-type model, else the
  /// general one; scale 1). Untrained, every stage gets the raw simulator
  /// TTL.
  std::vector<double> Predict(const workload::JobInstance& job,
                              const SimulatedSchedule& sim) const;

  /// Predict into caller-owned buffers (bit-identical to Predict; no heap
  /// allocation once `scratch` and `out` are warm). `out` must not alias
  /// scratch fields.
  void PredictInto(const workload::JobInstance& job, const SimulatedSchedule& sim,
                   PredictScratch* scratch, std::vector<double>* out) const;

  /// Width of a stacking feature row (StackingFeatureNames().size()).
  static constexpr size_t kNumStackingFeatures = 4;
  /// Stacking feature row: the stage's "position" within the job.
  static std::vector<double> StackingFeatures(const SimulatedSchedule& sim,
                                              dag::StageId stage);
  /// Same row into caller-owned storage (cleared first; capacity reused).
  static void StackingFeaturesInto(const SimulatedSchedule& sim, dag::StageId stage,
                                   std::vector<double>* row);
  static std::vector<std::string> StackingFeatureNames();

  /// Serialize the trained stacking models; LoadFromText restores them
  /// (every model must score kNumStackingFeatures-wide rows). On error the
  /// estimator is left as it was.
  std::string ToText() const;
  Status LoadFromText(const std::string& text);

 private:
  TtlConfig config_;
  std::map<int, ml::GbdtRegressor> per_type_;  ///< stage_type -> model
  std::unique_ptr<ml::GbdtRegressor> general_;
  bool trained_ = false;
};

}  // namespace phoebe::core
