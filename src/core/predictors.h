// Stage-level cost predictors (paper §4.1): execution time and output size.
//
// The default configuration is the paper's best: one LightGBM-style GBDT per
// stage type ("stage-type specific models"), trained on Table-1 features,
// falling back to a general model for rare types. A general GBDT and a
// general MLP-with-text-features ("DNN benchmark") are available for the
// §6.1 ablations. Targets are modeled in log1p space and expanded back.
#pragma once

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/strings.h"
#include "core/features.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"

namespace phoebe::core {

/// \brief Which learner architecture to use.
enum class ModelKind {
  kGbdtPerStageType,  ///< paper default: stage-type specific LightGBM models
  kGbdtGeneral,       ///< one GBDT for all stages
  kMlpGeneral,        ///< DNN benchmark (pair with FeatureConfig.text = true)
};

/// \brief Configuration of one stage cost predictor.
struct PredictorConfig {
  ModelKind kind = ModelKind::kGbdtPerStageType;
  FeatureConfig features;
  ml::GbdtParams gbdt;
  ml::MlpParams mlp;
  /// Stage types with fewer training rows than this use the general model.
  int min_samples_per_type = 100;
};

/// \brief One training example: a job paired with the historic statistics
/// that were available when it was compiled (days strictly before its own).
struct TrainExample {
  const workload::JobInstance* job = nullptr;
  const telemetry::HistoricStats* stats = nullptr;
};

/// \brief Reusable featurize→predict working storage for one inference
/// stream (see core/engine.h DecideScratch). A warm scratch — one that has
/// seen the widest job of the workload — makes PredictJobInto /
/// TtlEstimator::PredictInto allocation-free: the job matrix, the per-model
/// row gather, and the log-space output buffer are all recycled in place.
struct PredictScratch {
  ml::FeatureMatrix matrix;    ///< whole-job feature rows (schema sticks)
  std::vector<double> row;     ///< per-stage staging row
  std::vector<size_t> rows;    ///< row indices served by the current model
  std::vector<double> y_log;   ///< model outputs for those rows (log space)
  std::vector<char> served;    ///< per-stage flag: scored by a per-type model
};

/// The stage routing both learned cost stacks share (paper §4.1–4.2): stage
/// s of `graph` is scored by `per_type`'s model for its stage type, or by
/// `general` when that type has none, and expanded out of log space:
///
///   (*out)[s] = max(0, expm1(y_log)) * scale(group)
///
/// Row s of `x` holds stage s's features. Stages are grouped by serving
/// model so each model scores its group in one PredictRowsInto call;
/// groups run in ascending stage type, then the general model's.
/// `scale(type)` is called once per non-empty group with the group's stage
/// type, or with std::nullopt for the general model's group. Allocation-free
/// once `scratch` and `out` are warm. `out` must not alias scratch fields.
template <typename GroupScale>
void ScoreByStageType(const dag::JobGraph& graph, const ml::FeatureMatrix& x,
                      const std::map<int, ml::GbdtRegressor>& per_type,
                      const ml::Regressor& general, GroupScale&& scale,
                      PredictScratch* scratch, std::vector<double>* out) {
  const size_t ns = graph.num_stages();
  out->assign(ns, 0.0);
  scratch->served.assign(ns, 0);
  auto score = [&](const ml::Regressor& model, double s) {
    model.PredictRowsInto(x, scratch->rows, &scratch->y_log);
    for (size_t k = 0; k < scratch->rows.size(); ++k) {
      (*out)[scratch->rows[k]] = std::max(0.0, std::expm1(scratch->y_log[k])) * s;
    }
  };
  for (const auto& [type, model] : per_type) {
    scratch->rows.clear();
    for (size_t si = 0; si < ns; ++si) {
      if (graph.stage(static_cast<dag::StageId>(si)).stage_type == type) {
        scratch->rows.push_back(si);
        scratch->served[si] = 1;
      }
    }
    if (!scratch->rows.empty()) score(model, scale(std::optional<int>(type)));
  }
  scratch->rows.clear();
  for (size_t si = 0; si < ns; ++si) {
    if (!scratch->served[si]) scratch->rows.push_back(si);
  }
  if (!scratch->rows.empty()) score(general, scale(std::optional<int>()));
}

/// The model block at the cursor: every line up to the next "end_model"
/// line, as one view into the cursor's text; the terminator is consumed.
/// The block reader of both StageCostPredictor and TtlEstimator text.
Status TakeModelBlock(LineCursor* lines, std::string_view* block);

/// \brief Predicts one target (exec time or output size) per stage.
class StageCostPredictor {
 public:
  StageCostPredictor(PredictorConfig config, Target target);

  /// Train on per-job examples, each carrying its own historic-stats view.
  Status Train(const std::vector<TrainExample>& examples);

  /// Convenience: all jobs share one stats view (`stats` must be computed
  /// from days at or before the training days; the caller controls leakage).
  Status Train(const std::vector<workload::JobInstance>& jobs,
               const telemetry::HistoricStats& stats);

  bool trained() const { return trained_; }
  Target target() const { return target_; }
  const PredictorConfig& config() const { return config_; }
  const StageFeaturizer& featurizer() const { return featurizer_; }

  /// Predict the target (origin scale, >= 0) for one stage of a job, using
  /// only compile-time information.
  double PredictStage(const workload::JobInstance& job, int stage_id,
                      const telemetry::HistoricStats& stats) const;

  /// Predict all stages of a job; element s is bit-identical to
  /// PredictStage(job, s, stats).
  std::vector<double> PredictJob(const workload::JobInstance& job,
                                 const telemetry::HistoricStats& stats) const;

  /// PredictJob into caller-owned buffers: featurizes the whole job into
  /// `scratch->matrix`, scores it through ScoreByStageType, and writes the
  /// per-stage predictions to `*out` (resized to the stage count). With warm
  /// buffers the call performs no heap allocation (FeatureConfig::text
  /// excepted). `out` must not alias scratch fields.
  void PredictJobInto(const workload::JobInstance& job,
                      const telemetry::HistoricStats& stats, PredictScratch* scratch,
                      std::vector<double>* out) const;

  /// Number of per-stage-type models actually trained (0 for general kinds).
  size_t num_type_models() const { return per_type_.size(); }

  /// The general (fallback) model, for feature-importance analysis.
  const ml::Regressor* general_model() const { return general_.get(); }

  /// Serialize the trained models (general + per-type + calibrations) to a
  /// text blob. LoadFromText restores them into a predictor constructed with
  /// a matching configuration; every model must score this predictor's
  /// feature width. On error the predictor is left as it was.
  std::string ToText() const;
  Status LoadFromText(const std::string& text);

 private:
  std::unique_ptr<ml::Regressor> MakeGeneral() const;

  PredictorConfig config_;
  Target target_;
  StageFeaturizer featurizer_;
  std::unique_ptr<ml::Regressor> general_;
  std::map<int, ml::GbdtRegressor> per_type_;  ///< stage_type -> model
  // Smearing correction: training in log1p space under-predicts origin-scale
  // means (E[exp(x)] > exp(E[x])); each model carries a multiplicative
  // calibration fitted on its training rows.
  std::map<int, double> calibration_;
  double general_calibration_ = 1.0;
  bool trained_ = false;
};

}  // namespace phoebe::core
