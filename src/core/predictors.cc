#include "core/predictors.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace phoebe::core {

StageCostPredictor::StageCostPredictor(PredictorConfig config, Target target)
    : config_(std::move(config)), target_(target), featurizer_(config_.features) {}

std::unique_ptr<ml::Regressor> StageCostPredictor::MakeGeneral() const {
  if (config_.kind == ModelKind::kMlpGeneral) {
    return std::make_unique<ml::MlpRegressor>(config_.mlp);
  }
  return std::make_unique<ml::GbdtRegressor>(config_.gbdt);
}

Status StageCostPredictor::Train(const std::vector<workload::JobInstance>& jobs,
                                 const telemetry::HistoricStats& stats) {
  std::vector<TrainExample> examples;
  examples.reserve(jobs.size());
  for (const workload::JobInstance& job : jobs) examples.push_back({&job, &stats});
  return Train(examples);
}

Status StageCostPredictor::Train(const std::vector<TrainExample>& examples) {
  if (examples.empty()) return Status::InvalidArgument("no training jobs");

  // Assemble the dataset (one row per stage), each job featurized against
  // its own historic-stats view.
  ml::Dataset all;
  all.x = ml::FeatureMatrix(featurizer_.FeatureNames());
  std::map<int, std::vector<size_t>> rows_by_type;
  size_t row = 0;
  for (const TrainExample& ex : examples) {
    PHOEBE_CHECK(ex.job != nullptr && ex.stats != nullptr);
    const workload::JobInstance& job = *ex.job;
    for (size_t si = 0; si < job.graph.num_stages(); ++si, ++row) {
      all.x.AddRow(featurizer_.Features(job, static_cast<int>(si), *ex.stats));
      all.y.push_back(StageFeaturizer::CompressTarget(
          StageFeaturizer::TargetValue(job, static_cast<int>(si), target_)));
      rows_by_type[job.graph.stage(static_cast<dag::StageId>(si)).stage_type]
          .push_back(row);
    }
  }
  if (all.size() == 0) return Status::InvalidArgument("no training stages");

  // General model over all stages (always trained: fallback for rare types).
  general_ = MakeGeneral();
  PHOEBE_RETURN_NOT_OK(general_->Fit(all));

  auto calibrate = [&](const ml::Regressor& model,
                       const std::vector<size_t>* rows) -> double {
    double sum_true = 0.0, sum_pred = 0.0;
    auto fold = [&](size_t r) {
      sum_true += StageFeaturizer::ExpandTarget(all.y[r]);
      sum_pred += std::max(0.0, StageFeaturizer::ExpandTarget(model.Predict(all.x.Row(r))));
    };
    if (rows) {
      for (size_t r : *rows) fold(r);
    } else {
      for (size_t r = 0; r < all.size(); ++r) fold(r);
    }
    if (sum_pred <= 0.0) return 1.0;
    return std::clamp(sum_true / sum_pred, 0.5, 2.0);
  };
  general_calibration_ = calibrate(*general_, nullptr);

  per_type_.clear();
  calibration_.clear();
  if (config_.kind == ModelKind::kGbdtPerStageType) {
    for (const auto& [type, rows] : rows_by_type) {
      if (static_cast<int>(rows.size()) < config_.min_samples_per_type) continue;
      ml::Dataset sub = all.Subset(rows);
      ml::GbdtParams params = config_.gbdt;
      params.seed = config_.gbdt.seed + static_cast<uint64_t>(type) + 1;
      ml::GbdtRegressor model(params);
      PHOEBE_RETURN_NOT_OK(model.Fit(sub));
      calibration_[type] = calibrate(model, &rows);
      per_type_.emplace(type, std::move(model));
    }
  }
  trained_ = true;
  return Status::OK();
}

double StageCostPredictor::PredictStage(const workload::JobInstance& job, int stage_id,
                                        const telemetry::HistoricStats& stats) const {
  PHOEBE_CHECK_MSG(trained_, "PredictStage called before Train");
  std::vector<double> row = featurizer_.Features(job, stage_id, stats);
  int type = job.graph.stage(stage_id).stage_type;
  double y_log;
  double calibration;
  auto it = per_type_.find(type);
  if (it != per_type_.end()) {
    y_log = it->second.Predict(row);
    calibration = calibration_.at(type);
  } else {
    y_log = general_->Predict(row);
    calibration = general_calibration_;
  }
  return std::max(0.0, StageFeaturizer::ExpandTarget(y_log)) * calibration;
}

std::vector<double> StageCostPredictor::PredictJob(
    const workload::JobInstance& job, const telemetry::HistoricStats& stats) const {
  PredictScratch scratch;
  std::vector<double> out;
  PredictJobInto(job, stats, &scratch, &out);
  return out;
}

void StageCostPredictor::PredictJobInto(const workload::JobInstance& job,
                                        const telemetry::HistoricStats& stats,
                                        PredictScratch* scratch,
                                        std::vector<double>* out) const {
  PHOEBE_CHECK_MSG(trained_, "PredictJob called before Train");
  featurizer_.JobMatrixInto(job, stats, &scratch->row, &scratch->matrix);
  ScoreByStageType(
      job.graph, scratch->matrix, per_type_, *general_,
      [this](std::optional<int> type) {
        return type ? calibration_.at(*type) : general_calibration_;
      },
      scratch, out);
}

Status TakeModelBlock(LineCursor* lines, std::string_view* block) {
  const char* begin = lines->rest().data();
  std::string_view line;
  while (lines->Next(&line)) {
    if (line == "end_model") {
      *block = std::string_view(begin, static_cast<size_t>(line.data() - begin));
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unterminated model block");
}

std::string StageCostPredictor::ToText() const {
  PHOEBE_CHECK_MSG(trained_, "ToText called before Train");
  std::string out = StrFormat(
      "stage_cost_predictor %d %d %zu %zu %.17g\n", static_cast<int>(target_),
      static_cast<int>(config_.kind), featurizer_.FeatureNames().size(),
      per_type_.size(), general_calibration_);
  out += "general_model\n";
  if (config_.kind == ModelKind::kMlpGeneral) {
    out += static_cast<const ml::MlpRegressor*>(general_.get())->ToText();
  } else {
    out += static_cast<const ml::GbdtRegressor*>(general_.get())->ToText();
  }
  out += "end_model\n";
  for (const auto& [type, model] : per_type_) {
    out += StrFormat("type %d %.17g\n", type, calibration_.at(type));
    out += model.ToText();
    out += "end_model\n";
  }
  return out;
}

Status StageCostPredictor::LoadFromText(const std::string& text) {
  LineCursor lines(text);
  std::string_view line;
  std::vector<std::string_view> tok;
  if (!lines.Next(&line)) return Status::InvalidArgument("empty predictor text");
  SplitViews(line, ' ', &tok);
  int32_t target = 0, kind = 0;
  int64_t width = 0, n_types = 0;
  double general_cal = 0.0;
  if (tok.size() != 6 || tok[0] != "stage_cost_predictor" ||
      !ParseInt32(tok[1], &target).ok() || !ParseInt32(tok[2], &kind).ok() ||
      !ParseInt64(tok[3], &width).ok() || !ParseInt64(tok[4], &n_types).ok() ||
      !ParseFiniteDouble(tok[5], &general_cal).ok()) {
    return Status::InvalidArgument("bad predictor header");
  }
  if (target != static_cast<int>(target_)) {
    return Status::FailedPrecondition("serialized target does not match");
  }
  if (kind != static_cast<int>(config_.kind)) {
    return Status::FailedPrecondition("serialized model kind does not match");
  }
  const size_t nf = featurizer_.FeatureNames().size();
  if (width != static_cast<int64_t>(nf)) {
    return Status::FailedPrecondition("serialized feature width does not match");
  }
  PHOEBE_RETURN_NOT_OK(lines.CheckCount(n_types, "type models"));

  if (!lines.Next(&line) || line != "general_model") {
    return Status::InvalidArgument("missing general_model block");
  }
  std::string_view block;
  PHOEBE_RETURN_NOT_OK(TakeModelBlock(&lines, &block));
  std::unique_ptr<ml::Regressor> general;
  if (config_.kind == ModelKind::kMlpGeneral) {
    auto m = std::make_unique<ml::MlpRegressor>();
    PHOEBE_RETURN_NOT_OK(ml::MlpRegressor::FromText(block, m.get()));
    general = std::move(m);
  } else {
    auto m = std::make_unique<ml::GbdtRegressor>();
    PHOEBE_RETURN_NOT_OK(ml::GbdtRegressor::FromText(block, m.get()));
    general = std::move(m);
  }
  if (general->num_features() != nf) {
    return Status::InvalidArgument("general model feature width does not match");
  }

  std::map<int, ml::GbdtRegressor> per_type;
  std::map<int, double> calibration;
  for (int64_t k = 0; k < n_types; ++k) {
    if (!lines.Next(&line)) return Status::InvalidArgument("truncated type models");
    SplitViews(line, ' ', &tok);
    int32_t type = 0;
    double cal = 0.0;
    if (tok.size() != 3 || tok[0] != "type" || !ParseInt32(tok[1], &type).ok() ||
        !ParseFiniteDouble(tok[2], &cal).ok()) {
      return Status::InvalidArgument("bad type model header");
    }
    PHOEBE_RETURN_NOT_OK(TakeModelBlock(&lines, &block));
    ml::GbdtRegressor m;
    PHOEBE_RETURN_NOT_OK(ml::GbdtRegressor::FromText(block, &m));
    if (m.num_features() != nf) {
      return Status::InvalidArgument("type model feature width does not match");
    }
    if (!per_type.emplace(type, std::move(m)).second) {
      return Status::InvalidArgument("duplicate type model");
    }
    calibration[type] = cal;
  }
  if (lines.Next(&line)) return Status::InvalidArgument("trailing data after predictor");
  general_ = std::move(general);
  general_calibration_ = general_cal;
  per_type_ = std::move(per_type);
  calibration_ = std::move(calibration);
  trained_ = true;
  return Status::OK();
}

}  // namespace phoebe::core
