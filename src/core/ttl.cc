#include "core/ttl.h"

#include <cmath>

#include "common/strings.h"

namespace phoebe::core {

TtlEstimator::TtlEstimator(TtlConfig config) : config_(std::move(config)) {}

std::vector<std::string> TtlEstimator::StackingFeatureNames() {
  return {"log_sim_ttl", "log_sim_tfs", "sim_position", "log_sim_job_end"};
}

std::vector<double> TtlEstimator::StackingFeatures(const SimulatedSchedule& sim,
                                                   dag::StageId stage) {
  std::vector<double> row;
  StackingFeaturesInto(sim, stage, &row);
  return row;
}

void TtlEstimator::StackingFeaturesInto(const SimulatedSchedule& sim,
                                        dag::StageId stage, std::vector<double>* row) {
  double ttl = sim.Ttl(stage);
  double tfs = sim.Tfs(stage);
  double pos = sim.job_end > 0.0 ? tfs / sim.job_end : 0.0;
  row->clear();
  row->push_back(std::log1p(std::max(0.0, ttl)));
  row->push_back(std::log1p(std::max(0.0, tfs)));
  row->push_back(pos);
  row->push_back(std::log1p(std::max(0.0, sim.job_end)));
}

Status TtlEstimator::Train(const std::vector<TrainExample>& examples,
                           const StageCostPredictor& exec_predictor) {
  if (examples.empty()) return Status::InvalidArgument("no training jobs");
  PHOEBE_CHECK(exec_predictor.target() == Target::kExecSeconds);

  ml::Dataset all;
  all.x = ml::FeatureMatrix(StackingFeatureNames());
  std::vector<int> row_type;

  for (const TrainExample& ex : examples) {
    const workload::JobInstance& job = *ex.job;
    std::vector<double> exec = exec_predictor.PredictJob(job, *ex.stats);
    auto sim = SimulateSchedule(job.graph, exec);
    PHOEBE_RETURN_NOT_OK(sim.status());
    for (size_t si = 0; si < job.graph.num_stages(); ++si) {
      all.x.AddRow(StackingFeatures(*sim, static_cast<dag::StageId>(si)));
      all.y.push_back(std::log1p(std::max(0.0, job.truth[si].ttl)));
      row_type.push_back(job.graph.stage(static_cast<dag::StageId>(si)).stage_type);
    }
  }
  if (all.size() == 0) return Status::InvalidArgument("no training stages");

  general_ = std::make_unique<ml::GbdtRegressor>(config_.gbdt);
  PHOEBE_RETURN_NOT_OK(general_->Fit(all));

  std::map<int, std::vector<size_t>> rows_by_type;
  for (size_t r = 0; r < row_type.size(); ++r) {
    rows_by_type[row_type[r]].push_back(r);
  }
  per_type_.clear();
  for (const auto& [type, rows] : rows_by_type) {
    if (static_cast<int>(rows.size()) < config_.min_samples_per_type) continue;
    ml::GbdtParams params = config_.gbdt;
    params.seed = config_.gbdt.seed + static_cast<uint64_t>(type) + 7;
    ml::GbdtRegressor model(params);
    PHOEBE_RETURN_NOT_OK(model.Fit(all.Subset(rows)));
    per_type_.emplace(type, std::move(model));
  }
  trained_ = true;
  return Status::OK();
}

std::vector<double> TtlEstimator::Predict(const workload::JobInstance& job,
                                          const SimulatedSchedule& sim) const {
  PredictScratch scratch;
  std::vector<double> out;
  PredictInto(job, sim, &scratch, &out);
  return out;
}

void TtlEstimator::PredictInto(const workload::JobInstance& job,
                               const SimulatedSchedule& sim, PredictScratch* scratch,
                               std::vector<double>* out) const {
  const size_t ns = job.graph.num_stages();
  if (!trained_) {
    out->resize(ns);
    for (size_t si = 0; si < ns; ++si) (*out)[si] = sim.Ttl(static_cast<dag::StageId>(si));
    return;
  }
  if (scratch->matrix.num_features() != kNumStackingFeatures) {
    scratch->matrix = ml::FeatureMatrix(StackingFeatureNames());
  }
  scratch->matrix.ClearRows();
  for (size_t si = 0; si < ns; ++si) {
    StackingFeaturesInto(sim, static_cast<dag::StageId>(si), &scratch->row);
    scratch->matrix.AddRow(scratch->row);
  }
  ScoreByStageType(
      job.graph, scratch->matrix, per_type_, *general_,
      [](std::optional<int>) { return 1.0; }, scratch, out);
}

std::string TtlEstimator::ToText() const {
  PHOEBE_CHECK_MSG(trained_, "ToText called before Train");
  std::string out = StrFormat("ttl_estimator %zu\n", per_type_.size());
  out += "general_model\n";
  out += general_->ToText();
  out += "end_model\n";
  for (const auto& [type, model] : per_type_) {
    out += StrFormat("type %d\n", type);
    out += model.ToText();
    out += "end_model\n";
  }
  return out;
}

Status TtlEstimator::LoadFromText(const std::string& text) {
  LineCursor lines(text);
  std::string_view line;
  std::vector<std::string_view> tok;
  if (!lines.Next(&line)) return Status::InvalidArgument("empty ttl estimator text");
  SplitViews(line, ' ', &tok);
  int64_t n_types = 0;
  if (tok.size() != 2 || tok[0] != "ttl_estimator" || !ParseInt64(tok[1], &n_types).ok()) {
    return Status::InvalidArgument("bad ttl_estimator header");
  }
  PHOEBE_RETURN_NOT_OK(lines.CheckCount(n_types, "type models"));

  // Every stacking model scores the kNumStackingFeatures-wide rows.
  auto read_model = [&](ml::GbdtRegressor* m) {
    std::string_view block;
    PHOEBE_RETURN_NOT_OK(TakeModelBlock(&lines, &block));
    PHOEBE_RETURN_NOT_OK(ml::GbdtRegressor::FromText(block, m));
    if (m->num_features() != kNumStackingFeatures) {
      return Status::InvalidArgument("stacking model feature width does not match");
    }
    return Status::OK();
  };
  if (!lines.Next(&line) || line != "general_model") {
    return Status::InvalidArgument("missing general_model block");
  }
  auto general = std::make_unique<ml::GbdtRegressor>();
  PHOEBE_RETURN_NOT_OK(read_model(general.get()));

  std::map<int, ml::GbdtRegressor> per_type;
  for (int64_t k = 0; k < n_types; ++k) {
    if (!lines.Next(&line)) return Status::InvalidArgument("truncated type models");
    SplitViews(line, ' ', &tok);
    int32_t type = 0;
    if (tok.size() != 2 || tok[0] != "type" || !ParseInt32(tok[1], &type).ok()) {
      return Status::InvalidArgument("bad type model header");
    }
    ml::GbdtRegressor m;
    PHOEBE_RETURN_NOT_OK(read_model(&m));
    if (!per_type.emplace(type, std::move(m)).second) {
      return Status::InvalidArgument("duplicate type model");
    }
  }
  if (lines.Next(&line)) return Status::InvalidArgument("trailing data after ttl estimator");
  general_ = std::move(general);
  per_type_ = std::move(per_type);
  trained_ = true;
  return Status::OK();
}

}  // namespace phoebe::core
