#include "core/engine.h"

#include <algorithm>
#include <chrono>

#include "cluster/cluster.h"
#include "core/simulator.h"

namespace phoebe::core {

const char* CostSourceToken(CostSource source) {
  switch (source) {
    case CostSource::kTruth: return "truth";
    case CostSource::kOptimizerEstimates: return "opt_est";
    case CostSource::kConstant: return "constant";
    case CostSource::kMlSimulator: return "ml_sim";
    case CostSource::kMlStacked: return "ml_stacked";
  }
  return "unknown";
}

Status CostSourceFromToken(std::string_view token, CostSource* out) {
  for (CostSource s : {CostSource::kTruth, CostSource::kOptimizerEstimates,
                       CostSource::kConstant, CostSource::kMlSimulator,
                       CostSource::kMlStacked}) {
    if (token == CostSourceToken(s)) {
      *out = s;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown cost source token '" + std::string(token) + "'");
}

DecisionEngine::DecisionEngine(std::shared_ptr<const PipelineBundle> bundle,
                               obs::MetricsRegistry* metrics)
    : bundle_(std::move(bundle)) {
  PHOEBE_CHECK(bundle_ != nullptr);
  if (metrics == nullptr) return;
  for (CostSource s : {CostSource::kTruth, CostSource::kOptimizerEstimates,
                       CostSource::kConstant, CostSource::kMlSimulator,
                       CostSource::kMlStacked}) {
    const std::string base = std::string("engine.") + CostSourceToken(s);
    SourceMetrics& m = source_metrics_[static_cast<size_t>(s)];
    m.decide_seconds = metrics->histogram(base + ".decide.seconds");
    m.infer_seconds = metrics->histogram(base + ".inference.seconds");
    m.batch_stages = metrics->histogram(
        base + ".inference.batch_stages",
        obs::Histogram::ExponentialBounds(1.0, 2.0, 12));
    m.batches = metrics->counter(base + ".inference.batches");
  }
}

Result<StageCosts> DecisionEngine::BuildCosts(const workload::JobInstance& job,
                                              CostSource source) const {
  return BuildCosts(job, source, bundle_->stats());
}

Result<StageCosts> DecisionEngine::BuildCosts(
    const workload::JobInstance& job, CostSource source,
    const telemetry::HistoricStats& stats) const {
  DecideScratch scratch;
  StageCosts costs;
  PHOEBE_RETURN_NOT_OK(BuildCostsInto(job, source, stats, &scratch, &costs));
  return costs;
}

Status DecisionEngine::BuildCostsInto(const workload::JobInstance& job,
                                      CostSource source,
                                      const telemetry::HistoricStats& stats,
                                      DecideScratch* scratch, StageCosts* out) const {
  const size_t n = job.graph.num_stages();
  out->num_tasks.clear();
  out->num_tasks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out->num_tasks.push_back(job.truth[i].num_tasks);
  }
  out->job_end = 0.0;

  if (source == CostSource::kTruth) {
    out->output_bytes.clear();
    out->ttl.clear();
    out->end_time.clear();
    out->tfs.clear();
    out->output_bytes.reserve(n);
    out->ttl.reserve(n);
    out->end_time.reserve(n);
    out->tfs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const workload::StageTruth& t = job.truth[i];
      out->output_bytes.push_back(t.output_bytes);
      out->ttl.push_back(t.ttl);
      out->end_time.push_back(t.end_time);
      out->tfs.push_back(t.tfs);
      // True job end: every stage's temp data clears there, so end + ttl is
      // the same value for all stages up to the generator's finalization
      // slack; the max is the true clear time the optimizers price.
      out->job_end = std::max(out->job_end, t.end_time + t.ttl);
    }
    return Status::OK();
  }

  // Per-stage execution time and output size from the chosen source, written
  // straight into the arena (exec) and the result (output bytes) — no
  // zero-init-then-overwrite temporaries.
  std::vector<double>& exec = scratch->exec;
  switch (source) {
    case CostSource::kOptimizerEstimates:
      exec.resize(n);
      out->output_bytes.resize(n);
      for (size_t i = 0; i < n; ++i) {
        exec[i] = std::max(0.0, job.est[i].est_exclusive_cost);
        out->output_bytes[i] = std::max(0.0, job.est[i].est_output_bytes);
      }
      break;
    case CostSource::kConstant:
      exec.assign(n, 1.0);
      out->output_bytes.assign(n, 1.0);
      break;
    case CostSource::kMlSimulator:
    case CostSource::kMlStacked: {
      if (!bundle_->trained()) return Status::FailedPrecondition("pipeline not trained");
      const SourceMetrics& m = metrics_for(source);
      obs::ScopedTimer infer_timer(m.infer_seconds);
      bundle_->exec_predictor().PredictJobInto(job, stats, &scratch->exec_features,
                                               &exec);
      bundle_->size_predictor().PredictJobInto(job, stats, &scratch->size_features,
                                               &out->output_bytes);
      infer_timer.Stop();
      // Each PredictJobInto scores the job's stages as one batch.
      obs::Observe(m.batch_stages, static_cast<double>(n));
      obs::Observe(m.batch_stages, static_cast<double>(n));
      obs::Add(m.batches, 2);
      break;
    }
    case CostSource::kTruth:
      PHOEBE_CHECK(false);
  }

  PHOEBE_RETURN_NOT_OK(
      SimulateScheduleInto(job.graph, exec, &scratch->sim_scratch, &scratch->sim));
  const SimulatedSchedule& sim = scratch->sim;

  out->end_time.assign(sim.end.begin(), sim.end.end());
  out->tfs.assign(sim.start.begin(), sim.start.end());
  // The simulator has no finalization slack (job_end == max end), so for the
  // estimate-based sources this leaves the final-clear adjustment at zero.
  out->job_end = sim.job_end;
  if (source == CostSource::kMlStacked && bundle_->trained()) {
    const SourceMetrics& m = metrics_for(source);
    obs::ScopedTimer ttl_timer(m.infer_seconds);
    bundle_->ttl_estimator().PredictInto(job, sim, &scratch->ttl_features, &out->ttl);
    ttl_timer.Stop();
    obs::Observe(m.batch_stages, static_cast<double>(n));
    obs::Increment(m.batches);
  } else {
    out->ttl.resize(n);
    for (size_t i = 0; i < n; ++i) {
      out->ttl[i] = sim.Ttl(static_cast<dag::StageId>(i));
    }
  }
  return Status::OK();
}

Result<PipelineDecision> DecisionEngine::Decide(const workload::JobInstance& job,
                                                Objective objective,
                                                CostSource source) const {
  DecideScratch scratch;
  PipelineDecision decision;
  PHOEBE_RETURN_NOT_OK(DecideInto(job, objective, source, &scratch, &decision));
  return decision;
}

Status DecisionEngine::DecideInto(const workload::JobInstance& job,
                                  Objective objective, CostSource source,
                                  DecideScratch* scratch,
                                  PipelineDecision* out) const {
  using Clock = std::chrono::steady_clock;

  auto t0 = Clock::now();
  // Metadata/model lookup: resolve stats entries for every stage type in the
  // plan (in production this is the Workload Insight Service round trip).
  for (size_t i = 0; i < job.graph.num_stages(); ++i) {
    (void)bundle_->stats().Get(job.template_id,
                               job.graph.stage(static_cast<int>(i)).stage_type);
  }
  auto t1 = Clock::now();

  PHOEBE_RETURN_NOT_OK(
      BuildCostsInto(job, source, bundle_->stats(), scratch, &scratch->costs));
  auto t2 = Clock::now();

  switch (objective) {
    case Objective::kTempStorage: {
      PHOEBE_RETURN_NOT_OK(OptimizeTempStorageInto(job.graph, scratch->costs,
                                                   &scratch->checkpoint, &out->cut));
      break;
    }
    case Objective::kRecovery: {
      PHOEBE_RETURN_NOT_OK(OptimizeRecoveryInto(job.graph, scratch->costs,
                                                bundle_->delta(), &scratch->checkpoint,
                                                &out->cut));
      break;
    }
  }
  auto t3 = Clock::now();

  auto secs = [](auto a, auto b) {
    return std::chrono::duration<double>(b - a).count();
  };
  out->lookup_seconds = secs(t0, t1);
  out->scoring_seconds = secs(t1, t2);
  out->optimize_seconds = secs(t2, t3);
  return Status::OK();
}

Result<FleetDecision> DecisionEngine::DecideJob(const workload::JobInstance& job,
                                                const telemetry::HistoricStats& stats,
                                                const DecideOptions& options) const {
  DecideScratch scratch;
  FleetDecision d;
  PHOEBE_RETURN_NOT_OK(DecideJobInto(job, stats, options, &scratch, &d));
  return d;
}

Status DecisionEngine::DecideJobInto(const workload::JobInstance& job,
                                     const telemetry::HistoricStats& stats,
                                     const DecideOptions& options,
                                     DecideScratch* scratch, FleetDecision* out) const {
  obs::ScopedTimer decide_timer(metrics_for(options.source).decide_seconds);
  PHOEBE_RETURN_NOT_OK(
      BuildCostsInto(job, options.source, stats, scratch, &scratch->costs));
  const StageCosts& costs = scratch->costs;

  // Single-cut objectives: the optimizer writes the combined result in
  // place; the nested-cut list mirrors it, recycling its bitset.
  auto mirror_single_cut = [out] {
    if (out->combined.cut.empty()) {
      out->cuts.clear();
    } else {
      out->cuts.resize(1);
      out->cuts[0].before_cut = out->combined.cut.before_cut;
    }
  };
  if (options.objective == Objective::kRecovery) {
    PHOEBE_RETURN_NOT_OK(OptimizeRecoveryInto(job.graph, costs, bundle_->delta(),
                                              &scratch->checkpoint, &out->combined));
    mirror_single_cut();
    return Status::OK();
  }
  if (options.num_cuts <= 1) {
    PHOEBE_RETURN_NOT_OK(OptimizeTempStorageInto(job.graph, costs,
                                                 &scratch->checkpoint, &out->combined));
    mirror_single_cut();
    return Status::OK();
  }

  // Multi-cut plan, reported under the physical semantics the cluster
  // realizes: the DP-total objective (each stage credited at its earliest
  // cut), and global bytes as the union of checkpoint stages across cuts —
  // a stage persists its output once even if edges cross several cuts.
  PHOEBE_RETURN_NOT_OK(OptimizeTempStorageMultiCutInto(
      job.graph, costs, options.num_cuts, &scratch->checkpoint, &scratch->multicut));
  const std::vector<CutResult>& cuts = scratch->multicut;
  if (cuts.empty()) {
    out->combined.cut.before_cut.clear();
    out->combined.objective = 0.0;
    out->combined.global_bytes = 0.0;
    out->cuts.clear();
    return Status::OK();
  }
  out->combined.cut.before_cut = cuts.back().cut.before_cut;  // outermost set
  out->combined.objective = cuts.front().objective;           // DP total
  out->combined.global_bytes = 0.0;
  const size_t n = job.graph.num_stages();
  std::vector<char>& persisted = scratch->persisted;
  persisted.assign(n, 0);
  out->cuts.resize(cuts.size());
  for (size_t c = 0; c < cuts.size(); ++c) {
    out->cuts[c].before_cut = cuts[c].cut.before_cut;
    for (dag::StageId u = 0; u < static_cast<dag::StageId>(n); ++u) {
      if (cluster::IsCheckpointStage(job.graph, cuts[c].cut, u)) {
        persisted[static_cast<size_t>(u)] = 1;
      }
    }
  }
  // Ascending-id union sum — the same order the old std::set walk produced.
  for (size_t u = 0; u < n; ++u) {
    if (persisted[u]) out->combined.global_bytes += costs.output_bytes[u];
  }
  return Status::OK();
}

}  // namespace phoebe::core
