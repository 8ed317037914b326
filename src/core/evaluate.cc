#include "core/evaluate.h"

#include <algorithm>
#include <optional>

#include "cluster/failure.h"

namespace phoebe::core {

namespace {

/// Cost source of an approach. The baselines position their cut on the
/// simulated schedule with ML exec inputs (the schedule source does not
/// matter for Random).
CostSource ApproachSource(Approach approach) {
  switch (approach) {
    case Approach::kOptimal: return CostSource::kTruth;
    case Approach::kOptimizerEst: return CostSource::kOptimizerEstimates;
    case Approach::kConstant: return CostSource::kConstant;
    case Approach::kMl: return CostSource::kMlSimulator;
    case Approach::kMlStacked: return CostSource::kMlStacked;
    case Approach::kRandom:
    case Approach::kMidPoint:
      return CostSource::kMlSimulator;
  }
  return CostSource::kMlSimulator;
}

/// The one cut chooser behind ChooseCut, Evaluate and EvaluateApproachArms.
/// The optimizer approaches decide through DecisionEngine::DecideJobInto
/// (single cut, the approach's cost source); the Random and Mid-Point
/// baselines place their cut on BuildCostsInto's costs. The chosen cut is
/// `out->combined`; `*out` is otherwise scratch.
Status ChooseCutInto(const DecisionEngine& engine, const workload::JobInstance& job,
                     Approach approach, Objective objective,
                     const telemetry::HistoricStats& stats, Rng* rng,
                     DecideScratch* scratch, FleetDecision* out) {
  const CostSource source = ApproachSource(approach);
  if (approach != Approach::kRandom && approach != Approach::kMidPoint) {
    return engine.DecideJobInto(job, stats, DecideOptions{objective, source},
                                scratch, out);
  }
  PHOEBE_RETURN_NOT_OK(
      engine.BuildCostsInto(job, source, stats, scratch, &scratch->costs));
  PHOEBE_ASSIGN_OR_RETURN(out->combined,
                          approach == Approach::kRandom
                              ? RandomCut(job.graph, scratch->costs, rng)
                              : MidPointCut(job.graph, scratch->costs));
  return Status::OK();
}

/// Realized saving fraction of `cut` on `job`: with the job's failure model
/// (the recovery objective) the paper's §5.3 metric — expected P_F * T-bar
/// under the true schedule, relative to the expected uncheckpointed loss —
/// and RealizedTempSaving otherwise.
double RealizedSaving(const workload::JobInstance& job, const cluster::CutSet& cut,
                      const cluster::FailureModel* failure) {
  return failure != nullptr ? failure->RestartSavingFraction(cut)
                            : RealizedTempSaving(job, cut);
}

}  // namespace

const std::string& ApproachName(Approach a) {
  static const std::map<Approach, std::string> kNames = {
      {Approach::kRandom, "Random"},
      {Approach::kMidPoint, "Mid-Point"},
      {Approach::kOptimizerEst, "Optimizer+EstimatedCost"},
      {Approach::kConstant, "Optimizer+ConstantCost"},
      {Approach::kMl, "Optimizer+MLCost"},
      {Approach::kMlStacked, "Optimizer+MLCost+Stacking"},
      {Approach::kOptimal, "Optimal"},
  };
  return kNames.at(a);
}

const std::vector<Approach>& AllApproaches() {
  static const std::vector<Approach> kAll = {
      Approach::kRandom,   Approach::kMidPoint,  Approach::kOptimizerEst,
      Approach::kConstant, Approach::kMl,        Approach::kMlStacked,
      Approach::kOptimal,
  };
  return kAll;
}

double RealizedTempSaving(const workload::JobInstance& job, const cluster::CutSet& cut) {
  double total = job.TempByteSeconds();
  if (total <= 0.0 || cut.empty()) return 0.0;
  double clear = cluster::CutClearTime(job, cut);
  double saved = 0.0;
  for (size_t u = 0; u < job.truth.size(); ++u) {
    if (!cut.before_cut[u]) continue;
    const workload::StageTruth& t = job.truth[u];
    double held = std::max(0.0, clear - t.end_time);
    saved += t.output_bytes * std::max(0.0, t.ttl - held);
  }
  return std::clamp(saved / total, 0.0, 1.0);
}

double RealizedTempSavingMultiCut(const workload::JobInstance& job,
                                  const std::vector<cluster::CutSet>& cuts) {
  if (cuts.empty()) return 0.0;
  if (cuts.size() == 1) return RealizedTempSaving(job, cuts.front());
  double total = job.TempByteSeconds();
  if (total <= 0.0) return 0.0;
  std::vector<double> clear(cuts.size());
  for (size_t c = 0; c < cuts.size(); ++c) {
    clear[c] = cluster::CutClearTime(job, cuts[c]);
  }
  double saved = 0.0;
  for (size_t u = 0; u < job.truth.size(); ++u) {
    // Earliest (innermost) cut containing the stage clears its data.
    for (size_t c = 0; c < cuts.size(); ++c) {
      if (cuts[c].before_cut.empty() || !cuts[c].before_cut[u]) continue;
      const workload::StageTruth& t = job.truth[u];
      double held = std::max(0.0, clear[c] - t.end_time);
      saved += t.output_bytes * std::max(0.0, t.ttl - held);
      break;
    }
  }
  return std::clamp(saved / total, 0.0, 1.0);
}

BackTester::BackTester(const DecisionEngine* engine, double mtbf_seconds,
                       uint64_t seed)
    : engine_(engine), mtbf_seconds_(mtbf_seconds), rng_(seed) {
  PHOEBE_CHECK(engine != nullptr);
  PHOEBE_CHECK(mtbf_seconds > 0.0);
}

Result<CutResult> BackTester::ChooseCut(const workload::JobInstance& job,
                                        Approach approach, Objective objective,
                                        const telemetry::HistoricStats& stats) {
  PHOEBE_RETURN_NOT_OK(ChooseCutInto(*engine_, job, approach, objective, stats, &rng_,
                                     &scratch_, &decision_));
  return decision_.combined;
}

Result<std::map<Approach, RunningStats>> BackTester::Evaluate(
    const std::vector<workload::JobInstance>& jobs,
    const telemetry::HistoricStats& stats, Objective objective,
    const std::vector<Approach>& approaches) {
  std::map<Approach, RunningStats> out;
  for (const workload::JobInstance& job : jobs) {
    if (job.graph.num_stages() < 2) continue;
    std::optional<cluster::FailureModel> failure;
    if (objective == Objective::kRecovery) failure.emplace(job, mtbf_seconds_);
    for (Approach a : approaches) {
      PHOEBE_RETURN_NOT_OK(ChooseCutInto(*engine_, job, a, objective, stats, &rng_,
                                         &scratch_, &decision_));
      out[a].Add(RealizedSaving(job, decision_.combined.cut,
                                failure ? &*failure : nullptr));
    }
  }
  return out;
}

Result<std::vector<RunningStats>> EvaluateApproachArms(
    const std::vector<const DecisionEngine*>& engines,
    const std::vector<workload::JobInstance>& jobs,
    const telemetry::HistoricStats& stats, Approach approach,
    Objective objective, double mtbf_seconds) {
  if (engines.empty()) return Status::InvalidArgument("no engines to evaluate");
  for (const DecisionEngine* e : engines) {
    if (e == nullptr) return Status::InvalidArgument("null engine in arm list");
  }
  if (approach == Approach::kRandom) {
    return Status::InvalidArgument(
        "Approach::kRandom needs a per-tester rng stream; use "
        "BackTester::Evaluate");
  }
  if (mtbf_seconds <= 0.0) {
    return Status::InvalidArgument("mtbf_seconds must be > 0");
  }
  std::vector<RunningStats> out(engines.size());
  DecideScratch scratch;
  FleetDecision decision;
  for (const workload::JobInstance& job : jobs) {
    if (job.graph.num_stages() < 2) continue;
    // Job-level work shared across arms: the eligibility check above and,
    // for recovery, the failure model over the true schedule.
    std::optional<cluster::FailureModel> failure;
    if (objective == Objective::kRecovery) failure.emplace(job, mtbf_seconds);
    for (size_t k = 0; k < engines.size(); ++k) {
      PHOEBE_RETURN_NOT_OK(ChooseCutInto(*engines[k], job, approach, objective, stats,
                                         /*rng=*/nullptr, &scratch, &decision));
      out[k].Add(RealizedSaving(job, decision.combined.cut,
                                failure ? &*failure : nullptr));
    }
  }
  return out;
}

}  // namespace phoebe::core
