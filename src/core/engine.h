// DecisionEngine: the stateless, const-only serving facade over a
// PipelineBundle.
//
// This is the decide-time half of the train/serve split (see
// core/bundle.h): the engine borrows an immutable bundle via shared_ptr and
// exposes exclusively const methods, so the const-after-Train invariant the
// fleet driver's parallel phase relies on is enforced by the compiler — a
// caller holding `const DecisionEngine&` cannot reach any mutable pipeline
// state. Engines are cheap values (one shared_ptr); every FleetDriver,
// back-tester, and CLI decide path is built on one, and any number of them
// (across threads or processes) can serve from the same bundle.
#pragma once

#include <array>
#include <memory>
#include <string_view>

#include "core/bundle.h"
#include "core/checkpoint.h"
#include "core/predictors.h"
#include "core/simulator.h"
#include "obs/metrics.h"

namespace phoebe::core {

/// \brief One job's full decision: the combined (reported) cut plus the
/// nested cut sets in physical, innermost-first order. This is the value the
/// fleet template cache stores and the shard protocol serializes.
struct FleetDecision {
  CutResult combined;                 ///< cut = outermost; DP-total objective
  std::vector<cluster::CutSet> cuts;  ///< innermost-first; empty if no cut
};

/// \brief Decision context for DecideJob.
struct DecideOptions {
  Objective objective = Objective::kTempStorage;
  CostSource source = CostSource::kMlStacked;
  /// Cuts per job for the temp-storage objective (1 = single-cut sweep).
  int num_cuts = 1;
};

/// \brief Per-worker scratch arena for the decide path. One instance per
/// serving thread (see fleet.cc's per-worker arenas) owns every intermediate
/// buffer a decision needs — stage costs, exec estimates, the simulated
/// schedule, three featurize→predict streams (exec, size, TTL), and the
/// optimizer tables — so once warm (sized by the widest job seen), a
/// steady-state DecideJobInto performs zero heap allocations.
/// Never share one arena between concurrent calls; results are bit-identical
/// regardless of which arena (or how warm an arena) served a job.
struct DecideScratch {
  StageCosts costs;             ///< BuildCostsInto staging for DecideJobInto
  std::vector<double> exec;     ///< per-stage exec-seconds estimates
  SimulatedSchedule sim;        ///< Algorithm-1 schedule (non-truth sources)
  SimulatorScratch sim_scratch;
  PredictScratch exec_features; ///< exec-predictor stream
  PredictScratch size_features; ///< size-predictor stream (separate schema)
  PredictScratch ttl_features;  ///< TTL stacking stream (4-feature schema)
  CheckpointScratch checkpoint; ///< sweep / DP / recovery tables
  std::vector<CutResult> multicut;  ///< num_cuts > 1 staging
  std::vector<char> persisted;      ///< multi-cut checkpoint-stage union
};

/// \brief Stateless decide-time facade over one immutable bundle.
///
/// Thread-safety: every method is const and the whole call tree (featurizer,
/// GBDT/MLP forests, TTL stacking models, historic-stats maps) reads
/// immutable bundle state with no caches, so concurrent calls on one engine
/// — or on several engines sharing one bundle — are safe.
/// core_fleet_parallel_test pins this under TSan.
class DecisionEngine {
 public:
  /// \param bundle the trained (or untrained, for non-ML sources) state to
  /// serve from. Shared ownership: the bundle outlives every engine view.
  /// \param metrics optional observability registry (borrowed; must outlive
  /// the engine). Null = metrics off, the default. Metrics are strictly
  /// passive — they never feed a decision — so two engines over one bundle,
  /// one instrumented and one not, decide byte-identically.
  explicit DecisionEngine(std::shared_ptr<const PipelineBundle> bundle,
                          obs::MetricsRegistry* metrics = nullptr);

  const PipelineBundle& bundle() const { return *bundle_; }
  std::shared_ptr<const PipelineBundle> shared_bundle() const { return bundle_; }

  bool trained() const { return bundle_->trained(); }
  double delta() const { return bundle_->delta(); }
  const telemetry::HistoricStats& inference_stats() const { return bundle_->stats(); }

  /// Build the optimizer inputs for one job under a cost source and a
  /// historic-stats view (inference_stats() for the bundle's own), using
  /// only compile-time information (plus truth for the kTruth oracle). Sets
  /// StageCosts::job_end so the optimizers price the final clear: the true
  /// job end for kTruth, the simulated schedule end otherwise.
  Result<StageCosts> BuildCosts(const workload::JobInstance& job, CostSource source,
                                const telemetry::HistoricStats& stats) const;

  /// BuildCosts onto a scratch arena: `*out` is fully overwritten (it may be
  /// `&scratch->costs`). Bit-identical to BuildCosts; with a warm arena the
  /// non-truth paths allocate nothing (FeatureConfig::text excepted).
  Status BuildCostsInto(const workload::JobInstance& job, CostSource source,
                        const telemetry::HistoricStats& stats, DecideScratch* scratch,
                        StageCosts* out) const;

  /// The full compile-time decision for one job (Figure 4): BuildCosts + the
  /// objective's optimizer, including the multi-cut physical semantics (the
  /// DP-total objective; global bytes as the union of checkpoint stages —
  /// a stage persists its output once even if edges cross several cuts).
  /// Pure function of (bundle, options, job, stats); safe to call
  /// concurrently for distinct jobs.
  Result<FleetDecision> DecideJob(const workload::JobInstance& job,
                                  const telemetry::HistoricStats& stats,
                                  const DecideOptions& options) const;

  /// DecideJob onto a scratch arena; `*out` is fully overwritten and its cut
  /// bitsets are recycled in place (vector<bool> assignment reuses capacity).
  /// Bit-identical to DecideJob. This is the one place (job, stats,
  /// objective, cost source) becomes an optimizer cut: the fleet day loop,
  /// the serve workers and the back-tester all decide through it. With a
  /// warm arena a steady-state single-cut decision performs zero heap
  /// allocations; the multi-cut path still allocates only inside the
  /// returned nested cut sets on first growth.
  Status DecideJobInto(const workload::JobInstance& job,
                       const telemetry::HistoricStats& stats,
                       const DecideOptions& options, DecideScratch* scratch,
                       FleetDecision* out) const;

 private:
  /// Metric pointers for one cost source, resolved once at construction so
  /// the decide path never touches the registry mutex. All null when the
  /// engine runs without metrics.
  struct SourceMetrics {
    obs::Histogram* decide_seconds = nullptr;  ///< engine.decide.<src>.seconds
    obs::Histogram* infer_seconds = nullptr;   ///< engine.inference.<src>.seconds
    obs::Histogram* batch_stages = nullptr;    ///< stages per inference batch
    obs::Counter* batches = nullptr;           ///< inference batches issued
  };
  const SourceMetrics& metrics_for(CostSource source) const {
    return source_metrics_[static_cast<size_t>(source)];
  }

  std::shared_ptr<const PipelineBundle> bundle_;
  std::array<SourceMetrics, 5> source_metrics_;
};

/// Lower-case token for a cost source, used in metric names and reports
/// ("truth", "opt_est", "constant", "ml_sim", "ml_stacked").
const char* CostSourceToken(CostSource source);

/// Inverse of CostSourceToken, for the serve wire protocol and CLI flags.
/// Unknown tokens are an InvalidArgument naming the token; `*out` untouched
/// on error.
Status CostSourceFromToken(std::string_view token, CostSource* out);

}  // namespace phoebe::core
