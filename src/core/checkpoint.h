// Checkpoint optimizer — heuristic algorithms (paper §5.2/§5.3/§5.5) and
// baseline selectors (§6.2/§6.3).
//
// The heuristic exploits Proposition 5.1: an optimal single cut is a
// TTL-threshold set, so sweeping stages in order of (estimated) end time and
// evaluating the objective at each prefix finds the optimum in O(n log n).
// A dynamic program extends the sweep to K cuts. Global storage budgets are
// applied separately (see core/knapsack.h), per the paper's two-phase design.
#pragma once

#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/status.h"
#include "dag/job_graph.h"

namespace phoebe::core {

/// \brief Per-stage cost estimates the optimizer consumes. All entries are
/// indexed by StageId. Different estimate sources (truth, optimizer
/// estimates, constants, ML predictions) plug into the same fields, which is
/// how the Figure 12/14 approach comparison is realized.
struct StageCosts {
  std::vector<double> output_bytes;
  std::vector<double> ttl;
  std::vector<double> end_time;  ///< schedule position; job_end - ttl
  std::vector<double> tfs;       ///< time from start (recovery objective)
  std::vector<int> num_tasks;    ///< for failure probabilities
  /// (Estimated) time the whole job ends and the cluster clears *all*
  /// remaining temp data for free. When it exceeds the last stage's end time
  /// (the workload generator's finalization slack), that surplus is TTL no
  /// cut can realize — the final clear would have released it anyway — so
  /// the temp-storage optimizers subtract it from every stage's TTL (see
  /// FinalClearSlack). 0 means "unknown": no adjustment, the pre-job_end
  /// behavior. BuildCosts fills it: the true job end (max of end + ttl) for
  /// kTruth, the simulated schedule end (slack 0) otherwise.
  double job_end = 0.0;

  size_t size() const { return output_bytes.size(); }
  Status Validate(const dag::JobGraph& graph) const;
};

/// \brief One selected cut and its predicted value.
struct CutResult {
  cluster::CutSet cut;
  double objective = 0.0;     ///< objective value under the given costs
  double global_bytes = 0.0;  ///< estimated global storage the cut needs
};

/// Estimated global storage for a cut: sum of `costs.output_bytes` over the
/// cut's checkpoint stages. Allocation-free.
double EstimateGlobalBytes(const dag::JobGraph& graph, const StageCosts& costs,
                           const cluster::CutSet& cut);

/// \brief Reusable working storage for the scratch-based optimizer entry
/// points below (part of core/engine.h's DecideScratch). Holds the end-time
/// order, the sweep prefix tables, the flattened multi-cut DP, and the
/// recovery prefix/suffix tables; once warm (sized for the largest job seen)
/// every *Into optimizer runs with zero heap allocations.
struct CheckpointScratch {
  std::vector<dag::StageId> order;     ///< end-time (or TFS) stage order
  std::vector<double> pre_bytes;       ///< multi-cut: prefix output bytes
  std::vector<double> pre_min_ttl;     ///< multi-cut: prefix min effective TTL
  std::vector<double> dp;              ///< multi-cut: (c, k) table, flattened
  std::vector<size_t> parent;          ///< multi-cut: DP backtrack, flattened
  std::vector<size_t> positions;       ///< multi-cut: recovered cut prefixes
  std::vector<double> p;               ///< recovery: per-stage failure prob
  std::vector<double> pre_nofail;      ///< recovery: prefix no-failure product
  std::vector<double> suf_min_tfs;     ///< recovery: suffix min TFS
};

/// OptimizeTempStorage into caller-owned storage: `*out` is fully
/// overwritten (an empty-cut result leaves out->cut empty). Bit-identical to
/// OptimizeTempStorage; with warm scratch the call performs no heap
/// allocation beyond out->cut growth.
Status OptimizeTempStorageInto(const dag::JobGraph& graph, const StageCosts& costs,
                               CheckpointScratch* scratch, CutResult* out);

/// OptimizeTempStorageMultiCut on scratch DP tables. The *result* vector
/// still owns its cut sets (they are handed to the caller), so this variant
/// removes the table allocations only; use num_cuts == 1 paths for strict
/// zero-allocation serving. Bit-identical to OptimizeTempStorageMultiCut.
Status OptimizeTempStorageMultiCutInto(const dag::JobGraph& graph,
                                       const StageCosts& costs, int num_cuts,
                                       CheckpointScratch* scratch,
                                       std::vector<CutResult>* out);

/// OptimizeRecovery into caller-owned storage; same contract as
/// OptimizeTempStorageInto.
Status OptimizeRecoveryInto(const dag::JobGraph& graph, const StageCosts& costs,
                            double delta, CheckpointScratch* scratch, CutResult* out);

/// Finalization slack: max(0, job_end - max end_time), i.e. how long the
/// last-ending stage's temp data lives before the job-end clear releases it.
/// The temp-storage sweep/DP/baselines price TTLs net of this slack
/// (`max(0, ttl - slack)`), which zeroes the value of the disallowed
/// full-stage "cut" and un-biases the comparison among legal prefixes.
/// Returns 0 when `costs.job_end` is unset.
double FinalClearSlack(const StageCosts& costs);

/// \brief One candidate cut of the Proposition-5.1 sweep (Figure 6 of the
/// paper: saving as a function of the checkpoint timestamp).
struct SweepPoint {
  dag::StageId stage = dag::kInvalidStage;  ///< last stage entering the cut
  double end_time = 0.0;      ///< checkpoint timestamp (stage end)
  double cum_bytes = 0.0;     ///< temp bytes accumulated by then
  double min_ttl = 0.0;       ///< min before-cut TTL, net of FinalClearSlack
  double objective = 0.0;     ///< cum_bytes * min_ttl
};

/// All |S| sweep candidates in end-time order — the curve of Figure 6. The
/// last point (the full set) is included even though it is not a usable cut.
Result<std::vector<SweepPoint>> TempStorageSweep(const dag::JobGraph& graph,
                                                 const StageCosts& costs);

/// OptCheck1 (eq. 27): maximize temp-data saving T = (sum of before-cut
/// output bytes) * (min TTL among before-cut stages). Returns the best cut;
/// the objective unit is byte-seconds. If every cut has zero value the empty
/// cut (objective 0) is returned.
Result<CutResult> OptimizeTempStorage(const dag::JobGraph& graph,
                                      const StageCosts& costs);

/// Multi-cut extension of OptCheck1 via dynamic programming over end-time
/// prefixes: places up to `num_cuts` cuts, crediting each stage's data at
/// its *earliest* cut — (segment bytes) * (min TTL at that cut) — which is
/// the physical clearing semantics the cluster realizes. Note this is NOT
/// the paper's IP constraint (12), whose edge-disjoint crediting can fall
/// below this objective; the repo-wide convention is the physical semantics
/// (see DESIGN.md "Multi-cut semantics", pinned by
/// core_multicut_semantics_test). Returns one CutResult per cut, ordered
/// innermost-first (cut c contains cut c-1, constraint (10)); the total
/// objective is reported on the innermost (front) entry.
Result<std::vector<CutResult>> OptimizeTempStorageMultiCut(const dag::JobGraph& graph,
                                                           const StageCosts& costs,
                                                           int num_cuts);

/// OptCheck2 (eq. 33): maximize expected recovery saving P_F * min-TFS(after
/// cut), with per-task failure probability `delta` (eq. 31). Objective unit:
/// expected saved seconds.
Result<CutResult> OptimizeRecovery(const dag::JobGraph& graph, const StageCosts& costs,
                                   double delta);

// --- Baseline selectors (Figures 12 and 14). -------------------------------

/// Random baseline: cut at a uniformly random prefix of the end-time order.
Result<CutResult> RandomCut(const dag::JobGraph& graph, const StageCosts& costs,
                            Rng* rng);

/// Mid-point baseline: stages whose (estimated) end time falls in the first
/// half of the (estimated) job runtime are placed before the cut.
Result<CutResult> MidPointCut(const dag::JobGraph& graph, const StageCosts& costs);

}  // namespace phoebe::core
