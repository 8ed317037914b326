#include "core/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/strings.h"

namespace phoebe::core {

namespace {

/// Stage ids sorted by ascending (estimated) end time; ties by id for
/// determinism. Prefixes of this order are the Proposition-5.1 candidates.
std::vector<dag::StageId> EndTimeOrder(const StageCosts& costs) {
  std::vector<dag::StageId> order(costs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](dag::StageId a, dag::StageId b) {
    double ea = costs.end_time[static_cast<size_t>(a)];
    double eb = costs.end_time[static_cast<size_t>(b)];
    if (ea != eb) return ea < eb;
    return a < b;
  });
  return order;
}

/// In-place EndTimeOrder for the scratch-based optimizers: same order, but
/// the caller's buffer is recycled.
void EndTimeOrderInto(const StageCosts& costs, std::vector<dag::StageId>* order) {
  order->resize(costs.size());
  std::iota(order->begin(), order->end(), 0);
  std::sort(order->begin(), order->end(), [&](dag::StageId a, dag::StageId b) {
    double ea = costs.end_time[static_cast<size_t>(a)];
    double eb = costs.end_time[static_cast<size_t>(b)];
    if (ea != eb) return ea < eb;
    return a < b;
  });
}

void PrefixCutInto(const std::vector<dag::StageId>& order, size_t prefix_len, size_t n,
                   cluster::CutSet* cut) {
  cut->before_cut.assign(n, false);
  for (size_t i = 0; i < prefix_len; ++i) {
    cut->before_cut[static_cast<size_t>(order[i])] = true;
  }
}

cluster::CutSet PrefixCut(const std::vector<dag::StageId>& order, size_t prefix_len,
                          size_t n) {
  cluster::CutSet cut;
  PrefixCutInto(order, prefix_len, n, &cut);
  return cut;
}

}  // namespace

Status StageCosts::Validate(const dag::JobGraph& graph) const {
  const size_t n = graph.num_stages();
  if (output_bytes.size() != n || ttl.size() != n || end_time.size() != n ||
      tfs.size() != n || num_tasks.size() != n) {
    return Status::InvalidArgument(
        StrFormat("StageCosts sized for %zu stages, graph has %zu", output_bytes.size(),
                  n));
  }
  for (size_t i = 0; i < n; ++i) {
    if (output_bytes[i] < 0 || ttl[i] < 0 || num_tasks[i] < 1) {
      return Status::InvalidArgument(StrFormat("negative cost at stage %zu", i));
    }
  }
  return Status::OK();
}

double EstimateGlobalBytes(const dag::JobGraph& graph, const StageCosts& costs,
                           const cluster::CutSet& cut) {
  if (cut.empty()) return 0.0;
  double total = 0.0;
  for (dag::StageId u = 0; u < static_cast<dag::StageId>(graph.num_stages()); ++u) {
    if (cluster::IsCheckpointStage(graph, cut, u)) {
      total += costs.output_bytes[static_cast<size_t>(u)];
    }
  }
  return total;
}

double FinalClearSlack(const StageCosts& costs) {
  if (costs.job_end <= 0.0) return 0.0;
  double max_end = 0.0;
  for (double e : costs.end_time) max_end = std::max(max_end, e);
  return std::max(0.0, costs.job_end - max_end);
}

Result<std::vector<SweepPoint>> TempStorageSweep(const dag::JobGraph& graph,
                                                 const StageCosts& costs) {
  PHOEBE_RETURN_NOT_OK(costs.Validate(graph));
  const size_t n = costs.size();
  std::vector<dag::StageId> order = EndTimeOrder(costs);

  // Figure 6: after each stage finishes, the temp storage in use has grown by
  // its output; clearing everything accumulated so far saves cum_bytes *
  // min TTL. The min is tracked explicitly because estimated TTLs need not be
  // consistent with the estimated end times. TTLs are priced net of the
  // finalization slack: the job-end clear releases everything anyway, so a
  // cut only realizes the TTL up to that point — in particular the full-set
  // point prices to exactly 0.
  const double slack = FinalClearSlack(costs);
  std::vector<SweepPoint> sweep;
  sweep.reserve(n);
  double sum_bytes = 0.0;
  double min_ttl = 0.0;
  for (size_t k = 0; k < n; ++k) {
    size_t u = static_cast<size_t>(order[k]);
    sum_bytes += costs.output_bytes[u];
    double ttl_eff = std::max(0.0, costs.ttl[u] - slack);
    min_ttl = (k == 0) ? ttl_eff : std::min(min_ttl, ttl_eff);
    SweepPoint p;
    p.stage = order[k];
    p.end_time = costs.end_time[u];
    p.cum_bytes = sum_bytes;
    p.min_ttl = min_ttl;
    p.objective = sum_bytes * min_ttl;
    sweep.push_back(p);
  }
  return sweep;
}

Result<CutResult> OptimizeTempStorage(const dag::JobGraph& graph,
                                      const StageCosts& costs) {
  CheckpointScratch scratch;
  CutResult result;
  PHOEBE_RETURN_NOT_OK(OptimizeTempStorageInto(graph, costs, &scratch, &result));
  return result;
}

Status OptimizeTempStorageInto(const dag::JobGraph& graph, const StageCosts& costs,
                               CheckpointScratch* scratch, CutResult* out) {
  const size_t n = costs.size();
  if (n == 0) return Status::InvalidArgument("empty graph");
  PHOEBE_RETURN_NOT_OK(costs.Validate(graph));
  EndTimeOrderInto(costs, &scratch->order);

  // The Proposition-5.1 sweep, folded into one pass: track the running
  // prefix bytes / min effective TTL and the best prefix, excluding the full
  // set (not a checkpoint). Arithmetic matches TempStorageSweep exactly.
  const double slack = FinalClearSlack(costs);
  double sum_bytes = 0.0;
  double min_ttl = 0.0;
  double best_obj = 0.0;
  size_t best_k = 0;  // 0 = no cut
  for (size_t k = 0; k + 1 < n; ++k) {
    size_t u = static_cast<size_t>(scratch->order[k]);
    sum_bytes += costs.output_bytes[u];
    double ttl_eff = std::max(0.0, costs.ttl[u] - slack);
    min_ttl = (k == 0) ? ttl_eff : std::min(min_ttl, ttl_eff);
    if (sum_bytes * min_ttl > best_obj) {
      best_obj = sum_bytes * min_ttl;
      best_k = k + 1;
    }
  }

  out->objective = best_obj;
  out->global_bytes = 0.0;
  if (best_k > 0) {
    PrefixCutInto(scratch->order, best_k, n, &out->cut);
    out->global_bytes = EstimateGlobalBytes(graph, costs, out->cut);
  } else {
    out->cut.before_cut.clear();
  }
  return Status::OK();
}

Result<std::vector<CutResult>> OptimizeTempStorageMultiCut(const dag::JobGraph& graph,
                                                           const StageCosts& costs,
                                                           int num_cuts) {
  CheckpointScratch scratch;
  std::vector<CutResult> cuts;
  PHOEBE_RETURN_NOT_OK(
      OptimizeTempStorageMultiCutInto(graph, costs, num_cuts, &scratch, &cuts));
  return cuts;
}

Status OptimizeTempStorageMultiCutInto(const dag::JobGraph& graph,
                                       const StageCosts& costs, int num_cuts,
                                       CheckpointScratch* scratch,
                                       std::vector<CutResult>* out) {
  PHOEBE_RETURN_NOT_OK(costs.Validate(graph));
  if (num_cuts < 1) return Status::InvalidArgument("num_cuts must be >= 1");
  const size_t n = costs.size();
  if (n == 0) return Status::InvalidArgument("empty graph");

  std::vector<dag::StageId>& order = scratch->order;
  EndTimeOrderInto(costs, &order);

  // Prefix sums of output bytes and running prefix-min TTL in end-time order.
  // TTLs are net of the finalization slack, mirroring TempStorageSweep.
  const double slack = FinalClearSlack(costs);
  std::vector<double>& pre_bytes = scratch->pre_bytes;
  std::vector<double>& pre_min_ttl = scratch->pre_min_ttl;
  pre_bytes.assign(n + 1, 0.0);
  pre_min_ttl.assign(n + 1, 0.0);
  for (size_t k = 0; k < n; ++k) {
    size_t u = static_cast<size_t>(order[k]);
    pre_bytes[k + 1] = pre_bytes[k] + costs.output_bytes[u];
    double ttl_eff = std::max(0.0, costs.ttl[u] - slack);
    pre_min_ttl[k + 1] = (k == 0) ? ttl_eff : std::min(pre_min_ttl[k], ttl_eff);
  }

  // DP over cut positions: cut c at prefix k saves
  //   (pre_bytes[k] - pre_bytes[prev]) * pre_min_ttl[k]
  // for the stages between cuts (constraints (21)-(26)). Positions are
  // strictly increasing and stay < n (a cut covering everything is not a
  // checkpoint). Tables are flattened (c * (n + 1) + k) onto scratch rows.
  const int kc = num_cuts;
  const double kNeg = -1.0;
  const size_t stride = n + 1;
  std::vector<double>& dp = scratch->dp;
  std::vector<size_t>& parent = scratch->parent;
  dp.assign((static_cast<size_t>(kc) + 1) * stride, kNeg);
  parent.assign((static_cast<size_t>(kc) + 1) * stride, 0);
  dp[0] = 0.0;  // dp[c=0][k=0]
  for (int c = 1; c <= kc; ++c) {
    const size_t row = static_cast<size_t>(c) * stride;
    const size_t prev_row = row - stride;
    for (size_t k = static_cast<size_t>(c); k < n; ++k) {
      for (size_t prev = static_cast<size_t>(c) - 1; prev < k; ++prev) {
        if (dp[prev_row + prev] < 0.0) continue;
        double gain = (pre_bytes[k] - pre_bytes[prev]) * pre_min_ttl[k];
        double total = dp[prev_row + prev] + gain;
        if (total > dp[row + k]) {
          dp[row + k] = total;
          parent[row + k] = prev;
        }
      }
    }
  }

  // Best number of cuts <= num_cuts and last position.
  int best_c = 0;
  size_t best_k = 0;
  double best_obj = 0.0;
  for (int c = 1; c <= kc; ++c) {
    for (size_t k = 1; k < n; ++k) {
      if (dp[static_cast<size_t>(c) * stride + k] > best_obj) {
        best_obj = dp[static_cast<size_t>(c) * stride + k];
        best_c = c;
        best_k = k;
      }
    }
  }

  out->clear();
  if (best_c == 0) return Status::OK();  // nothing worth checkpointing

  // Recover positions outermost-last, then emit innermost-first with nested
  // before-cut sets (cut c contains cut c-1).
  std::vector<size_t>& positions = scratch->positions;
  positions.clear();
  {
    int c = best_c;
    size_t k = best_k;
    while (c > 0) {
      positions.push_back(k);
      k = parent[static_cast<size_t>(c) * stride + k];
      --c;
    }
    std::reverse(positions.begin(), positions.end());
  }
  for (size_t pos : positions) {
    CutResult r;
    r.cut = PrefixCut(order, pos, n);
    r.global_bytes = EstimateGlobalBytes(graph, costs, r.cut);
    out->push_back(std::move(r));
  }
  // Assign the total objective to the front (innermost) entry for reporting.
  out->front().objective = best_obj;
  return Status::OK();
}

Result<CutResult> OptimizeRecovery(const dag::JobGraph& graph, const StageCosts& costs,
                                   double delta) {
  CheckpointScratch scratch;
  CutResult result;
  PHOEBE_RETURN_NOT_OK(OptimizeRecoveryInto(graph, costs, delta, &scratch, &result));
  return result;
}

Status OptimizeRecoveryInto(const dag::JobGraph& graph, const StageCosts& costs,
                            double delta, CheckpointScratch* scratch, CutResult* out) {
  PHOEBE_RETURN_NOT_OK(costs.Validate(graph));
  if (delta < 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must be in [0, 1)");
  }
  const size_t n = costs.size();
  if (n == 0) return Status::InvalidArgument("empty graph");

  // The recovery objective is driven by the minimum TFS of the after-cut
  // group, so the optimal before-cut set is a lower set by TFS: any stage
  // with TFS below the cut line must be before it (else T-bar collapses to
  // that stage's TFS), and adding a stage above the line only lowers P_F.
  // Sweep TFS-ordered prefixes.
  std::vector<dag::StageId>& order = scratch->order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](dag::StageId a, dag::StageId b) {
    double ta = costs.tfs[static_cast<size_t>(a)];
    double tb = costs.tfs[static_cast<size_t>(b)];
    if (ta != tb) return ta < tb;
    return a < b;
  });

  // Per-stage failure probability p_u = min(delta * v_u, cap) — eq. (32).
  std::vector<double>& p = scratch->p;
  p.resize(n);
  for (size_t i = 0; i < n; ++i) {
    p[i] = std::min(0.999, delta * static_cast<double>(costs.num_tasks[i]));
  }

  // Prefix products of (1 - p) in TFS order, and suffix min TFS.
  std::vector<double>& pre_nofail = scratch->pre_nofail;
  pre_nofail.assign(n + 1, 1.0);
  for (size_t k = 0; k < n; ++k) {
    pre_nofail[k + 1] =
        pre_nofail[k] * (1.0 - p[static_cast<size_t>(order[k])]);
  }
  std::vector<double>& suf_min_tfs = scratch->suf_min_tfs;
  suf_min_tfs.assign(n + 1, 0.0);
  suf_min_tfs[n] = 0.0;
  for (size_t k = n; k-- > 0;) {
    double tfs = costs.tfs[static_cast<size_t>(order[k])];
    suf_min_tfs[k] = (k == n - 1) ? tfs : std::min(suf_min_tfs[k + 1], tfs);
  }

  double total_nofail = pre_nofail[n];
  double best_obj = 0.0;
  size_t best_k = 0;
  for (size_t k = 1; k < n; ++k) {  // at least one stage on each side
    double nofail_before = pre_nofail[k];
    double nofail_after = total_nofail / std::max(1e-300, nofail_before);
    double pf = nofail_before * (1.0 - nofail_after);  // eq. (35)
    double tbar = suf_min_tfs[k];                      // eq. (34)
    double obj = pf * tbar;
    if (obj > best_obj) {
      best_obj = obj;
      best_k = k;
    }
  }

  out->objective = best_obj;
  out->global_bytes = 0.0;
  if (best_k > 0) {
    PrefixCutInto(order, best_k, n, &out->cut);
    out->global_bytes = EstimateGlobalBytes(graph, costs, out->cut);
  } else {
    out->cut.before_cut.clear();
  }
  return Status::OK();
}

Result<CutResult> RandomCut(const dag::JobGraph& graph, const StageCosts& costs,
                            Rng* rng) {
  PHOEBE_RETURN_NOT_OK(costs.Validate(graph));
  const size_t n = costs.size();
  if (n < 2) return Status::InvalidArgument("graph too small to cut");
  std::vector<dag::StageId> order = EndTimeOrder(costs);
  // Cut at a uniformly random timestamp of the (estimated) schedule: the
  // stages ending before it go before the cut.
  double job_end = 0.0;
  for (double e : costs.end_time) job_end = std::max(job_end, e);
  double t_star = rng->Uniform(0.0, job_end);
  size_t k = 0;
  while (k < n && costs.end_time[static_cast<size_t>(order[k])] <= t_star) ++k;
  k = std::clamp<size_t>(k, 1, n - 1);
  CutResult result;
  result.cut = PrefixCut(order, k, n);
  result.global_bytes = EstimateGlobalBytes(graph, costs, result.cut);
  // Report the temp-saving objective of the random choice.
  double sum_bytes = 0.0, min_ttl = 0.0;
  const double slack = FinalClearSlack(costs);
  for (size_t i = 0; i < k; ++i) {
    size_t u = static_cast<size_t>(order[i]);
    sum_bytes += costs.output_bytes[u];
    double ttl_eff = std::max(0.0, costs.ttl[u] - slack);
    min_ttl = (i == 0) ? ttl_eff : std::min(min_ttl, ttl_eff);
  }
  result.objective = sum_bytes * min_ttl;
  return result;
}

Result<CutResult> MidPointCut(const dag::JobGraph& graph, const StageCosts& costs) {
  PHOEBE_RETURN_NOT_OK(costs.Validate(graph));
  const size_t n = costs.size();
  if (n < 2) return Status::InvalidArgument("graph too small to cut");
  double job_end = 0.0;
  for (double e : costs.end_time) job_end = std::max(job_end, e);
  double mid = job_end / 2.0;

  std::vector<dag::StageId> order = EndTimeOrder(costs);
  size_t k = 0;
  while (k < n && costs.end_time[static_cast<size_t>(order[k])] <= mid) ++k;
  k = std::clamp<size_t>(k, 1, n - 1);

  CutResult result;
  result.cut = PrefixCut(order, k, n);
  result.global_bytes = EstimateGlobalBytes(graph, costs, result.cut);
  double sum_bytes = 0.0, min_ttl = 0.0;
  const double slack = FinalClearSlack(costs);
  for (size_t i = 0; i < k; ++i) {
    size_t u = static_cast<size_t>(order[i]);
    sum_bytes += costs.output_bytes[u];
    double ttl_eff = std::max(0.0, costs.ttl[u] - slack);
    min_ttl = (i == 0) ? ttl_eff : std::min(min_ttl, ttl_eff);
  }
  result.objective = sum_bytes * min_ttl;
  return result;
}

}  // namespace phoebe::core
