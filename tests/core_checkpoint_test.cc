// Tests for the heuristic checkpoint optimizer: Proposition-5.1 sweep vs
// exhaustive search over all bipartitions, multi-cut DP, the recovery
// objective, and the baseline selectors.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "common/stats.h"
#include "core/explain.h"
#include "core/sensitivity.h"
#include "core/simulator.h"

namespace phoebe::core {
namespace {

struct TestJob {
  dag::JobGraph graph;
  StageCosts costs;
};

/// Random DAG with a consistent simulated schedule driving end_time/ttl/tfs.
TestJob RandomJob(uint64_t seed, int min_n = 3, int max_n = 10) {
  Rng rng(seed);
  int n = static_cast<int>(rng.UniformInt(min_n, max_n));
  TestJob t;
  for (int i = 0; i < n; ++i) {
    dag::Stage s;
    s.name = "s" + std::to_string(i);
    s.operators = {dag::OperatorKind::kFilter};
    s.num_tasks = static_cast<int>(rng.UniformInt(1, 50));
    t.graph.AddStage(std::move(s));
  }
  for (int v = 1; v < n; ++v) {
    int k = static_cast<int>(rng.UniformInt(1, 2));
    for (int j = 0; j < k; ++j) {
      (void)t.graph.AddEdge(static_cast<dag::StageId>(rng.UniformInt(0, v - 1)),
                            static_cast<dag::StageId>(v));
    }
  }
  std::vector<double> exec(static_cast<size_t>(n));
  for (double& e : exec) e = rng.Uniform(1.0, 60.0);
  auto sim = SimulateSchedule(t.graph, exec);
  sim.status().Check();
  t.costs.end_time = sim->end;
  t.costs.tfs = sim->start;
  t.costs.ttl.resize(static_cast<size_t>(n));
  t.costs.output_bytes.resize(static_cast<size_t>(n));
  t.costs.num_tasks.resize(static_cast<size_t>(n));
  for (int u = 0; u < n; ++u) {
    t.costs.ttl[static_cast<size_t>(u)] = sim->Ttl(static_cast<dag::StageId>(u));
    t.costs.output_bytes[static_cast<size_t>(u)] = rng.Uniform(1.0, 1000.0);
    t.costs.num_tasks[static_cast<size_t>(u)] = t.graph.stage(u).num_tasks;
  }
  return t;
}

/// Objective of a z-set under OptCheck1 (eq. 16-19 semantics).
double TempObjective(const StageCosts& costs, const std::vector<bool>& z) {
  double sum = 0.0, min_ttl = 1e300;
  bool any = false;
  for (size_t u = 0; u < z.size(); ++u) {
    if (!z[u]) continue;
    any = true;
    sum += costs.output_bytes[u];
    min_ttl = std::min(min_ttl, costs.ttl[u]);
  }
  return any ? sum * min_ttl : 0.0;
}

/// Recovery objective of a z-set under OptCheck2 (eq. 33-35).
double RecoveryObjective(const StageCosts& costs, const std::vector<bool>& z,
                         double delta) {
  double nofail_before = 1.0, nofail_after = 1.0, min_tfs = 1e300;
  bool any_after = false;
  for (size_t u = 0; u < z.size(); ++u) {
    double p = std::min(0.999, delta * costs.num_tasks[u]);
    if (z[u]) {
      nofail_before *= 1.0 - p;
    } else {
      nofail_after *= 1.0 - p;
      min_tfs = std::min(min_tfs, costs.tfs[u]);
      any_after = true;
    }
  }
  if (!any_after) return 0.0;
  return nofail_before * (1.0 - nofail_after) * min_tfs;
}

// ---------- Validation ----------

TEST(StageCostsTest, ValidateCatchesSizeMismatch) {
  TestJob t = RandomJob(1);
  StageCosts bad = t.costs;
  bad.ttl.pop_back();
  EXPECT_FALSE(bad.Validate(t.graph).ok());
  EXPECT_TRUE(t.costs.Validate(t.graph).ok());
}

TEST(StageCostsTest, ValidateCatchesNegatives) {
  TestJob t = RandomJob(2);
  StageCosts bad = t.costs;
  bad.output_bytes[0] = -1;
  EXPECT_FALSE(bad.Validate(t.graph).ok());
}

// ---------- OptCheck1 heuristic vs exhaustive ----------

class TempStorageExhaustiveTest : public ::testing::TestWithParam<int> {};

TEST_P(TempStorageExhaustiveTest, SweepMatchesBruteForceOverAllSubsets) {
  TestJob t = RandomJob(static_cast<uint64_t>(GetParam()) * 31 + 5, 3, 10);
  const size_t n = t.graph.num_stages();
  auto result = OptimizeTempStorage(t.graph, t.costs);
  ASSERT_TRUE(result.ok());

  // Brute-force all 2^n z-subsets except the full set (not a cut).
  double best = 0.0;
  for (uint32_t mask = 0; mask + 1 < (1u << n); ++mask) {
    std::vector<bool> z(n);
    for (size_t u = 0; u < n; ++u) z[u] = (mask >> u) & 1;
    best = std::max(best, TempObjective(t.costs, z));
  }
  EXPECT_NEAR(result->objective, best, 1e-6 * std::max(1.0, best));

  // The returned cut realizes the reported objective.
  if (!result->cut.empty()) {
    EXPECT_NEAR(TempObjective(t.costs, result->cut.before_cut), result->objective,
                1e-6 * std::max(1.0, result->objective));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TempStorageExhaustiveTest, ::testing::Range(0, 20));

TEST(TempStorageTest, GlobalBytesConsistent) {
  TestJob t = RandomJob(123);
  auto result = OptimizeTempStorage(t.graph, t.costs);
  ASSERT_TRUE(result.ok());
  if (!result->cut.empty()) {
    EXPECT_DOUBLE_EQ(result->global_bytes,
                     EstimateGlobalBytes(t.graph, t.costs, result->cut));
  }
}

TEST(TempStorageTest, ZeroTtlEverywhereGivesEmptyCut) {
  TestJob t = RandomJob(7);
  std::fill(t.costs.ttl.begin(), t.costs.ttl.end(), 0.0);
  auto result = OptimizeTempStorage(t.graph, t.costs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->objective, 0.0);
  EXPECT_TRUE(result->cut.empty());
}

// ---------- Sweep curve (Figure 6) ----------

TEST(SweepTest, MatchesOptimizerAndIsWellFormed) {
  TestJob t = RandomJob(42, 5, 12);
  auto sweep = TempStorageSweep(t.graph, t.costs);
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), t.graph.num_stages());
  // End times non-decreasing; cumulative bytes increasing; min TTL
  // non-increasing; objective == product.
  for (size_t k = 0; k < sweep->size(); ++k) {
    const auto& p = (*sweep)[k];
    EXPECT_DOUBLE_EQ(p.objective, p.cum_bytes * p.min_ttl);
    if (k > 0) {
      EXPECT_GE(p.end_time, (*sweep)[k - 1].end_time);
      EXPECT_GT(p.cum_bytes, (*sweep)[k - 1].cum_bytes);
      EXPECT_LE(p.min_ttl, (*sweep)[k - 1].min_ttl + 1e-12);
    }
  }
  // The optimizer's objective is the sweep maximum (excluding the full set).
  auto best = OptimizeTempStorage(t.graph, t.costs);
  ASSERT_TRUE(best.ok());
  double max_obj = 0.0;
  for (size_t k = 0; k + 1 < sweep->size(); ++k) {
    max_obj = std::max(max_obj, (*sweep)[k].objective);
  }
  EXPECT_DOUBLE_EQ(best->objective, max_obj);
}

// ---------- Multi-cut DP ----------

class MultiCutTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiCutTest, MoreCutsNeverHurt) {
  TestJob t = RandomJob(static_cast<uint64_t>(GetParam()) * 17 + 3, 5, 14);
  auto one = OptimizeTempStorageMultiCut(t.graph, t.costs, 1);
  auto two = OptimizeTempStorageMultiCut(t.graph, t.costs, 2);
  auto three = OptimizeTempStorageMultiCut(t.graph, t.costs, 3);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());
  ASSERT_TRUE(three.ok());
  auto obj = [](const std::vector<CutResult>& cuts) {
    return cuts.empty() ? 0.0 : cuts.front().objective;
  };
  EXPECT_GE(obj(*two), obj(*one) - 1e-9);
  EXPECT_GE(obj(*three), obj(*two) - 1e-9);
}

TEST_P(MultiCutTest, SingleCutMatchesOptimizeTempStorage) {
  TestJob t = RandomJob(static_cast<uint64_t>(GetParam()) * 13 + 11, 4, 12);
  auto single = OptimizeTempStorage(t.graph, t.costs);
  auto multi = OptimizeTempStorageMultiCut(t.graph, t.costs, 1);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(multi.ok());
  double multi_obj = multi->empty() ? 0.0 : multi->front().objective;
  EXPECT_NEAR(single->objective, multi_obj, 1e-6 * std::max(1.0, single->objective));
}

TEST_P(MultiCutTest, CutsAreNested) {
  TestJob t = RandomJob(static_cast<uint64_t>(GetParam()) * 29 + 1, 6, 16);
  auto cuts = OptimizeTempStorageMultiCut(t.graph, t.costs, 3);
  ASSERT_TRUE(cuts.ok());
  for (size_t c = 1; c < cuts->size(); ++c) {
    // Earlier (outermost-first ordering: first listed cut is innermost
    // prefix? verify containment in either direction consistently).
    const auto& a = (*cuts)[c - 1].cut.before_cut;
    const auto& b = (*cuts)[c].cut.before_cut;
    for (size_t u = 0; u < a.size(); ++u) {
      if (a[u]) { EXPECT_TRUE(b[u]); }  // each cut's set contains the previous
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiCutTest, ::testing::Range(0, 15));

// ---------- OptCheck2 (recovery) ----------

class RecoveryExhaustiveTest : public ::testing::TestWithParam<int> {};

TEST_P(RecoveryExhaustiveTest, SweepMatchesBruteForceOverPrefixStructure) {
  TestJob t = RandomJob(static_cast<uint64_t>(GetParam()) * 41 + 9, 3, 10);
  const size_t n = t.graph.num_stages();
  const double delta = 0.002;
  auto result = OptimizeRecovery(t.graph, t.costs, delta);
  ASSERT_TRUE(result.ok());

  double best = 0.0;
  for (uint32_t mask = 0; mask + 1 < (1u << n); ++mask) {
    std::vector<bool> z(n);
    for (size_t u = 0; u < n; ++u) z[u] = (mask >> u) & 1;
    best = std::max(best, RecoveryObjective(t.costs, z, delta));
  }
  EXPECT_NEAR(result->objective, best, 1e-9 + 1e-6 * best);
  if (!result->cut.empty()) {
    EXPECT_NEAR(RecoveryObjective(t.costs, result->cut.before_cut, delta),
                result->objective, 1e-9 + 1e-6 * result->objective);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryExhaustiveTest, ::testing::Range(0, 20));

TEST(RecoveryTest, RejectsBadDelta) {
  TestJob t = RandomJob(5);
  EXPECT_FALSE(OptimizeRecovery(t.graph, t.costs, -0.1).ok());
  EXPECT_FALSE(OptimizeRecovery(t.graph, t.costs, 1.0).ok());
}

TEST(RecoveryTest, ZeroDeltaGivesZeroObjective) {
  TestJob t = RandomJob(6);
  auto result = OptimizeRecovery(t.graph, t.costs, 0.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->objective, 0.0);
}

// ---------- Decision explanation ----------

TEST(ExplainTest, JsonAndTextCoverDecision) {
  // Build a small fake instance around a random job's graph/costs.
  TestJob t = RandomJob(77, 5, 9);
  workload::JobInstance job;
  job.job_id = 42;
  job.job_name = "ads_click_agg_daily_v1";
  job.template_id = 3;
  job.graph = t.graph;
  job.truth.resize(t.graph.num_stages());
  job.est.resize(t.graph.num_stages());

  auto cut = OptimizeTempStorage(t.graph, t.costs);
  ASSERT_TRUE(cut.ok());
  auto json = ExplainDecisionJson(job, t.costs, *cut);
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"job\""), std::string::npos);
  EXPECT_NE(json->find("\"sweep\""), std::string::npos);
  EXPECT_NE(json->find("\"decision\""), std::string::npos);
  EXPECT_NE(json->find("\"checkpoint_stages\""), std::string::npos);
  EXPECT_NE(json->find("ads_click_agg_daily_v1"), std::string::npos);
  // Braces balance (writer nesting checks passed).
  int depth = 0;
  for (char c : *json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  auto text = ExplainDecisionText(job, t.costs, *cut);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("ads_click_agg_daily_v1"), std::string::npos);
  if (!cut->cut.empty()) {
    EXPECT_NE(text->find("checkpoint stages:"), std::string::npos);
  }
}

TEST(ExplainTest, EmptyCutExplained) {
  TestJob t = RandomJob(78, 4, 6);
  workload::JobInstance job;
  job.graph = t.graph;
  job.truth.resize(t.graph.num_stages());
  job.est.resize(t.graph.num_stages());
  CutResult none;  // empty cut
  auto text = ExplainDecisionText(job, t.costs, none);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("no profitable checkpoint"), std::string::npos);
  auto json = ExplainDecisionJson(job, t.costs, none);
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"has_cut\":false"), std::string::npos);
}

// ---------- Sensitivity ----------

TEST(SensitivityTest, ZeroNoiseIsIdentity) {
  TestJob t = RandomJob(91, 5, 10);
  workload::JobInstance job;
  job.graph = t.graph;
  job.truth.resize(t.graph.num_stages());
  for (size_t i = 0; i < t.graph.num_stages(); ++i) {
    job.truth[i].output_bytes = t.costs.output_bytes[i];
    job.truth[i].ttl = t.costs.ttl[i];
    job.truth[i].end_time = t.costs.end_time[i];
    job.truth[i].tfs = t.costs.tfs[i];
    job.truth[i].num_tasks = t.costs.num_tasks[i];
  }
  Rng rng(1);
  auto r = EvaluateCutSensitivity(job, t.costs, CostPerturbation{}, &rng);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->jaccard, 1.0);
  EXPECT_DOUBLE_EQ(r->regret, 0.0);
  EXPECT_DOUBLE_EQ(r->realized_clean, r->realized_noisy);
}

TEST(SensitivityTest, PerturbationPreservesShapeInvariants) {
  TestJob t = RandomJob(92, 5, 10);
  CostPerturbation p;
  p.output_sigma = 0.7;
  p.ttl_sigma = 0.7;
  p.exec_sigma = 0.3;
  Rng rng(2);
  StageCosts noisy = PerturbCosts(t.costs, p, &rng);
  ASSERT_TRUE(noisy.Validate(t.graph).ok());
  EXPECT_EQ(noisy.size(), t.costs.size());
  bool changed = false;
  for (size_t i = 0; i < noisy.size(); ++i) {
    EXPECT_GE(noisy.output_bytes[i], 0.0);
    EXPECT_GE(noisy.ttl[i], 0.0);
    changed |= noisy.output_bytes[i] != t.costs.output_bytes[i];
  }
  EXPECT_TRUE(changed);
}

TEST(SensitivityTest, MoreNoiseMoreRegretOnAverage) {
  RunningStats low, high;
  Rng rng(3);
  for (uint64_t seed = 0; seed < 20; ++seed) {
    TestJob t = RandomJob(seed + 500, 6, 12);
    workload::JobInstance job;
    job.graph = t.graph;
    job.truth.resize(t.graph.num_stages());
    for (size_t i = 0; i < t.graph.num_stages(); ++i) {
      job.truth[i].output_bytes = t.costs.output_bytes[i];
      job.truth[i].ttl = t.costs.ttl[i];
      job.truth[i].end_time = t.costs.end_time[i];
      job.truth[i].tfs = t.costs.tfs[i];
      job.truth[i].num_tasks = t.costs.num_tasks[i];
    }
    CostPerturbation small{0.0, 0.1, 0.1};
    CostPerturbation big{0.0, 2.0, 2.0};
    auto a = EvaluateCutSensitivity(job, t.costs, small, &rng);
    auto b = EvaluateCutSensitivity(job, t.costs, big, &rng);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    low.Add(a->regret);
    high.Add(b->regret);
  }
  EXPECT_GE(high.mean(), low.mean());
}

// ---------- Baselines ----------

TEST(BaselineTest, RandomCutIsValidAndDeterministicPerSeed) {
  TestJob t = RandomJob(8);
  Rng r1(3), r2(3);
  auto a = RandomCut(t.graph, t.costs, &r1);
  auto b = RandomCut(t.graph, t.costs, &r2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->cut.before_cut, b->cut.before_cut);
  size_t before = 0;
  for (bool v : a->cut.before_cut) before += v;
  EXPECT_GE(before, 1u);
  EXPECT_LT(before, t.graph.num_stages());
}

TEST(BaselineTest, MidPointSplitsSchedule) {
  TestJob t = RandomJob(9, 6, 12);
  auto mp = MidPointCut(t.graph, t.costs);
  ASSERT_TRUE(mp.ok());
  double job_end = 0;
  for (double e : t.costs.end_time) job_end = std::max(job_end, e);
  for (size_t u = 0; u < t.costs.size(); ++u) {
    if (mp->cut.before_cut[u]) {
      EXPECT_LE(t.costs.end_time[u], job_end / 2 + 1e-9);
    }
  }
}

TEST(BaselineTest, HeuristicBeatsBaselinesOnItsObjective) {
  // The optimizer's objective value must dominate any baseline's.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    TestJob t = RandomJob(seed + 200, 5, 12);
    auto opt = OptimizeTempStorage(t.graph, t.costs);
    auto mp = MidPointCut(t.graph, t.costs);
    Rng rng(seed);
    auto rnd = RandomCut(t.graph, t.costs, &rng);
    ASSERT_TRUE(opt.ok());
    ASSERT_TRUE(mp.ok());
    ASSERT_TRUE(rnd.ok());
    EXPECT_GE(opt->objective, mp->objective - 1e-9);
    EXPECT_GE(opt->objective, rnd->objective - 1e-9);
  }
}

TEST(BaselineTest, TooSmallGraphRejected) {
  TestJob t;
  dag::Stage s;
  s.operators = {dag::OperatorKind::kFilter};
  t.graph.AddStage(s);
  t.costs.output_bytes = {1.0};
  t.costs.ttl = {1.0};
  t.costs.end_time = {1.0};
  t.costs.tfs = {0.0};
  t.costs.num_tasks = {1};
  Rng rng(1);
  EXPECT_FALSE(RandomCut(t.graph, t.costs, &rng).ok());
  EXPECT_FALSE(MidPointCut(t.graph, t.costs).ok());
}

/// Three-stage chain where the workload generator's finalization slack (the
/// gap between the last stage's end and the job-end clear) used to make the
/// near-full prefix look profitable. With `job_end` set, every TTL is priced
/// net of FinalClearSlack and only genuinely realizable saving remains.
TestJob FinalizationSlackJob() {
  TestJob t;
  for (int i = 0; i < 3; ++i) {
    dag::Stage s;
    s.name = "s" + std::to_string(i);
    s.operators = {dag::OperatorKind::kFilter};
    s.num_tasks = 1;
    t.graph.AddStage(std::move(s));
  }
  (void)t.graph.AddEdge(0, 1);
  (void)t.graph.AddEdge(1, 2);
  t.costs.end_time = {1.0, 5.0, 10.0};
  t.costs.tfs = {0.0, 1.0, 5.0};
  // The job-end clear happens 100s after the last stage ends; each TTL
  // includes that slack (the generator writes TTLs as job_end - end_time).
  t.costs.job_end = 110.0;
  t.costs.ttl = {109.0, 101.0, 100.0};
  t.costs.output_bytes = {1.0, 1.0, 200.0};
  t.costs.num_tasks = {1, 1, 1};
  return t;
}

TEST(FinalClearSlackTest, SlackIsGapBetweenJobEndAndLastStage) {
  TestJob t = FinalizationSlackJob();
  EXPECT_DOUBLE_EQ(FinalClearSlack(t.costs), 100.0);
  t.costs.job_end = 0.0;  // unset: no adjustment
  EXPECT_DOUBLE_EQ(FinalClearSlack(t.costs), 0.0);
  t.costs.job_end = 7.0;  // before the last stage ends: clamped to 0
  EXPECT_DOUBLE_EQ(FinalClearSlack(t.costs), 0.0);
}

TEST(FinalClearSlackTest, FullStageCutWorthZeroWhenJobEndKnown) {
  const TestJob t = FinalizationSlackJob();
  auto sweep = TempStorageSweep(t.graph, t.costs);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  ASSERT_EQ(sweep->size(), 3u);
  // Net TTLs are {9, 1, 0}: the full set's min TTL is exactly the final
  // clear, so the disallowed "checkpoint everything" point is worth nothing.
  EXPECT_DOUBLE_EQ((*sweep)[0].objective, 9.0);
  EXPECT_DOUBLE_EQ((*sweep)[1].objective, 2.0);
  EXPECT_DOUBLE_EQ((*sweep)[2].objective, 0.0);

  // Without job_end the same job prices the raw TTLs and the full set
  // dominates everything — the bias this column exists to remove.
  TestJob raw = FinalizationSlackJob();
  raw.costs.job_end = 0.0;
  auto raw_sweep = TempStorageSweep(raw.graph, raw.costs);
  ASSERT_TRUE(raw_sweep.ok());
  EXPECT_DOUBLE_EQ((*raw_sweep)[2].objective, 202.0 * 100.0);
  EXPECT_GT((*raw_sweep)[2].objective, (*raw_sweep)[0].objective);
}

TEST(FinalClearSlackTest, OptimizerStopsChasingFinalizationSlack) {
  const TestJob t = FinalizationSlackJob();
  auto best = OptimizeTempStorage(t.graph, t.costs);
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  // Net of slack, {s0} (1 byte * 9s) beats {s0,s1} (2 bytes * 1s).
  const std::vector<bool> first_only = {true, false, false};
  EXPECT_EQ(best->cut.before_cut, first_only);
  EXPECT_DOUBLE_EQ(best->objective, 9.0);

  // With job_end unset the slack-inflated TTLs flip the choice to the
  // near-full prefix, which in reality the final clear released for free.
  TestJob raw = FinalizationSlackJob();
  raw.costs.job_end = 0.0;
  auto raw_best = OptimizeTempStorage(raw.graph, raw.costs);
  ASSERT_TRUE(raw_best.ok());
  const std::vector<bool> first_two = {true, true, false};
  EXPECT_EQ(raw_best->cut.before_cut, first_two);
  EXPECT_DOUBLE_EQ(raw_best->objective, 202.0);
}

TEST(FinalClearSlackTest, MultiCutDpPricesNetTtls) {
  const TestJob t = FinalizationSlackJob();
  auto single = OptimizeTempStorage(t.graph, t.costs);
  ASSERT_TRUE(single.ok());
  auto dp1 = OptimizeTempStorageMultiCut(t.graph, t.costs, 1);
  ASSERT_TRUE(dp1.ok()) << dp1.status().ToString();
  ASSERT_EQ(dp1->size(), 1u);
  // num_cuts=1 DP must agree with the sweep under the same net pricing.
  EXPECT_EQ((*dp1)[0].cut.before_cut, single->cut.before_cut);
  EXPECT_DOUBLE_EQ((*dp1)[0].objective, single->objective);
  auto dp2 = OptimizeTempStorageMultiCut(t.graph, t.costs, 2);
  ASSERT_TRUE(dp2.ok());
  // More cuts can only help, and no plan can beat the total net TTL value.
  EXPECT_GE((*dp2)[0].objective, (*dp1)[0].objective);
  EXPECT_LE((*dp2)[0].objective, 1.0 * 9.0 + 1.0 * 1.0);
}

}  // namespace
}  // namespace phoebe::core
