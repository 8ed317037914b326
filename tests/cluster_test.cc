// Tests for the cluster substrate: cut semantics, temp-storage replay,
// failure/recovery model, and checkpoint write impact.
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/cluster.h"
#include "cluster/failure.h"
#include "cluster/impact.h"
#include "workload/generator.h"

namespace phoebe::cluster {
namespace {

workload::WorkloadGenerator MakeGen(uint64_t seed = 4) {
  workload::WorkloadConfig cfg;
  cfg.num_templates = 12;
  cfg.seed = seed;
  return workload::WorkloadGenerator(cfg);
}

/// A cut with the earliest-ending half of stages before it.
CutSet HalfCut(const workload::JobInstance& job) {
  CutSet cut;
  const size_t n = job.graph.num_stages();
  cut.before_cut.assign(n, false);
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return job.truth[a].end_time < job.truth[b].end_time;
  });
  for (size_t i = 0; i < n / 2; ++i) cut.before_cut[idx[i]] = true;
  return cut;
}

// ---------- Config / construction ----------

TEST(ClusterConfigTest, DefaultValid) {
  EXPECT_TRUE(ClusterConfig{}.Validate().ok());
}

TEST(ClusterConfigTest, RejectsBadValues) {
  ClusterConfig cfg;
  cfg.num_machines = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = ClusterConfig{};
  cfg.skus.clear();
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = ClusterConfig{};
  cfg.mtbf_hours = -1;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(ClusterTest, SkuAssignmentMatchesWeights) {
  ClusterConfig cfg;
  cfg.num_machines = 1000;
  ClusterSimulator sim(cfg);
  std::vector<int> counts(cfg.skus.size(), 0);
  for (const Machine& m : sim.machines()) ++counts[static_cast<size_t>(m.sku)];
  double total_w = 0;
  for (const auto& s : cfg.skus) total_w += s.weight;
  for (size_t k = 0; k < cfg.skus.size(); ++k) {
    double expected = 1000.0 * cfg.skus[k].weight / total_w;
    EXPECT_NEAR(counts[k], expected, 30.0);
  }
}

// ---------- Cut semantics ----------

TEST(CutTest, EmptyCutHasNoCheckpointStages) {
  auto gen = MakeGen();
  auto jobs = gen.GenerateDay(0);
  CutSet empty;
  EXPECT_TRUE(CheckpointStages(jobs[0].graph, empty).empty());
  EXPECT_EQ(GlobalStorageBytes(jobs[0], empty), 0.0);
  EXPECT_DOUBLE_EQ(CutClearTime(jobs[0], empty), jobs[0].JobRuntime());
}

TEST(CutTest, CheckpointStagesAreExactlyCrossingProducers) {
  auto gen = MakeGen();
  auto jobs = gen.GenerateDay(0);
  const auto& job = jobs[0];
  CutSet cut = HalfCut(job);
  auto cps = CheckpointStages(job.graph, cut);
  for (dag::StageId u : cps) {
    EXPECT_TRUE(cut.before_cut[static_cast<size_t>(u)]);
    bool crossing = false;
    for (dag::StageId v : job.graph.downstream(u)) {
      crossing |= !cut.before_cut[static_cast<size_t>(v)];
    }
    EXPECT_TRUE(crossing);
  }
  // And no other before-cut stage crosses.
  for (size_t u = 0; u < cut.before_cut.size(); ++u) {
    if (!cut.before_cut[u]) continue;
    bool crossing = false;
    for (dag::StageId v : job.graph.downstream(static_cast<dag::StageId>(u))) {
      crossing |= !cut.before_cut[static_cast<size_t>(v)];
    }
    bool listed = std::find(cps.begin(), cps.end(), static_cast<dag::StageId>(u)) !=
                  cps.end();
    EXPECT_EQ(crossing, listed);
  }
}

TEST(CutTest, GlobalBytesSumsCheckpointOutputs) {
  auto gen = MakeGen();
  auto jobs = gen.GenerateDay(0);
  const auto& job = jobs[0];
  CutSet cut = HalfCut(job);
  double expected = 0;
  for (dag::StageId u : CheckpointStages(job.graph, cut)) {
    expected += job.truth[static_cast<size_t>(u)].output_bytes;
  }
  EXPECT_DOUBLE_EQ(GlobalStorageBytes(job, cut), expected);
}

TEST(CutTest, ClearTimeIsMaxEndOfBeforeCut) {
  auto gen = MakeGen();
  auto jobs = gen.GenerateDay(0);
  const auto& job = jobs[0];
  CutSet cut = HalfCut(job);
  double expected = 0;
  for (size_t u = 0; u < cut.before_cut.size(); ++u) {
    if (cut.before_cut[u]) expected = std::max(expected, job.truth[u].end_time);
  }
  EXPECT_DOUBLE_EQ(CutClearTime(job, cut), expected);
  EXPECT_LE(expected, job.JobRuntime());
}

// ---------- Temp usage replay ----------

TEST(TempUsageTest, PeaksAreConsistent) {
  auto gen = MakeGen();
  auto jobs = gen.GenerateDay(0);
  ClusterConfig cfg;
  cfg.num_machines = 50;
  ClusterSimulator sim(cfg);
  auto report = sim.SimulateTempUsage(jobs);
  ASSERT_EQ(report.peak_bytes.size(), 50u);
  double max_peak = 0;
  for (double p : report.peak_bytes) {
    EXPECT_GE(p, 0.0);
    max_peak = std::max(max_peak, p);
  }
  EXPECT_GT(report.fleet_peak_bytes, 0.0);
  EXPECT_GE(report.fleet_peak_bytes, max_peak);
  EXPECT_GT(report.total_byte_seconds, 0.0);
}

TEST(TempUsageTest, CheckpointingReducesByteSeconds) {
  auto gen = MakeGen();
  auto jobs = gen.GenerateDay(0);
  ClusterConfig cfg;
  cfg.num_machines = 50;
  ClusterSimulator sim(cfg);
  auto base = sim.SimulateTempUsage(jobs);

  std::vector<CutSet> cuts;
  cuts.reserve(jobs.size());
  for (const auto& job : jobs) cuts.push_back(HalfCut(job));
  ClusterSimulator sim2(cfg);  // same seed -> same placement
  auto with = sim2.SimulateTempUsage(jobs, &cuts);
  EXPECT_LT(with.total_byte_seconds, base.total_byte_seconds);
}

TEST(TempUsageTest, FractionAboveBehaves) {
  TempUsageReport r;
  r.peak_fraction = {0.1, 0.5, 0.9, 0.2};
  r.machine_sku = {0, 0, 1, 1};
  r.peak_bytes = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(r.FractionAbove(0, 0.4), 0.5);
  EXPECT_DOUBLE_EQ(r.FractionAbove(1, 0.4), 0.5);
  EXPECT_DOUBLE_EQ(r.FractionAbove(1, 0.95), 0.0);
  EXPECT_DOUBLE_EQ(r.FractionAbove(7, 0.5), 0.0);  // unknown SKU
}

TEST(ContainerTest, FootprintLimitsContainers) {
  ClusterConfig cfg;
  ClusterSimulator sim(cfg);
  int full = sim.MaxContainersForFootprint(0, 1.0);  // tiny footprint
  EXPECT_EQ(full, cfg.skus[0].slots);
  int limited = sim.MaxContainersForFootprint(
      0, cfg.skus[0].ssd_gb * 1e9 / 4.0);  // fits only 4
  EXPECT_EQ(limited, 4);
}

// ---------- Failure model ----------

TEST(FailureTest, ProbabilitiesInRangeAndMonotone) {
  auto gen = MakeGen();
  auto jobs = gen.GenerateDay(0);
  const auto& job = jobs[0];
  FailureModel shorter(job, /*mtbf=*/3600.0 * 100);
  FailureModel longer(job, /*mtbf=*/3600.0);
  for (size_t u = 0; u < job.truth.size(); ++u) {
    double p_lo = shorter.StageFailureProb(static_cast<dag::StageId>(u));
    double p_hi = longer.StageFailureProb(static_cast<dag::StageId>(u));
    EXPECT_GE(p_lo, 0.0);
    EXPECT_LE(p_hi, 1.0);
    EXPECT_LE(p_lo, p_hi);  // lower MTBF -> more failures
  }
  EXPECT_LE(shorter.JobFailureProb(), longer.JobFailureProb());
}

TEST(FailureTest, JobFailureProbMatchesProduct) {
  auto gen = MakeGen();
  auto jobs = gen.GenerateDay(0);
  const auto& job = jobs[0];
  FailureModel fm(job, 3600.0 * 12);
  double no_fail = 1.0;
  for (size_t u = 0; u < job.truth.size(); ++u) {
    no_fail *= 1.0 - fm.StageFailureProb(static_cast<dag::StageId>(u));
  }
  EXPECT_NEAR(fm.JobFailureProb(), 1.0 - no_fail, 1e-12);
}

TEST(FailureTest, SampleFailureDeterministicAndPlausible) {
  auto gen = MakeGen();
  auto jobs = gen.GenerateDay(0);
  const auto& job = jobs[0];
  Rng r1(5), r2(5);
  auto a = SampleFailure(job, 3600.0, &r1);
  auto b = SampleFailure(job, 3600.0, &r2);
  EXPECT_EQ(a.failed, b.failed);
  if (a.failed) {
    EXPECT_EQ(a.stage, b.stage);
    EXPECT_DOUBLE_EQ(a.time, b.time);
    EXPECT_GE(a.time, 0.0);
    EXPECT_LE(a.time, job.JobRuntime() + 1e-9);
  }
}

TEST(FailureTest, SampleFrequencyTracksAnalyticProbability) {
  auto gen = MakeGen();
  auto jobs = gen.GenerateDay(0);
  const auto& job = jobs[0];
  double mtbf = 3600.0 * 4;
  FailureModel fm(job, mtbf);
  Rng rng(99);
  int fails = 0, trials = 4000;
  for (int i = 0; i < trials; ++i) fails += SampleFailure(job, mtbf, &rng).failed;
  EXPECT_NEAR(static_cast<double>(fails) / trials, fm.JobFailureProb(), 0.03);
}

// ---------- Impact ----------

TEST(ImpactTest, EmptyCutZeroImpact) {
  auto gen = MakeGen();
  auto jobs = gen.GenerateDay(0);
  auto r = EvaluateImpact(jobs[0], CutSet{}, ClusterConfig{});
  EXPECT_DOUBLE_EQ(r.latency_increase, 0.0);
  EXPECT_DOUBLE_EQ(r.io_increase, 0.0);
  EXPECT_DOUBLE_EQ(r.checkpointed_bytes, 0.0);
  EXPECT_DOUBLE_EQ(r.new_latency, r.base_latency);
}

TEST(ImpactTest, CheckpointingCostsIoButBounded) {
  auto gen = MakeGen();
  auto jobs = gen.GenerateDay(0);
  ClusterConfig cfg;
  for (const auto& job : jobs) {
    if (job.graph.num_stages() < 4) continue;
    CutSet cut = HalfCut(job);
    auto r = EvaluateImpact(job, cut, cfg);
    EXPECT_GE(r.new_latency, r.base_latency);
    // "Free cuts" along disjoint components persist nothing; otherwise
    // checkpoint writes must add IO.
    if (CheckpointStages(job.graph, cut).empty()) {
      EXPECT_DOUBLE_EQ(r.new_io_seconds, r.base_io_seconds);
    } else {
      EXPECT_GT(r.new_io_seconds, r.base_io_seconds);
    }
    EXPECT_GE(r.latency_increase, 0.0);
    EXPECT_GE(r.checkpointed_bytes, 0.0);
    EXPECT_GE(r.checkpointed_fraction, 0.0);
    EXPECT_LE(r.checkpointed_fraction, 1.0);
    EXPECT_GE(r.temp_saving_fraction, 0.0);
    EXPECT_LE(r.temp_saving_fraction, 1.0);
  }
}

TEST(ImpactTest, HigherReplicationCostsMore) {
  auto gen = MakeGen();
  auto jobs = gen.GenerateDay(0);
  const auto& job = jobs[0];
  CutSet cut = HalfCut(job);
  ClusterConfig r1;
  r1.global_replication = 1;
  ClusterConfig r3;
  r3.global_replication = 3;
  auto a = EvaluateImpact(job, cut, r1);
  auto b = EvaluateImpact(job, cut, r3);
  EXPECT_LE(a.new_io_seconds, b.new_io_seconds);
}

// ---------- Recovery line / restart metrics ----------

TEST(RecoveryLineTest, MatchesMinTfsOfAfterCut) {
  auto gen = MakeGen();
  auto jobs = gen.GenerateDay(0);
  for (const auto& job : jobs) {
    if (job.graph.num_stages() < 4) continue;
    FailureModel fm(job, 12 * 3600.0);
    CutSet cut = HalfCut(job);
    double expected = 1e300;
    for (size_t u = 0; u < cut.before_cut.size(); ++u) {
      if (!cut.before_cut[u]) expected = std::min(expected, job.truth[u].tfs);
    }
    EXPECT_DOUBLE_EQ(fm.RecoveryLine(cut), expected);
    // Empty cut: everything is "after", line = global min TFS (some root ~0).
    EXPECT_GE(fm.RecoveryLine(CutSet{}), 0.0);
  }
}

TEST(RestartSavingTest, BoundsAndEmptyCut) {
  auto gen = MakeGen();
  auto jobs = gen.GenerateDay(0);
  for (const auto& job : jobs) {
    if (job.graph.num_stages() < 4) continue;
    FailureModel fm(job, 12 * 3600.0);
    CutSet cut = HalfCut(job);
    double s = fm.RestartSavingFraction(cut);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
    EXPECT_DOUBLE_EQ(fm.RestartSavingFraction(CutSet{}), 0.0);
  }
}

TEST(RestartSavingTest, LaterLineSavesMore) {
  // Hand-built chain: a -> b -> c -> d with spaced starts. Cutting after
  // more stages raises the recovery line and the saving.
  workload::JobInstance job;
  for (int i = 0; i < 4; ++i) {
    dag::Stage s;
    s.name = "s" + std::to_string(i);
    s.operators = {dag::OperatorKind::kFilter};
    s.num_tasks = 10;
    job.graph.AddStage(std::move(s));
  }
  job.graph.AddEdge(0, 1).Check();
  job.graph.AddEdge(1, 2).Check();
  job.graph.AddEdge(2, 3).Check();
  job.truth.resize(4);
  for (int i = 0; i < 4; ++i) {
    auto& t = job.truth[static_cast<size_t>(i)];
    t.exec_seconds = t.wall_seconds = 100;
    t.start_time = t.tfs = 100.0 * i;
    t.end_time = t.start_time + 100;
    t.ttl = 400 - t.end_time;
    t.num_tasks = 10;
    t.output_bytes = 1e9;
    t.input_bytes = 1e9;
  }
  FailureModel fm(job, 3600.0);
  CutSet one, two;
  one.before_cut = {true, false, false, false};
  two.before_cut = {true, true, false, false};
  EXPECT_DOUBLE_EQ(fm.RecoveryLine(one), 100.0);
  EXPECT_DOUBLE_EQ(fm.RecoveryLine(two), 200.0);
  EXPECT_GT(fm.RestartSavingFraction(two), fm.RestartSavingFraction(one));
}

// ---------- Placement policies ----------

TEST(PlacementTest, LeastLoadedLevelsPeaksWithoutChangingTotals) {
  auto gen = MakeGen(9);
  auto jobs = gen.GenerateDay(0);
  // Compress the day so machines hold several stages concurrently.
  for (auto& job : jobs) job.submit_time *= 0.05;

  ClusterConfig random_cfg;
  random_cfg.num_machines = 30;
  ClusterConfig aware_cfg = random_cfg;
  aware_cfg.placement = Placement::kLeastLoaded;

  auto random_report = ClusterSimulator(random_cfg).SimulateTempUsage(jobs);
  auto aware_report = ClusterSimulator(aware_cfg).SimulateTempUsage(jobs);

  // Placement cannot change how much temp data exists over time.
  EXPECT_NEAR(aware_report.total_byte_seconds, random_report.total_byte_seconds,
              1e-6 * random_report.total_byte_seconds);
  EXPECT_NEAR(aware_report.fleet_peak_bytes, random_report.fleet_peak_bytes,
              1e-6 * random_report.fleet_peak_bytes);

  // But it levels the per-machine peaks.
  auto worst = [](const TempUsageReport& r) {
    double w = 0;
    for (double p : r.peak_bytes) w = std::max(w, p);
    return w;
  };
  EXPECT_LT(worst(aware_report), worst(random_report));
}

TEST(PlacementTest, ByteSecondsIntegralMatchesManualSum) {
  // Total byte-seconds must equal sum over stages of bytes * residency,
  // independent of placement.
  auto gen = MakeGen(10);
  auto jobs = gen.GenerateDay(0);
  double expected = 0.0;
  for (const auto& job : jobs) {
    double job_end = job.JobRuntime();
    for (const auto& t : job.truth) {
      expected += t.output_bytes * std::max(0.0, job_end - t.end_time);
    }
  }
  for (Placement p : {Placement::kRandomSpread, Placement::kLeastLoaded}) {
    ClusterConfig cfg;
    cfg.num_machines = 20;
    cfg.placement = p;
    auto report = ClusterSimulator(cfg).SimulateTempUsage(jobs);
    EXPECT_NEAR(report.total_byte_seconds, expected, 1e-6 * expected);
  }
}

// ---------- Monte-Carlo recovery replay ----------

TEST(ReplayTest, DeterministicAndConsistent) {
  auto gen = MakeGen();
  auto jobs = gen.GenerateDay(0);
  const auto& job = jobs[0];
  CutSet cut = HalfCut(job);
  Rng r1(11), r2(11);
  auto a = ReplayRecovery(job, cut, 3600.0, 200, &r1);
  auto b = ReplayRecovery(job, cut, 3600.0, 200, &r2);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_DOUBLE_EQ(a.saving_fraction, b.saving_fraction);
  EXPECT_EQ(a.trials, 200);
  EXPECT_LE(a.helped, a.failures);
  EXPECT_LE(a.mean_wasted_ckpt, a.mean_wasted_scratch + 1e-9);
}

TEST(ReplayTest, EmptyCutSavesNothing) {
  auto gen = MakeGen();
  auto jobs = gen.GenerateDay(0);
  Rng rng(12);
  auto r = ReplayRecovery(jobs[0], CutSet{}, 3600.0, 200, &rng);
  if (r.failures > 0) {
    EXPECT_DOUBLE_EQ(r.mean_wasted_ckpt, r.mean_wasted_scratch);
    EXPECT_DOUBLE_EQ(r.saving_fraction, 0.0);
    EXPECT_EQ(r.helped, 0);
  }
}

TEST(ReplayTest, MonteCarloTracksAnalyticOnHelpedFailures) {
  // On the hand-built serialized chain (from RestartSavingTest), the MC
  // replay conditioned on helped failures should approach the analytic
  // RestartSavingFraction.
  workload::JobInstance job;
  for (int i = 0; i < 4; ++i) {
    dag::Stage s;
    s.name = "s" + std::to_string(i);
    s.operators = {dag::OperatorKind::kFilter};
    s.num_tasks = 10;
    job.graph.AddStage(std::move(s));
  }
  job.graph.AddEdge(0, 1).Check();
  job.graph.AddEdge(1, 2).Check();
  job.graph.AddEdge(2, 3).Check();
  job.truth.resize(4);
  for (int i = 0; i < 4; ++i) {
    auto& t = job.truth[static_cast<size_t>(i)];
    t.exec_seconds = t.wall_seconds = 100;
    t.start_time = t.tfs = 100.0 * i;
    t.end_time = t.start_time + 100;
    t.ttl = 400 - t.end_time;
    t.num_tasks = 10;
    t.output_bytes = 1e9;
    t.input_bytes = 1e9;
  }
  CutSet cut;
  cut.before_cut = {true, true, false, false};
  FailureModel fm(job, 3600.0 * 3);
  Rng rng(13);
  auto r = ReplayRecovery(job, cut, 3600.0 * 3, 20000, &rng);
  ASSERT_GT(r.helped, 100);
  // Conditional MC saving on helped failures: line / E[t | helped]; analytic
  // uses E[end of failed stage]; both should be within a loose band.
  EXPECT_NEAR(r.saving_fraction, fm.RestartSavingFraction(cut), 0.25);
  EXPECT_GT(r.saving_fraction, 0.2);
}

}  // namespace
}  // namespace phoebe::cluster
