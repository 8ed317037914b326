// Tests for the workload substrate: the stage-type catalog, generator
// determinism, structural validity of generated DAGs, data-flow invariants,
// and temporal drift.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <span>

#include "common/stats.h"
#include "common/strings.h"
#include "workload/generator.h"
#include "workload/stage_type.h"
#include "workload/trace.h"

namespace phoebe::workload {
namespace {

WorkloadConfig SmallConfig(uint64_t seed = 42) {
  WorkloadConfig cfg;
  cfg.num_templates = 15;
  cfg.seed = seed;
  return cfg;
}

// ---------- Catalog ----------

TEST(CatalogTest, HasExactly33Types) {
  EXPECT_EQ(StageTypeCatalog().size(), static_cast<size_t>(kNumStageTypes));
}

TEST(CatalogTest, NamesUnique) {
  std::set<std::string> names;
  for (const auto& t : StageTypeCatalog()) names.insert(t.name);
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumStageTypes));
}

TEST(CatalogTest, RolesPartitionSensibly) {
  size_t total = SourceStageTypes().size() + SinkStageTypes().size() +
                 InteriorStageTypes().size();
  EXPECT_EQ(total, static_cast<size_t>(kNumStageTypes));
  EXPECT_GE(SourceStageTypes().size(), 3u);
  EXPECT_GE(SinkStageTypes().size(), 1u);
  for (const auto& t : StageTypeCatalog()) {
    if (t.needs_multi_input) {
      EXPECT_FALSE(t.is_source) << t.name;
    }
  }
}

TEST(CatalogTest, CoefficientsArePositive) {
  for (const auto& t : StageTypeCatalog()) {
    EXPECT_GT(t.sec_per_gb, 0) << t.name;
    EXPECT_GT(t.fixed_sec, 0) << t.name;
    EXPECT_GT(t.gb_per_task, 0) << t.name;
    EXPECT_GE(t.pipeline_overlap, 0) << t.name;
    EXPECT_LT(t.pipeline_overlap, 1) << t.name;
    EXPECT_FALSE(t.ops.empty()) << t.name;
  }
}

// ---------- Config validation ----------

TEST(ConfigTest, DefaultValid) { EXPECT_TRUE(WorkloadConfig{}.Validate().ok()); }

TEST(ConfigTest, RejectsBadValues) {
  WorkloadConfig cfg;
  cfg.num_templates = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = WorkloadConfig{};
  cfg.p_disjoint = 1.5;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = WorkloadConfig{};
  cfg.max_stages = 1;
  EXPECT_FALSE(cfg.Validate().ok());
}

// ---------- Generator structure ----------

TEST(GeneratorTest, TemplatesAreStructurallyValid) {
  WorkloadGenerator gen(SmallConfig());
  ASSERT_EQ(gen.templates().size(), 15u);
  for (const JobTemplate& t : gen.templates()) {
    EXPECT_TRUE(t.graph.Validate().ok()) << t.name;
    EXPECT_GE(t.graph.num_stages(), 3u);
    EXPECT_EQ(t.stages.size(), t.graph.num_stages());
    EXPECT_EQ(t.depth.size(), t.graph.num_stages());
    EXPECT_FALSE(t.name.empty());
    EXPECT_FALSE(t.input_name.empty());
    // Roots are sources; leaves are sinks; multi-input stages have >= 2 ups.
    const auto& catalog = StageTypeCatalog();
    for (dag::StageId u = 0; u < static_cast<dag::StageId>(t.graph.num_stages()); ++u) {
      const auto& info = catalog[static_cast<size_t>(t.graph.stage(u).stage_type)];
      if (t.graph.upstream(u).empty()) EXPECT_TRUE(info.is_source);
      if (info.needs_multi_input) EXPECT_GE(t.graph.upstream(u).size(), 2u);
      if (!info.is_sink) EXPECT_FALSE(t.graph.downstream(u).empty());
    }
  }
}

TEST(GeneratorTest, DeterministicAcrossInstances) {
  WorkloadGenerator a(SmallConfig(7)), b(SmallConfig(7));
  auto da = a.GenerateDay(0);
  auto db = b.GenerateDay(0);
  ASSERT_EQ(da.size(), db.size());
  for (size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].job_id, db[i].job_id);
    EXPECT_EQ(da[i].template_id, db[i].template_id);
    ASSERT_EQ(da[i].truth.size(), db[i].truth.size());
    for (size_t s = 0; s < da[i].truth.size(); ++s) {
      EXPECT_DOUBLE_EQ(da[i].truth[s].exec_seconds, db[i].truth[s].exec_seconds);
      EXPECT_DOUBLE_EQ(da[i].est[s].est_output_bytes, db[i].est[s].est_output_bytes);
    }
  }
}

TEST(GeneratorTest, RegeneratingSameDayIsIdentical) {
  WorkloadGenerator gen(SmallConfig(9));
  auto first = gen.GenerateDay(3);
  auto second = gen.GenerateDay(3);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i].truth[0].input_bytes, second[i].truth[0].input_bytes);
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  WorkloadGenerator a(SmallConfig(1)), b(SmallConfig(2));
  auto da = a.GenerateDay(0), db = b.GenerateDay(0);
  bool differs = da.size() != db.size();
  if (!differs && !da.empty() && !da[0].truth.empty() && !db[0].truth.empty()) {
    differs = da[0].truth[0].input_bytes != db[0].truth[0].input_bytes;
  }
  EXPECT_TRUE(differs);
}

// ---------- Instance invariants (property over generated days) ----------

class InstanceInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(InstanceInvariantTest, TruthAndEstimatesWellFormed) {
  WorkloadConfig cfg = SmallConfig(static_cast<uint64_t>(GetParam()) + 100);
  cfg.num_templates = 8;
  WorkloadGenerator gen(cfg);
  auto jobs = gen.GenerateDay(GetParam() % 4);
  ASSERT_FALSE(jobs.empty());
  for (const JobInstance& job : jobs) {
    ASSERT_EQ(job.truth.size(), job.graph.num_stages());
    ASSERT_EQ(job.est.size(), job.graph.num_stages());
    // TTLs are measured against a common release instant at/after the last
    // stage end (the finalization phase holds temp data slightly longer).
    double job_end = job.JobRuntime();
    double release = job.truth[0].end_time + job.truth[0].ttl;
    EXPECT_GE(release, job_end - 1e-6);
    EXPECT_LE(release, job_end * 6.0 + 60.0);  // finalization is bounded in practice
    for (size_t u = 0; u < job.truth.size(); ++u) {
      const StageTruth& t = job.truth[u];
      EXPECT_GT(t.input_bytes, 0.0);
      EXPECT_GT(t.output_bytes, 0.0);
      EXPECT_GT(t.exec_seconds, 0.0);
      EXPECT_GE(t.num_tasks, 1);
      EXPECT_GE(t.start_time, 0.0);
      EXPECT_GE(t.wall_seconds, t.exec_seconds);
      EXPECT_NEAR(t.end_time, t.start_time + t.wall_seconds, 1e-9);
      EXPECT_NEAR(t.ttl, release - t.end_time, 1e-6);
      EXPECT_DOUBLE_EQ(t.tfs, t.start_time);
      EXPECT_GE(t.ttl, -1e-9);
      // Non-root input equals the sum of upstream outputs.
      const auto& ups = job.graph.upstream(static_cast<dag::StageId>(u));
      if (!ups.empty()) {
        double sum = 0.0;
        for (dag::StageId up : ups) sum += job.truth[static_cast<size_t>(up)].output_bytes;
        EXPECT_NEAR(t.input_bytes, std::max(sum, 1e3), 1.0);
      }
      const StageEstimates& e = job.est[u];
      EXPECT_GT(e.est_output_bytes, 0.0);
      EXPECT_GE(e.est_cardinality, 1.0);
      EXPECT_GE(e.est_input_cardinality, 1.0);
      EXPECT_GT(e.est_exclusive_cost, 0.0);
      EXPECT_GE(e.est_cost, e.est_exclusive_cost);
      // Graph task counts published from truth.
      EXPECT_EQ(job.graph.stage(static_cast<dag::StageId>(u)).num_tasks, t.num_tasks);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InstanceInvariantTest, ::testing::Range(0, 8));

// ---------- Estimate-channel error structure ----------

TEST(EstimateChannelTest, ErrorsAreLargeButCorrelated) {
  WorkloadConfig cfg = SmallConfig(77);
  cfg.num_templates = 30;
  WorkloadGenerator gen(cfg);
  auto jobs = gen.GenerateDay(0);
  std::vector<double> qerrs;
  std::vector<double> log_true, log_est;
  for (const JobInstance& job : jobs) {
    for (size_t u = 0; u < job.truth.size(); ++u) {
      qerrs.push_back(QError(job.truth[u].output_bytes, job.est[u].est_output_bytes));
      log_true.push_back(std::log(job.truth[u].output_bytes));
      log_est.push_back(std::log(job.est[u].est_output_bytes));
    }
  }
  // Optimizer estimates are off: median QError well above 1.5, tail beyond 10x.
  EXPECT_GT(Median(qerrs), 1.5);
  EXPECT_GT(Quantile(qerrs, 0.95), 10.0);
  // But they still carry signal.
  EXPECT_GT(PearsonCorrelation(log_true, log_est), 0.5);
}

TEST(EstimateChannelTest, ErrorCompoundsWithDepth) {
  WorkloadConfig cfg = SmallConfig(78);
  cfg.num_templates = 30;
  WorkloadGenerator gen(cfg);
  auto jobs = gen.GenerateDay(0);
  RunningStats shallow, deep;
  for (const JobInstance& job : jobs) {
    const JobTemplate& tmpl = gen.templates()[static_cast<size_t>(job.template_id)];
    for (size_t u = 0; u < job.truth.size(); ++u) {
      double q = QError(job.truth[u].output_bytes, job.est[u].est_output_bytes);
      if (tmpl.depth[u] <= 2) shallow.Add(std::log(q));
      else if (tmpl.depth[u] >= 5) deep.Add(std::log(q));
    }
  }
  if (shallow.count() > 20 && deep.count() > 20) {
    EXPECT_GT(deep.mean(), shallow.mean());
  }
}

// ---------- Temporal behaviour ----------

TEST(DriftTest, InputScaleGrowsOverTwoYears) {
  WorkloadGenerator gen(SmallConfig(5));
  // Average over a week to cancel seasonality.
  auto weekly_avg = [&](int day0) {
    double s = 0;
    for (int d = 0; d < 7; ++d) s += gen.InputScale(day0 + d);
    return s / 7;
  };
  double growth = weekly_avg(730) / weekly_avg(0);
  EXPECT_GT(growth, 1.6);
  EXPECT_LT(growth, 2.1);
}

TEST(DriftTest, WeeklySeasonalityPresent) {
  WorkloadGenerator gen(SmallConfig(5));
  double lo = 1e9, hi = 0;
  for (int d = 0; d < 7; ++d) {
    lo = std::min(lo, gen.InputScale(d));
    hi = std::max(hi, gen.InputScale(d));
  }
  EXPECT_GT(hi / lo, 1.1);
}

TEST(DriftTest, RecurrencePersistsAcrossDays) {
  WorkloadGenerator gen(SmallConfig(6));
  std::set<int> day0_templates, day3_templates;
  for (const auto& j : gen.GenerateDay(0)) day0_templates.insert(j.template_id);
  for (const auto& j : gen.GenerateDay(3)) day3_templates.insert(j.template_id);
  // Most templates recur (paper: > 70% recurrent workload).
  std::set<int> inter;
  for (int t : day0_templates) {
    if (day3_templates.count(t)) inter.insert(t);
  }
  EXPECT_GT(static_cast<double>(inter.size()),
            0.5 * static_cast<double>(day0_templates.size()));
}

TEST(DriftTest, HeavyTailedJobSizes) {
  WorkloadConfig cfg = SmallConfig(13);
  cfg.num_templates = 60;
  WorkloadGenerator gen(cfg);
  std::vector<double> sizes;
  for (const auto& t : gen.templates()) {
    sizes.push_back(static_cast<double>(t.graph.num_stages()));
  }
  double med = Median(sizes);
  double p95 = Quantile(sizes, 0.95);
  EXPECT_GT(p95 / med, 2.0);  // tail well beyond the median
}

TEST(DriftTest, DriftStaysBoundedOverTwoYears) {
  // The parameter walk is mean-reverting: two-year-apart jobs of the same
  // template must stay within one order of magnitude in per-stage cost after
  // removing the deterministic input growth.
  WorkloadConfig cfg = SmallConfig(23);
  cfg.num_templates = 10;
  WorkloadGenerator gen(cfg);
  auto early = gen.GenerateDay(0);
  auto late = gen.GenerateDay(730);
  RunningStats early_rate, late_rate;
  auto fold = [&](const std::vector<JobInstance>& jobs, RunningStats* out, int day) {
    double scale = gen.InputScale(day);
    for (const auto& j : jobs) {
      for (const auto& t : j.truth) {
        out->Add(std::log(t.exec_seconds / scale));
      }
    }
  };
  fold(early, &early_rate, 0);
  fold(late, &late_rate, 730);
  EXPECT_LT(std::abs(late_rate.mean() - early_rate.mean()), 1.0);  // < e^1 drift
}

TEST(JobInstanceTest, AggregateHelpers) {
  WorkloadGenerator gen(SmallConfig(21));
  auto jobs = gen.GenerateDay(0);
  ASSERT_FALSE(jobs.empty());
  const JobInstance& job = jobs[0];
  double bytes = 0, bs = 0;
  int tasks = 0;
  for (const StageTruth& t : job.truth) {
    bytes += t.output_bytes;
    bs += t.output_bytes * t.ttl;
    tasks += t.num_tasks;
  }
  EXPECT_DOUBLE_EQ(job.TotalTempBytes(), bytes);
  EXPECT_DOUBLE_EQ(job.TempByteSeconds(), bs);
  EXPECT_EQ(job.TotalTasks(), tasks);
  EXPECT_GT(job.JobRuntime(), 0.0);
}

// ---------- Trace (de)serialization ----------

// Status-first parse helper for the rejection cases below.
Status ParseTraceText(std::string_view text) {
  std::vector<JobInstance> jobs;
  return ParseTrace(text, &jobs);
}

TEST(TraceTest, RoundTrip) {
  WorkloadGenerator gen(SmallConfig(31));
  auto jobs = gen.GenerateDay(0);
  ASSERT_FALSE(jobs.empty());
  std::string text = SerializeTrace(jobs);
  std::vector<JobInstance> parsed;
  Status st = ParseTrace(std::string_view(text), &parsed);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(parsed.size(), jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    const JobInstance& a = jobs[j];
    const JobInstance& b = parsed[j];
    EXPECT_EQ(a.job_id, b.job_id);
    EXPECT_EQ(a.template_id, b.template_id);
    EXPECT_EQ(a.day, b.day);
    EXPECT_EQ(a.job_name, b.job_name);
    EXPECT_EQ(a.norm_input_name, b.norm_input_name);
    ASSERT_EQ(a.graph.num_stages(), b.graph.num_stages());
    ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges());
    for (size_t st = 0; st < a.truth.size(); ++st) {
      EXPECT_DOUBLE_EQ(a.truth[st].input_bytes, b.truth[st].input_bytes);
      EXPECT_DOUBLE_EQ(a.truth[st].exec_seconds, b.truth[st].exec_seconds);
      EXPECT_DOUBLE_EQ(a.truth[st].wall_seconds, b.truth[st].wall_seconds);
      EXPECT_DOUBLE_EQ(a.truth[st].ttl, b.truth[st].ttl);
      EXPECT_EQ(a.truth[st].num_tasks, b.truth[st].num_tasks);
      EXPECT_DOUBLE_EQ(a.est[st].est_cost, b.est[st].est_cost);
      EXPECT_DOUBLE_EQ(a.est[st].est_output_bytes, b.est[st].est_output_bytes);
    }
  }
  // Serialization is stable (idempotent through a round trip).
  EXPECT_EQ(SerializeTrace(parsed), text);
}

TEST(TraceTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseTraceText("").ok());
  EXPECT_FALSE(ParseTraceText("trace v2 1\n").ok());
  EXPECT_FALSE(ParseTraceText("trace v1 1\n").ok());  // missing job
  EXPECT_FALSE(
      ParseTraceText("trace v1 1\nbeginjob 1 0 0 0 a b\nendgraph\n").ok());
  // Truncated truth block.
  WorkloadGenerator gen(SmallConfig(32));
  auto jobs = gen.GenerateDay(0);
  std::string text = SerializeTrace({jobs[0]});
  size_t pos = text.find("truth ");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_FALSE(ParseTraceText(text.substr(0, pos)).ok());
}

TEST(TraceTest, NumericFieldsAreThePrintfBytes) {
  // The writer no longer goes through printf, but its bytes must be exactly
  // what "%.17g"/"%d" produced: rebuild a generated day with StrFormat and
  // compare the whole document.
  WorkloadGenerator gen(SmallConfig(33));
  auto jobs = gen.GenerateDay(3);
  ASSERT_FALSE(jobs.empty());
  std::string reference = StrFormat("trace v1 %zu\n", jobs.size());
  for (const JobInstance& job : jobs) {
    reference += StrFormat("beginjob %lld %d %d %.17g %s %s\n",
                           static_cast<long long>(job.job_id), job.template_id, job.day,
                           job.submit_time, job.job_name.c_str(),
                           job.norm_input_name.c_str());
    reference += "job " + job.graph.name() + "\n";
    for (const dag::Stage& s : job.graph.stages()) {
      std::vector<std::string> ops;
      for (dag::OperatorKind k : s.operators) ops.push_back(dag::OperatorKindName(k));
      reference += StrFormat("stage %s %d %d %s\n", s.name.c_str(), s.stage_type,
                             s.num_tasks, Join(ops, ",").c_str());
    }
    for (const dag::Edge& e : job.graph.edges()) {
      reference += StrFormat("edge %d %d\n", e.from, e.to);
    }
    reference += "endgraph\n";
    for (const StageTruth& t : job.truth) {
      reference += StrFormat("truth %.17g %.17g %.17g %.17g %d %.17g %.17g %.17g %.17g\n",
                             t.input_bytes, t.output_bytes, t.exec_seconds,
                             t.wall_seconds, t.num_tasks, t.start_time, t.end_time, t.ttl,
                             t.tfs);
    }
    for (const StageEstimates& e : job.est) {
      reference += StrFormat("est %.17g %.17g %.17g %.17g %.17g\n", e.est_cost,
                             e.est_exclusive_cost, e.est_input_cardinality,
                             e.est_cardinality, e.est_output_bytes);
    }
    reference += "endjob\n";
  }
  EXPECT_EQ(SerializeTrace(jobs), reference);
}

TEST(TraceTest, AppendTraceAppendsTheSerializeTraceBytes) {
  WorkloadGenerator gen(SmallConfig(34));
  auto jobs = gen.GenerateDay(0);
  ASSERT_GE(jobs.size(), 2u);
  std::string out = "prefix\n";
  AppendTrace(std::span<const JobInstance>(jobs.data(), 2), &out);
  EXPECT_EQ(out, "prefix\n" + SerializeTrace({jobs[0], jobs[1]}));
}

TEST(TraceTest, GraphBlockToleratesBlankLinesAndCarriageReturns) {
  // The graph block is handed to JobGraph::FromText as a view of the trace,
  // so FromText's leniency (blank lines, trailing CR) applies inside it.
  WorkloadGenerator gen(SmallConfig(35));
  const std::string text = SerializeTrace({gen.GenerateDay(0).front()});
  const size_t graph = text.find("\njob ") + 1;
  const size_t first_stage = text.find("\nstage ", graph) + 1;
  std::string lenient = text;
  lenient.insert(first_stage, "\n  \n\r\n");
  lenient.insert(text.find('\n', graph), "\r");
  std::vector<JobInstance> parsed;
  Status st = ParseTrace(lenient, &parsed);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(SerializeTrace(parsed), text);
}

TEST(TraceTest, NarrowedNumericTokensAreRejected) {
  WorkloadGenerator gen(SmallConfig(36));
  const std::string text = SerializeTrace({gen.GenerateDay(0).front()});
  // Replace the first truth field: strtod took "+1" and "0x1p3"; from_chars
  // (the only parser now) does not, and 1e999 is out of range either way.
  const size_t field = text.find("\ntruth ") + 7;
  const size_t end = text.find(' ', field);
  for (const char* token : {"+1", "0x1p3", "1e999", "nan", "1e-400"}) {
    std::string bad = text;
    bad.replace(field, end - field, token);
    EXPECT_FALSE(ParseTraceText(bad).ok()) << token;
  }
  std::string crlf = text;
  crlf.insert(crlf.find('\n', field), "\r");  // CR ends a truth field: junk
  EXPECT_FALSE(ParseTraceText(crlf).ok());
}

TEST(TraceTest, EmptyTraceIsValid) {
  std::vector<JobInstance> parsed;
  ASSERT_TRUE(ParseTrace(std::string_view("trace v1 0\n"), &parsed).ok());
  EXPECT_TRUE(parsed.empty());
}

}  // namespace
}  // namespace phoebe::workload
