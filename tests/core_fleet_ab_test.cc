// Tests for the differential fleet A/B harness: every arm's report must be
// byte-identical to a standalone FleetDriver run under that arm's config,
// the paired report must be byte-identical across thread counts, cache
// modes, and shard counts (via v3 per-arm blob sections), identical arms
// must diff to zero, and the paired-report text format must round-trip and
// parse strictly.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "core/fleet_ab.h"
#include "core/fleet_shard.h"
#include "core/pipeline.h"
#include "telemetry/repository.h"
#include "workload/generator.h"

namespace phoebe::core {
namespace {

constexpr int kTrainDays = 3;
constexpr int kFleetDays = 4;  ///< test days kTrainDays..kTrainDays+3

/// The per-arm loop every A/B caller runs (`phoebe fleet-ab`, the A/B
/// bench): one FleetDriver per arm; each day every arm decides (or takes
/// precomputed decisions) and replays cache + admission, and
/// BuildAbDayComparison pairs the results. Every arm decides the same jobs.
class AbArms {
 public:
  struct Day {
    AbDayComparison comparison;
    std::vector<FleetDayReport> reports;  ///< per arm
  };

  void Add(std::string name, const FleetConfig& cfg, const DecisionEngine* engine,
           uint32_t checksum) {
    specs_.push_back({std::move(name), checksum});
    drivers_.push_back(std::make_unique<FleetDriver>(engine, cfg));
  }

  size_t size() const { return drivers_.size(); }

  void Calibrate(const std::vector<workload::JobInstance>& jobs,
                 const telemetry::HistoricStats& stats) {
    for (auto& driver : drivers_) driver->Calibrate(jobs, stats).Check();
  }

  /// Decide phase of arm k only (what a shard process runs).
  FleetDayDecisions Decide(size_t k, const std::vector<workload::JobInstance>& jobs,
                           const telemetry::HistoricStats& stats) const {
    auto decisions = drivers_[k]->DecideDay(jobs, stats);
    decisions.status().Check();
    return std::move(*decisions);
  }

  /// One day under every arm; `precomputed` (one entry per arm) replaces the
  /// decide phase, as a shard merge does.
  Result<Day> RunDay(int day, const std::vector<workload::JobInstance>& jobs,
                     const telemetry::HistoricStats& stats,
                     std::vector<FleetDayDecisions> precomputed = {}) {
    const bool replay = !precomputed.empty();
    std::vector<FleetDayDecisions> decisions;
    Day out;
    for (size_t k = 0; k < size(); ++k) {
      decisions.push_back(replay ? std::move(precomputed[k]) : Decide(k, jobs, stats));
      PHOEBE_ASSIGN_OR_RETURN(FleetDayReport report,
                              drivers_[k]->ReplayDay(jobs, stats, decisions.back()));
      out.reports.push_back(std::move(report));
    }
    PHOEBE_ASSIGN_OR_RETURN(
        out.comparison,
        BuildAbDayComparison(
            day, specs_, std::vector<const std::vector<workload::JobInstance>*>(size(), &jobs),
            decisions, out.reports));
    return out;
  }

 private:
  std::vector<FleetArmSpec> specs_;
  std::vector<std::unique_ptr<FleetDriver>> drivers_;
};

class FleetAbFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::WorkloadConfig cfg;
    cfg.num_templates = 16;
    cfg.seed = 77;
    gen_ = new workload::WorkloadGenerator(cfg);
    repo_ = new telemetry::WorkloadRepository();
    for (int d = 0; d < kTrainDays + kFleetDays; ++d) {
      repo_->AddDay(d, gen_->GenerateDay(d)).Check();
    }
    PipelineConfig cfg2 = PhoebePipeline::DefaultConfig();
    cfg2.exec_predictor.gbdt.num_trees = 20;
    cfg2.size_predictor.gbdt.num_trees = 20;
    cfg2.ttl.gbdt.num_trees = 20;
    pipeline_ = new PhoebePipeline(cfg2);
    pipeline_->Train(*repo_, 0, kTrainDays).Check();
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete repo_;
    delete gen_;
  }

  static const std::vector<workload::JobInstance>& FleetDay(int d) {
    return repo_->Day(kTrainDays + d);
  }
  static telemetry::HistoricStats FleetStats(int d) {
    return repo_->StatsBefore(kTrainDays + d);
  }

  /// Two arms over the shared bundle: the baseline config and a two-cut
  /// variant (guaranteed to flip decisions, so diffs are non-trivial).
  static AbArms TwoArms(const FleetConfig& base) {
    FleetConfig twocut = base;
    twocut.num_cuts = 2;
    const uint32_t checksum = pipeline_->bundle()->checksum();
    AbArms arms;
    arms.Add("base", base, &pipeline_->engine(), checksum);
    arms.Add("twocut", twocut, &pipeline_->engine(), checksum);
    return arms;
  }

  /// The serialized paired report of a full run under the given knobs.
  /// shard_count > 1 routes every arm's decide phase through the v3 blob
  /// protocol (serialize -> parse -> combine -> ReplayDay), exactly like N
  /// shard processes plus a merge.
  static std::string PairedReport(int threads, bool cache, int shard_count,
                                  bool budgeted) {
    FleetConfig base;
    base.num_threads = threads;
    if (cache) {
      base.template_cache.enabled = true;
      base.template_cache.capacity = 256;  // exact mode: byte-neutral
    }
    if (budgeted) base.storage_budget_bytes = 40e9;
    AbArms arms = TwoArms(base);
    if (budgeted) arms.Calibrate(FleetDay(-1), FleetStats(-1));

    std::vector<AbDayComparison> days;
    if (shard_count == 1) {
      for (int d = 0; d < kFleetDays; ++d) {
        auto result = arms.RunDay(d, FleetDay(d), FleetStats(d));
        result.status().Check();
        days.push_back(std::move(result->comparison));
      }
      return SerializeAbReport(days);
    }

    const uint32_t checksum = pipeline_->bundle()->checksum();
    std::vector<FleetShardBlob> blobs;
    for (int s = 0; s < shard_count; ++s) {
      // Fresh drivers per shard, exactly like an independent process.
      AbArms shard_arms = TwoArms(base);
      std::map<int, FleetDayDecisions> day_records;
      std::map<int, std::map<int, FleetDayDecisions>> arm_days;
      for (int d = 0; d < kFleetDays; ++d) {
        if (!ShardOwnsDay(d, s, shard_count)) continue;
        day_records.emplace(d, shard_arms.Decide(0, FleetDay(d), FleetStats(d)));
        arm_days[d].emplace(1, shard_arms.Decide(1, FleetDay(d), FleetStats(d)));
      }
      FleetShardHeader header{s, shard_count, kFleetDays, checksum};
      auto text = SerializeFleetShard(header, day_records, &arm_days);
      text.status().Check();
      auto parsed = ParseFleetShard(*text);  // round-trip through the file form
      parsed.status().Check();
      blobs.push_back(std::move(*parsed));
    }
    auto merged = CombineFleetShards(blobs, checksum);
    merged.status().Check();
    for (int d = 0; d < kFleetDays; ++d) {
      std::vector<FleetDayDecisions> precomputed;
      precomputed.push_back(std::move(merged->days.at(d)));
      precomputed.push_back(std::move(merged->arm_days.at(d).at(1)));
      auto result = arms.RunDay(d, FleetDay(d), FleetStats(d), std::move(precomputed));
      result.status().Check();
      days.push_back(std::move(result->comparison));
    }
    return SerializeAbReport(days);
  }

  static workload::WorkloadGenerator* gen_;
  static telemetry::WorkloadRepository* repo_;
  static PhoebePipeline* pipeline_;
};

workload::WorkloadGenerator* FleetAbFixture::gen_ = nullptr;
telemetry::WorkloadRepository* FleetAbFixture::repo_ = nullptr;
PhoebePipeline* FleetAbFixture::pipeline_ = nullptr;

// Each arm's FleetDayReport inside an A/B run (DecideDay + ReplayDay) is
// byte-identical to the report a standalone FleetDriver produces with RunDay
// under that arm's engine and config — unbudgeted and budgeted.
TEST_F(FleetAbFixture, FleetAbArmReportsMatchStandaloneDriverBytes) {
  for (bool budgeted : {false, true}) {
    FleetConfig base;
    if (budgeted) base.storage_budget_bytes = 40e9;
    FleetConfig twocut = base;
    twocut.num_cuts = 2;
    AbArms ab = TwoArms(base);
    FleetDriver solo_base(&pipeline_->engine(), base);
    FleetDriver solo_twocut(&pipeline_->engine(), twocut);
    if (budgeted) {
      const auto& history = FleetDay(-1);
      auto history_stats = FleetStats(-1);
      ab.Calibrate(history, history_stats);
      solo_base.Calibrate(history, history_stats).Check();
      solo_twocut.Calibrate(history, history_stats).Check();
    }
    for (int d = 0; d < kFleetDays; ++d) {
      const auto& jobs = FleetDay(d);
      auto stats = FleetStats(d);
      auto result = ab.RunDay(d, jobs, stats);
      result.status().Check();
      auto base_report = solo_base.RunDay(jobs, stats);
      base_report.status().Check();
      auto twocut_report = solo_twocut.RunDay(jobs, stats);
      twocut_report.status().Check();
      EXPECT_EQ(FleetDayReportJson(result->reports[0], d),
                FleetDayReportJson(*base_report, d))
          << "arm 0, day " << d << ", budgeted " << budgeted;
      EXPECT_EQ(FleetDayReportJson(result->reports[1], d),
                FleetDayReportJson(*twocut_report, d))
          << "arm 1, day " << d << ", budgeted " << budgeted;
    }
  }
}

// The paired report is byte-identical across the determinism matrix:
// threads {1,4} x template cache {off, exact} x shard counts {1,2}, with and
// without a budget. One baseline serialization pins all of it.
TEST_F(FleetAbFixture, FleetAbPairedReportByteIdenticalAcrossThreadsCacheShards) {
  for (bool budgeted : {false, true}) {
    const std::string baseline = PairedReport(1, false, 1, budgeted);
    ASSERT_FALSE(baseline.empty());
    for (int threads : {1, 4}) {
      for (bool cache : {false, true}) {
        for (int shards : {1, 2}) {
          EXPECT_EQ(baseline, PairedReport(threads, cache, shards, budgeted))
              << "threads " << threads << ", cache " << cache << ", shards "
              << shards << ", budgeted " << budgeted;
        }
      }
    }
  }
}

// Two arms over the same engine and config must diff to exactly zero: no
// decision flips, no admission flips, identical summaries.
TEST_F(FleetAbFixture, FleetAbIdenticalArmsProduceZeroDiff) {
  FleetConfig base;
  const uint32_t checksum = pipeline_->bundle()->checksum();
  AbArms arms;
  arms.Add("a", base, &pipeline_->engine(), checksum);
  arms.Add("b", base, &pipeline_->engine(), checksum);
  for (int d = 0; d < kFleetDays; ++d) {
    auto result = arms.RunDay(d, FleetDay(d), FleetStats(d));
    result.status().Check();
    const AbDayComparison& cmp = result->comparison;
    ASSERT_EQ(cmp.arms.size(), 2u);
    const AbArmDelta& delta = cmp.deltas[1];
    EXPECT_EQ(delta.decision_flips, 0) << "day " << d;
    EXPECT_EQ(delta.admission_flips, 0) << "day " << d;
    EXPECT_TRUE(delta.flipped_jobs.empty());
    EXPECT_TRUE(delta.admission_flipped.empty());
    EXPECT_EQ(delta.saving_delta, 0.0);
    EXPECT_EQ(delta.cost_delta, 0.0);
    EXPECT_EQ(cmp.arms[0].saving_fraction, cmp.arms[1].saving_fraction);
    EXPECT_EQ(cmp.arms[0].storage_used_bytes, cmp.arms[1].storage_used_bytes);
  }
}

// Serialize -> Parse -> Serialize is the identity on real comparisons, and
// the parser is strict: bad magic, truncation, and trailing bytes are all
// errors (exhaustive corruption is fuzz_fleet_ab_test's job).
TEST_F(FleetAbFixture, FleetAbReportRoundTripsAndParsesStrictly) {
  const std::string text = PairedReport(1, false, 1, /*budgeted=*/true);
  auto parsed = ParseAbReport(text);
  parsed.status().Check();
  EXPECT_EQ(SerializeAbReport(*parsed), text);
  ASSERT_EQ(parsed->size(), static_cast<size_t>(kFleetDays));
  EXPECT_EQ((*parsed)[0].arms.size(), 2u);

  EXPECT_FALSE(ParseAbReport("").ok());
  EXPECT_FALSE(ParseAbReport("phoebe_ab_report 2\nend_ab_report\n").ok());
  std::string bad_magic = text;
  bad_magic[0] = 'x';
  EXPECT_FALSE(ParseAbReport(bad_magic).ok());
  std::string truncated = text.substr(0, text.rfind("end_ab_report"));
  EXPECT_FALSE(ParseAbReport(truncated).ok());
  EXPECT_FALSE(ParseAbReport(text + "stray\n").ok());
}

// Arm-name validation: the comparison fails fast on an empty arm list,
// duplicate names, or a name that is not token-safe, through the same check
// the CLI runs before training. A single arm is legal at the library layer
// (the CLI enforces >= 2).
TEST_F(FleetAbFixture, FleetAbRejectsInvalidSpecs) {
  FleetDriver driver(&pipeline_->engine(), FleetConfig{});
  const auto& jobs = FleetDay(0);
  auto stats = FleetStats(0);
  auto decisions = driver.DecideDay(jobs, stats);
  decisions.status().Check();
  auto report = driver.ReplayDay(jobs, stats, *decisions);
  report.status().Check();
  auto compare = [&](const std::vector<FleetArmSpec>& specs) {
    const size_t n = specs.size();
    Status built =
        BuildAbDayComparison(0, specs,
                             std::vector<const std::vector<workload::JobInstance>*>(n, &jobs),
                             std::vector<FleetDayDecisions>(n, *decisions),
                             std::vector<FleetDayReport>(n, *report))
            .status();
    EXPECT_EQ(built.ok(), ValidateArmSpecs(specs).ok());
    return built;
  };
  EXPECT_FALSE(compare({}).ok());
  EXPECT_FALSE(compare({{"a", 0}, {"a", 0}}).ok());
  EXPECT_FALSE(compare({{"bad name", 0}}).ok());
  EXPECT_FALSE(compare({{"", 0}}).ok());
  EXPECT_TRUE(compare({{"solo", 0}}).ok());
}

}  // namespace
}  // namespace phoebe::core
