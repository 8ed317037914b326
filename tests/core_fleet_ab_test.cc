// Tests for the differential fleet A/B harness: every arm's report must be
// byte-identical to a standalone FleetDriver run under that arm's config,
// the paired report must be byte-identical across thread counts, cache
// modes, and shard counts (via v3 per-arm blob sections), identical arms
// must diff to zero, and the paired-report text format must round-trip and
// parse strictly.
#include <gtest/gtest.h>

#include <map>
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

/// One copy of `ctx` per arm: every arm decides the same jobs.
std::vector<DayContext> PerArm(const FleetAbDriver& driver, const DayContext& ctx) {
  return std::vector<DayContext>(driver.num_arms(), ctx);
}

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
  static std::vector<FleetArmSpec> TwoArms(const FleetConfig& base) {
    FleetConfig twocut = base;
    twocut.num_cuts = 2;
    const uint32_t checksum = pipeline_->bundle()->checksum();
    return {{"base", &pipeline_->engine(), base, checksum},
            {"twocut", &pipeline_->engine(), twocut, checksum}};
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
    FleetAbDriver driver(TwoArms(base));
    if (budgeted) {
      const auto& history = FleetDay(-1);
      auto history_stats = FleetStats(-1);
      driver.Calibrate(PerArm(driver, DayContext(-1, history, history_stats))).Check();
    }

    std::vector<AbDayComparison> days;
    if (shard_count == 1) {
      for (int d = 0; d < kFleetDays; ++d) {
        const auto& jobs = FleetDay(d);
        auto stats = FleetStats(d);
        auto result = driver.RunDay(PerArm(driver, DayContext(d, jobs, stats)));
        result.status().Check();
        days.push_back(std::move(result->comparison));
      }
      return SerializeAbReport(days);
    }

    const uint32_t checksum = pipeline_->bundle()->checksum();
    std::vector<FleetShardBlob> blobs;
    for (int s = 0; s < shard_count; ++s) {
      // Fresh driver per shard, exactly like an independent process.
      FleetAbDriver shard_driver(TwoArms(base));
      std::map<int, FleetDayDecisions> day_records;
      std::map<int, std::map<int, FleetDayDecisions>> arm_days;
      for (int d = 0; d < kFleetDays; ++d) {
        if (!ShardOwnsDay(d, s, shard_count)) continue;
        const auto& jobs = FleetDay(d);
        auto stats = FleetStats(d);
        auto decisions =
            shard_driver.DecideDay(PerArm(shard_driver, DayContext(d, jobs, stats)));
        decisions.status().Check();
        for (size_t k = 1; k < decisions->size(); ++k) {
          arm_days[d].emplace(static_cast<int>(k), std::move((*decisions)[k]));
        }
        day_records.emplace(d, std::move(decisions->front()));
      }
      FleetShardHeader header{s, shard_count, kFleetDays, checksum};
      auto text = SerializeFleetShard(header, day_records, nullptr,
                                      arm_days.empty() ? nullptr : &arm_days);
      text.status().Check();
      auto parsed = ParseFleetShard(*text);  // round-trip through the file form
      parsed.status().Check();
      blobs.push_back(std::move(*parsed));
    }
    auto merged = CombineFleetShards(blobs, checksum);
    merged.status().Check();
    for (int d = 0; d < kFleetDays; ++d) {
      const auto& jobs = FleetDay(d);
      auto stats = FleetStats(d);
      std::vector<FleetDayDecisions> precomputed;
      precomputed.push_back(std::move(merged->days.at(d)));
      precomputed.push_back(std::move(merged->arm_days.at(d).at(1)));
      auto result =
          driver.ReplayDay(PerArm(driver, DayContext(d, jobs, stats)), precomputed);
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

// The N=1 reseat guarantee, observed at the report level: each arm's
// FleetDayReport inside an A/B run is byte-identical to the report a
// standalone FleetDriver produces under that arm's engine and config —
// unbudgeted and budgeted.
TEST_F(FleetAbFixture, FleetAbArmReportsMatchStandaloneDriverBytes) {
  for (bool budgeted : {false, true}) {
    FleetConfig base;
    if (budgeted) base.storage_budget_bytes = 40e9;
    FleetConfig twocut = base;
    twocut.num_cuts = 2;
    FleetAbDriver ab(TwoArms(base));
    FleetDriver solo_base(&pipeline_->engine(), base);
    FleetDriver solo_twocut(&pipeline_->engine(), twocut);
    if (budgeted) {
      const auto& history = FleetDay(-1);
      auto history_stats = FleetStats(-1);
      ab.Calibrate(PerArm(ab, DayContext(-1, history, history_stats))).Check();
      solo_base.Calibrate(history, history_stats).Check();
      solo_twocut.Calibrate(history, history_stats).Check();
    }
    for (int d = 0; d < kFleetDays; ++d) {
      const auto& jobs = FleetDay(d);
      auto stats = FleetStats(d);
      auto result = ab.RunDay(PerArm(ab, DayContext(d, jobs, stats)));
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
  std::vector<FleetArmSpec> specs = {
      {"a", &pipeline_->engine(), base, checksum},
      {"b", &pipeline_->engine(), base, checksum}};
  FleetAbDriver driver(std::move(specs));
  for (int d = 0; d < kFleetDays; ++d) {
    const auto& jobs = FleetDay(d);
    auto stats = FleetStats(d);
    auto result = driver.RunDay(PerArm(driver, DayContext(d, jobs, stats)));
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

// Spec validation: every entry point fails fast on an empty arm list, a null
// engine, duplicate names, or a name that is not token-safe. A single arm is
// legal at the library layer (the CLI enforces >= 2).
TEST_F(FleetAbFixture, FleetAbRejectsInvalidSpecs) {
  FleetConfig base;
  const DecisionEngine* engine = &pipeline_->engine();
  auto run = [&](std::vector<FleetArmSpec> specs) {
    FleetAbDriver driver(std::move(specs));
    const auto& jobs = FleetDay(0);
    auto stats = FleetStats(0);
    return driver.RunDay(PerArm(driver, DayContext(0, jobs, stats))).status();
  };
  EXPECT_FALSE(run({}).ok());
  EXPECT_FALSE(run({{"a", nullptr, base, 0}}).ok());
  EXPECT_FALSE(run({{"a", engine, base, 0}, {"a", engine, base, 0}}).ok());
  EXPECT_FALSE(run({{"bad name", engine, base, 0}}).ok());
  EXPECT_FALSE(run({{"", engine, base, 0}}).ok());
  EXPECT_TRUE(run({{"solo", engine, base, 0}}).ok());
}

}  // namespace
}  // namespace phoebe::core
