// Tests for multi-process fleet sharding: DecideDay/ReplayDay must reproduce
// RunDay byte-for-byte, shard blobs must round-trip through their text form,
// and merging N in {1,2,4} shards must yield a FleetDayReport stream
// byte-identical to the unsharded run — with the template cache off and on.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "core/fleet_shard.h"
#include "core/pipeline.h"
#include "telemetry/repository.h"
#include "workload/generator.h"

namespace phoebe::core {
namespace {

constexpr int kTrainDays = 3;
constexpr int kFleetDays = 4;  ///< test days kTrainDays..kTrainDays+3

class FleetShardFixture : public ::testing::Test {
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

  /// The canonical report stream of a sequential run under `cfg`.
  static std::string SequentialReports(const FleetConfig& cfg, bool budgeted) {
    FleetDriver driver(&pipeline_->engine(), cfg);
    if (budgeted) {
      driver.Calibrate(repo_->Day(kTrainDays - 1), repo_->StatsBefore(kTrainDays - 1))
          .Check();
    }
    std::string out;
    for (int d = 0; d < kFleetDays; ++d) {
      auto report = driver.RunDay(FleetDay(d), FleetStats(d));
      report.status().Check();
      out += FleetDayReportJson(*report, d) + "\n";
    }
    return out;
  }

  /// The report stream of an N-shard run: per-shard DecideDay -> serialize ->
  /// parse -> combine -> ReplayDay, i.e. the full blob protocol in-process.
  static std::string ShardedReports(const FleetConfig& cfg, bool budgeted,
                                    int shard_count) {
    const uint32_t checksum = pipeline_->bundle()->checksum();
    std::vector<FleetShardBlob> blobs;
    for (int s = 0; s < shard_count; ++s) {
      // Fresh driver per shard, exactly like an independent process.
      FleetDriver shard_driver(&pipeline_->engine(), cfg);
      std::map<int, FleetDayDecisions> days;
      for (int d = 0; d < kFleetDays; ++d) {
        if (!ShardOwnsDay(d, s, shard_count)) continue;
        auto decisions = shard_driver.DecideDay(FleetDay(d), FleetStats(d));
        decisions.status().Check();
        days.emplace(d, std::move(*decisions));
      }
      FleetShardHeader header{s, shard_count, kFleetDays, checksum};
      auto text = SerializeFleetShard(header, days);
      text.status().Check();
      auto parsed = ParseFleetShard(*text);  // round-trip through the file form
      parsed.status().Check();
      blobs.push_back(std::move(*parsed));
    }
    auto merged = CombineFleetShards(blobs, checksum);
    merged.status().Check();

    FleetDriver merge_driver(&pipeline_->engine(), cfg);
    if (budgeted) {
      merge_driver
          .Calibrate(repo_->Day(kTrainDays - 1), repo_->StatsBefore(kTrainDays - 1))
          .Check();
    }
    std::string out;
    for (int d = 0; d < kFleetDays; ++d) {
      auto report =
          merge_driver.ReplayDay(FleetDay(d), FleetStats(d), merged->days.at(d));
      report.status().Check();
      out += FleetDayReportJson(*report, d) + "\n";
    }
    return out;
  }

  static workload::WorkloadGenerator* gen_;
  static telemetry::WorkloadRepository* repo_;
  static PhoebePipeline* pipeline_;
};

workload::WorkloadGenerator* FleetShardFixture::gen_ = nullptr;
telemetry::WorkloadRepository* FleetShardFixture::repo_ = nullptr;
PhoebePipeline* FleetShardFixture::pipeline_ = nullptr;

TEST_F(FleetShardFixture, ReplayDayReproducesRunDay) {
  FleetConfig cfg;
  FleetDriver a(&pipeline_->engine(), cfg);
  FleetDriver b(&pipeline_->engine(), cfg);
  auto decisions = a.DecideDay(FleetDay(0), FleetStats(0));
  ASSERT_TRUE(decisions.ok()) << decisions.status().ToString();
  auto run = a.RunDay(FleetDay(0), FleetStats(0));
  auto replay = b.ReplayDay(FleetDay(0), FleetStats(0), *decisions);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(FleetDayReportJson(*run, 0), FleetDayReportJson(*replay, 0));
}

TEST_F(FleetShardFixture, ShardMergeByteIdenticalCacheOff) {
  FleetConfig cfg;
  const std::string expected = SequentialReports(cfg, /*budgeted=*/false);
  ASSERT_FALSE(expected.empty());
  for (int n : {1, 2, 4}) {
    SCOPED_TRACE(n);
    EXPECT_EQ(expected, ShardedReports(cfg, /*budgeted=*/false, n));
  }
}

TEST_F(FleetShardFixture, ShardMergeByteIdenticalCacheOn) {
  // Exact-mode template cache: cross-day hits make the merge's cache state
  // the interesting part — it must evolve exactly as in the sequential run.
  FleetConfig cfg;
  cfg.template_cache.enabled = true;
  cfg.template_cache.capacity = 64;
  const std::string expected = SequentialReports(cfg, /*budgeted=*/false);
  EXPECT_NE(expected.find("\"cache_hits\""), std::string::npos);
  for (int n : {1, 2, 4}) {
    SCOPED_TRACE(n);
    EXPECT_EQ(expected, ShardedReports(cfg, /*budgeted=*/false, n));
  }
}

TEST_F(FleetShardFixture, ShardMergeByteIdenticalApproximateCache) {
  // Approximate mode serves drifted followers from stale entries; leader
  // decisions are still computed fresh in both paths, so byte-identity must
  // hold here too.
  FleetConfig cfg;
  cfg.template_cache.enabled = true;
  cfg.template_cache.capacity = 64;
  cfg.template_cache.quantize_bps = 5000;
  const std::string expected = SequentialReports(cfg, /*budgeted=*/false);
  for (int n : {1, 2, 4}) {
    SCOPED_TRACE(n);
    EXPECT_EQ(expected, ShardedReports(cfg, /*budgeted=*/false, n));
  }
}

TEST_F(FleetShardFixture, ShardMergeByteIdenticalBudgeted) {
  FleetConfig cfg;
  cfg.storage_budget_bytes = 2e9;
  const std::string expected = SequentialReports(cfg, /*budgeted=*/true);
  EXPECT_NE(expected.find("\"knapsack_threshold\""), std::string::npos);
  for (int n : {1, 2, 4}) {
    SCOPED_TRACE(n);
    EXPECT_EQ(expected, ShardedReports(cfg, /*budgeted=*/true, n));
  }
}

TEST_F(FleetShardFixture, BlobTextRoundTripIsIdentity) {
  FleetDriver driver(&pipeline_->engine(), FleetConfig{});
  auto decisions = driver.DecideDay(FleetDay(1), FleetStats(1));
  ASSERT_TRUE(decisions.ok());
  std::map<int, FleetDayDecisions> days;
  days.emplace(1, std::move(*decisions));
  FleetShardHeader header{1, 2, kFleetDays, pipeline_->bundle()->checksum()};
  auto text = SerializeFleetShard(header, days);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto parsed = ParseFleetShard(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto text2 = SerializeFleetShard(parsed->header, parsed->days);
  ASSERT_TRUE(text2.ok());
  EXPECT_EQ(*text, *text2);
}

TEST_F(FleetShardFixture, SerializeRejectsForeignDays) {
  FleetDayDecisions empty_day;
  std::map<int, FleetDayDecisions> days;
  days.emplace(0, empty_day);  // day 0 belongs to shard 0, not 1
  FleetShardHeader header{1, 2, kFleetDays, 0};
  EXPECT_FALSE(SerializeFleetShard(header, days).ok());
  days.clear();
  days.emplace(kFleetDays + 3, empty_day);  // outside the day range
  FleetShardHeader header0{0, 1, kFleetDays, 0};
  EXPECT_FALSE(SerializeFleetShard(header0, days).ok());
}

TEST_F(FleetShardFixture, CombineValidatesShardSet) {
  FleetDriver driver(&pipeline_->engine(), FleetConfig{});
  const uint32_t checksum = pipeline_->bundle()->checksum();
  auto make_blob = [&](int index, int count) {
    std::map<int, FleetDayDecisions> days;
    for (int d = 0; d < kFleetDays; ++d) {
      if (!ShardOwnsDay(d, index, count)) continue;
      auto decisions = driver.DecideDay(FleetDay(d), FleetStats(d));
      decisions.status().Check();
      days.emplace(d, std::move(*decisions));
    }
    FleetShardHeader header{index, count, kFleetDays, checksum};
    auto text = SerializeFleetShard(header, days);
    text.status().Check();
    auto parsed = ParseFleetShard(*text);
    parsed.status().Check();
    return std::move(*parsed);
  };

  FleetShardBlob b0 = make_blob(0, 2);
  FleetShardBlob b1 = make_blob(1, 2);

  // Complete set merges and covers every day.
  auto ok = CombineFleetShards({b0, b1}, checksum);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->days.size(), static_cast<size_t>(kFleetDays));

  // Missing shard, duplicate shard, and wrong bundle all refuse.
  EXPECT_FALSE(CombineFleetShards({b0}, checksum).ok());
  EXPECT_FALSE(CombineFleetShards({b0, b0}, checksum).ok());
  EXPECT_FALSE(CombineFleetShards({b0, b1}, checksum + 1).ok());
  EXPECT_FALSE(CombineFleetShards({}, checksum).ok());
}

TEST_F(FleetShardFixture, ParseRejectsMalformedBlobs) {
  FleetDriver driver(&pipeline_->engine(), FleetConfig{});
  auto decisions = driver.DecideDay(FleetDay(0), FleetStats(0));
  ASSERT_TRUE(decisions.ok());
  std::map<int, FleetDayDecisions> days;
  days.emplace(0, std::move(*decisions));
  FleetShardHeader header{0, 2, kFleetDays, 0x1234u};
  auto text = SerializeFleetShard(header, days);
  ASSERT_TRUE(text.ok());

  EXPECT_FALSE(ParseFleetShard("").ok());
  EXPECT_FALSE(ParseFleetShard("garbage\n").ok());
  EXPECT_FALSE(ParseFleetShard(text->substr(0, text->size() / 2)).ok());
  EXPECT_FALSE(ParseFleetShard(text->substr(0, text->size() - 1)).ok());
  EXPECT_FALSE(ParseFleetShard(*text + "junk\n").ok());
  {
    std::string t = *text;  // unknown future version must be rejected
    t.replace(t.find(" 2\n"), 3, " 4\n");
    EXPECT_FALSE(ParseFleetShard(t).ok());
  }
  {
    // A version-3 header over a body with no arm sections is fine (v3 is a
    // strict superset), but an arm section inside a v2 blob is malformed —
    // the same downgrade rule v1 applies to report sections.
    std::string t = *text;
    t.replace(t.find(" 2\n"), 3, " 3\n");
    auto v3 = ParseFleetShard(t);
    ASSERT_TRUE(v3.ok()) << v3.status().ToString();
    EXPECT_TRUE(v3->arm_days.empty());
    std::string with_arm = *text;
    size_t end_day = with_arm.find("end_day\n");
    ASSERT_NE(end_day, std::string::npos);
    with_arm.insert(end_day, "arm 1 jobs 0\nend_arm\n");
    EXPECT_FALSE(ParseFleetShard(with_arm).ok());
  }
  {
    // A version-1 blob is this same body under the old header — it must keep
    // parsing.
    std::string t = *text;
    t.replace(t.find(" 2\n"), 3, " 1\n");
    auto v1 = ParseFleetShard(t);
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
    EXPECT_EQ(v1->days.size(), 1u);
  }
  for (const char* version : {" 1\n", " 2\n", " 3\n"}) {
    // Blobs carry decisions only: an embedded report section is malformed
    // under every version, so a merge can only ever replay.
    std::string with_report = *text;
    with_report.replace(with_report.find(" 2\n"), 3, version);
    size_t end_day = with_report.find("end_day\n");
    ASSERT_NE(end_day, std::string::npos);
    with_report.insert(end_day, "report 0 0 0 0 0 0 0 0 0 0\n");
    EXPECT_FALSE(ParseFleetShard(with_report).ok()) << version;
  }
}

TEST_F(FleetShardFixture, ArmSectionsRoundTripAsVersion3) {
  // An A/B shard: arm 0 (default config) is the day record, arm 1 (two cuts
  // per job) rides in a v3 arm section.
  FleetConfig cfg0;
  FleetConfig cfg1;
  cfg1.num_cuts = 2;
  FleetDriver arm0(&pipeline_->engine(), cfg0);
  FleetDriver arm1(&pipeline_->engine(), cfg1);
  std::map<int, FleetDayDecisions> days;
  std::map<int, std::map<int, FleetDayDecisions>> arm_days;
  for (int d = 0; d < kFleetDays; ++d) {
    auto d0 = arm0.DecideDay(FleetDay(d), FleetStats(d));
    auto d1 = arm1.DecideDay(FleetDay(d), FleetStats(d));
    d0.status().Check();
    d1.status().Check();
    days.emplace(d, std::move(*d0));
    arm_days[d].emplace(1, std::move(*d1));
  }
  FleetShardHeader header{0, 1, kFleetDays, 0xabcd1234u};
  auto text = SerializeFleetShard(header, days, &arm_days);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(text->rfind("phoebe_shard 3\n", 0), 0u);

  auto parsed = ParseFleetShard(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->days.size(), days.size());
  ASSERT_EQ(parsed->arm_days.size(), arm_days.size());
  // Re-serializing the parsed blob reproduces the text byte for byte.
  auto again = SerializeFleetShard(parsed->header, parsed->days, &parsed->arm_days);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, *text);

  // The combine carries arm sections through to the merged maps.
  std::vector<FleetShardBlob> blobs;
  blobs.push_back(std::move(*parsed));
  auto merged = CombineFleetShards(blobs, 0xabcd1234u);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->arm_days.size(), arm_days.size());

  // Serializer-side validation: arm index 0 and an arm day without an arm-0
  // record are structural errors, not silently written.
  std::map<int, std::map<int, FleetDayDecisions>> bad_arm;
  bad_arm[0].emplace(0, days.at(0));
  EXPECT_FALSE(SerializeFleetShard(header, days, &bad_arm).ok());
  std::map<int, std::map<int, FleetDayDecisions>> orphan_arm;
  orphan_arm[kFleetDays].emplace(1, days.at(0));
  EXPECT_FALSE(SerializeFleetShard(header, days, &orphan_arm).ok());

  // A scenario arm decides its own workload, so its section carries its own
  // job count and still round-trips.
  std::map<int, std::map<int, FleetDayDecisions>> scenario_arm = arm_days;
  scenario_arm[0][2] = days.at(0);
  scenario_arm[0][2].decisions.pop_back();
  auto scenario_text = SerializeFleetShard(header, days, &scenario_arm);
  ASSERT_TRUE(scenario_text.ok()) << scenario_text.status().ToString();
  auto scenario_parsed = ParseFleetShard(*scenario_text);
  ASSERT_TRUE(scenario_parsed.ok()) << scenario_parsed.status().ToString();
  EXPECT_EQ(scenario_parsed->arm_days.at(0).at(2).decisions.size(),
            scenario_arm[0][2].decisions.size());
}

TEST_F(FleetShardFixture, ReplayRejectsMismatchedDecisions) {
  FleetConfig cfg;
  FleetDriver driver(&pipeline_->engine(), cfg);
  auto decisions = driver.DecideDay(FleetDay(0), FleetStats(0));
  ASSERT_TRUE(decisions.ok());
  FleetDayDecisions truncated = *decisions;
  ASSERT_FALSE(truncated.decisions.empty());
  truncated.decisions.pop_back();
  EXPECT_FALSE(driver.ReplayDay(FleetDay(0), FleetStats(0), truncated).ok());
  FleetDayDecisions empty;
  EXPECT_FALSE(driver.ReplayDay(FleetDay(0), FleetStats(0), empty).ok());
}

}  // namespace
}  // namespace phoebe::core
