// Corruption fuzzing of the PipelineBundle loader: a bundle file is the one
// artifact that crosses the train/serve process boundary, so FromText must
// return a clean error Status for ANY byte sequence — truncations, bit
// flips, header tampering, checksum damage — and never crash, throw, or trip
// a sanitizer. The checked-in corpus under tests/fuzz_corpus/ pins one valid
// artifact per format version (v1 and v2) so format drift that breaks old
// files is caught.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/strings.h"
#include "core/bundle.h"
#include "core/fleet_shard.h"
#include "core/pipeline.h"
#include "telemetry/repository.h"
#include "testing/fuzz.h"
#include "testing/property.h"
#include "workload/generator.h"

namespace phoebe::testing {
namespace {

#ifndef PHOEBE_FUZZ_CORPUS_DIR
#error "PHOEBE_FUZZ_CORPUS_DIR must point at tests/fuzz_corpus"
#endif

Status ParseBundle(const std::string& text) {
  return core::PipelineBundle::FromText(text).status();
}

Status ParseShardBlob(const std::string& text) {
  return core::ParseFleetShard(text).status();
}

std::string ReadFileOrDie(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::filesystem::path> CorpusFiles(const std::string& ext) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(PHOEBE_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ext) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// A freshly trained tiny bundle, serialized — so mutations always start
/// from a structurally current document even if the corpus ages.
std::string TrainedBundleText() {
  static const std::string* text = [] {
    workload::WorkloadConfig wcfg;
    wcfg.num_templates = 8;
    wcfg.seed = 13;
    workload::WorkloadGenerator gen(wcfg);
    telemetry::WorkloadRepository repo;
    for (int d = 0; d < 3; ++d) repo.AddDay(d, gen.GenerateDay(d)).Check();
    core::PipelineConfig cfg = core::PhoebePipeline::DefaultConfig();
    cfg.exec_predictor.gbdt.num_trees = 8;
    cfg.size_predictor.gbdt.num_trees = 8;
    cfg.ttl.gbdt.num_trees = 8;
    core::PhoebePipeline p(cfg);
    p.Train(repo, 0, 3).Check();
    auto serialized = p.bundle()->ToText();
    serialized.status().Check();
    return new std::string(std::move(*serialized));
  }();
  return *text;
}

std::vector<std::string> BundleSeeds() {
  std::vector<std::string> seeds;
  for (const auto& p : CorpusFiles(".bundle")) seeds.push_back(ReadFileOrDie(p));
  seeds.push_back(TrainedBundleText());
  return seeds;
}

TEST(FuzzBundleCorpusTest, FilesNeverCrashAndValidSeedsParse) {
  auto files = CorpusFiles(".bundle");
  ASSERT_FALSE(files.empty()) << "no .bundle seeds in " << PHOEBE_FUZZ_CORPUS_DIR;
  for (const auto& p : files) {
    const std::string text = ReadFileOrDie(p);
    Status st = ParseBundle(text);  // must return, never crash
    if (p.filename().string().find("_valid") != std::string::npos) {
      EXPECT_TRUE(st.ok()) << p << ": " << st.ToString();
    } else {
      EXPECT_FALSE(st.ok()) << p << " unexpectedly parsed";
    }
  }
}

/// The bytes a v1 bundle re-saves as: version 2, the three retired
/// `*.batch_inference` keys dropped, the config length and the checksum
/// recomputed. Everything else is carried over unchanged.
std::string UpgradeV1Bundle(const std::string& v1) {
  std::string payload = v1.substr(v1.find('\n', v1.find('\n') + 1) + 1);
  size_t removed = 0;
  for (const std::string key : {"\nexec.batch_inference ", "\nsize.batch_inference ",
                                 "\nttl.batch_inference "}) {
    const size_t at = payload.find(key);
    EXPECT_NE(at, std::string::npos) << key;
    const size_t len = payload.find('\n', at + 1) - at;
    payload.erase(at, len);
    removed += len;
  }
  const size_t header_end = payload.find('\n');
  int64_t config_bytes = 0;
  EXPECT_TRUE(ParseInt64(payload.substr(15, header_end - 15), &config_bytes).ok());
  payload.replace(0, header_end,
                  "section config " +
                      std::to_string(config_bytes - static_cast<int64_t>(removed)));
  return "PHOEBEBUNDLE 2\n" + StrFormat("checksum %08x\n", Crc32(payload)) + payload;
}

TEST(FuzzBundleCorpusTest, ValidSeedRoundTripsAndDecodesTrained) {
  // The v1 seed pins backward compatibility: it must keep loading, and it
  // re-saves as exactly its v2 upgrade. Current-version seeds round-trip
  // byte for byte.
  for (const auto& p : CorpusFiles(".bundle")) {
    if (p.filename().string().find("_valid") == std::string::npos) continue;
    const std::string text = ReadFileOrDie(p);
    auto bundle = core::PipelineBundle::FromText(text);
    ASSERT_TRUE(bundle.ok()) << p << ": " << bundle.status().ToString();
    EXPECT_TRUE((*bundle)->trained());
    auto text2 = (*bundle)->ToText();
    ASSERT_TRUE(text2.ok());
    if (text.rfind("PHOEBEBUNDLE 1\n", 0) == 0) {
      EXPECT_EQ(*text2, UpgradeV1Bundle(text)) << p << " does not upgrade to v2";
    } else {
      EXPECT_EQ(*text2, text) << p << " does not round-trip";
    }
  }
}

TEST(FuzzBundleTest, LoaderSurvivesCorruption) {
  FuzzOptions opt;
  opt.num_inputs = 600;
  opt.seed = 0xb0bd;
  FuzzReport report = FuzzParser(opt, BundleSeeds(), ParseBundle);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.inputs_run, ScaledCaseCount(600));
  // The checksum makes nearly every mutation a rejection; the contract under
  // test is purely "reject cleanly, never crash".
  EXPECT_GT(report.rejected, 0) << report.Describe();
}

TEST(FuzzShardBlobCorpusTest, FilesNeverCrashAndValidSeedsParse) {
  auto files = CorpusFiles(".blob");
  ASSERT_FALSE(files.empty()) << "no .blob seeds in " << PHOEBE_FUZZ_CORPUS_DIR;
  for (const auto& p : files) {
    const std::string text = ReadFileOrDie(p);
    Status st = ParseShardBlob(text);  // must return, never crash
    if (p.filename().string().find("_valid") != std::string::npos) {
      EXPECT_TRUE(st.ok()) << p << ": " << st.ToString();
    } else {
      EXPECT_FALSE(st.ok()) << p << " unexpectedly parsed";
    }
  }
}

TEST(FuzzShardBlobCorpusTest, ValidSeedsRoundTrip) {
  // The checked-in v1 seed pins backward compatibility: its body must
  // reserialize byte-identically under the serializer's arm-free version
  // header (2 — the serializer stamps the lowest version that can express
  // the blob). The v2 seed must round-trip exactly; the v3 seed must
  // round-trip exactly, per-arm sections included. (A blob with an embedded
  // `report` section is a rejection seed: blobs carry decisions only.)
  for (const auto& p : CorpusFiles(".blob")) {
    const std::string name = p.filename().string();
    if (name.find("_valid") == std::string::npos) continue;
    const std::string text = ReadFileOrDie(p);
    auto blob = core::ParseFleetShard(text);
    ASSERT_TRUE(blob.ok()) << p << ": " << blob.status().ToString();
    auto text2 = core::SerializeFleetShard(
        blob->header, blob->days, blob->arm_days.empty() ? nullptr : &blob->arm_days);
    ASSERT_TRUE(text2.ok()) << p;
    if (name.find("v1") != std::string::npos) {
      std::string upgraded = text;
      upgraded.replace(upgraded.find(" 1\n"), 3, " 2\n");
      EXPECT_EQ(*text2, upgraded) << p << " body does not round-trip";
    } else {
      EXPECT_EQ(blob->arm_days.empty(), name.find("v3") == std::string::npos) << p;
      EXPECT_EQ(*text2, text) << p << " does not round-trip";
    }
  }
}

TEST(FuzzBundleTest, ShardBlobParserSurvivesCorruption) {
  // The shard blob is the other cross-process artifact; same total contract.
  // Seeds: a freshly serialized v2 blob plus the checked-in corpus files
  // (including the v1 seed, so mutations exercise the compat path too).
  core::FleetDayDecisions day;
  day.decisions.resize(3);
  core::FleetDecision d;
  d.combined.objective = 123.5;
  d.combined.global_bytes = 42.0;
  d.combined.cut.before_cut = {true, true, false, false};
  d.cuts.push_back(d.combined.cut);
  day.decisions[1].emplace(std::move(d));
  std::map<int, core::FleetDayDecisions> days;
  days.emplace(0, std::move(day));
  core::FleetShardHeader header{0, 2, 4, 0xdeadbeefu};
  auto blob = core::SerializeFleetShard(header, days);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();

  std::vector<std::string> seeds{*blob};
  for (const auto& p : CorpusFiles(".blob")) seeds.push_back(ReadFileOrDie(p));

  FuzzOptions opt;
  opt.num_inputs = 600;
  opt.seed = 0x5aad;
  FuzzReport report = FuzzParser(opt, seeds, ParseShardBlob);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_GT(report.rejected, 0) << report.Describe();
}

}  // namespace
}  // namespace phoebe::testing
