// Tests for the PipelineBundle artifact: save -> load -> decide must be
// bit-identical to deciding with the in-memory pipeline, for every model
// kind; the checksum must name the trained state; and the loader must reject
// corrupted files with clean errors.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/strings.h"
#include "core/bundle.h"
#include "core/engine.h"
#include "core/pipeline.h"
#include "telemetry/repository.h"
#include "workload/generator.h"

namespace phoebe::core {
namespace {

/// Small deterministic workload shared by all bundle tests.
class BundleFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::WorkloadConfig cfg;
    cfg.num_templates = 12;
    cfg.seed = 91;
    gen_ = new workload::WorkloadGenerator(cfg);
    repo_ = new telemetry::WorkloadRepository();
    for (int d = 0; d < 4; ++d) repo_->AddDay(d, gen_->GenerateDay(d)).Check();
  }
  static void TearDownTestSuite() {
    delete repo_;
    delete gen_;
  }

  /// Tiny config (few trees) so per-kind training stays fast.
  static PipelineConfig SmallConfig(ModelKind kind) {
    PipelineConfig cfg = PhoebePipeline::DefaultConfig();
    cfg.exec_predictor.kind = kind;
    cfg.exec_predictor.gbdt.num_trees = 12;
    cfg.exec_predictor.mlp.hidden = {8};
    cfg.size_predictor = cfg.exec_predictor;
    cfg.size_predictor.gbdt.seed = 1043;
    cfg.ttl.gbdt.num_trees = 12;
    return cfg;
  }

  static PhoebePipeline TrainSmall(ModelKind kind) {
    PhoebePipeline p(SmallConfig(kind));
    p.Train(*repo_, 0, 3).Check();
    return p;
  }

  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  static workload::WorkloadGenerator* gen_;
  static telemetry::WorkloadRepository* repo_;
};

workload::WorkloadGenerator* BundleFixture::gen_ = nullptr;
telemetry::WorkloadRepository* BundleFixture::repo_ = nullptr;

#ifndef PHOEBE_FUZZ_CORPUS_DIR
#error "PHOEBE_FUZZ_CORPUS_DIR must point at tests/fuzz_corpus"
#endif

std::string ReadCorpusFile(const std::string& name) {
  std::ifstream in(std::string(PHOEBE_FUZZ_CORPUS_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << name;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// `text` with its checksum line recomputed over the (possibly edited)
/// payload, so a test reaches the parsers behind the CRC gate.
std::string WithFreshChecksum(const std::string& text) {
  const size_t magic_end = text.find('\n') + 1;
  const size_t payload = text.find('\n', magic_end) + 1;
  return text.substr(0, magic_end) +
         StrFormat("checksum %08x\n", Crc32(text.data() + payload, text.size() - payload)) +
         text.substr(payload);
}

/// Every decision input and output compared bit-exactly between two engines
/// over the held-out day, for every cost source.
void ExpectBitIdenticalDecisions(const DecisionEngine& a, const DecisionEngine& b,
                                 const std::vector<workload::JobInstance>& jobs,
                                 const telemetry::HistoricStats& stats) {
  const std::vector<CostSource> sources = {
      CostSource::kTruth, CostSource::kOptimizerEstimates, CostSource::kConstant,
      CostSource::kMlSimulator, CostSource::kMlStacked};
  for (const workload::JobInstance& job : jobs) {
    if (job.graph.num_stages() < 2) continue;
    for (CostSource src : sources) {
      auto ca = a.BuildCosts(job, src, stats);
      auto cb = b.BuildCosts(job, src, stats);
      ASSERT_TRUE(ca.ok()) << ca.status().ToString();
      ASSERT_TRUE(cb.ok()) << cb.status().ToString();
      EXPECT_EQ(ca->output_bytes, cb->output_bytes);
      EXPECT_EQ(ca->ttl, cb->ttl);
      EXPECT_EQ(ca->end_time, cb->end_time);
      EXPECT_EQ(ca->tfs, cb->tfs);
      EXPECT_EQ(ca->job_end, cb->job_end);
      DecideOptions opt;
      opt.source = src;
      auto da = a.DecideJob(job, stats, opt);
      auto db = b.DecideJob(job, stats, opt);
      ASSERT_TRUE(da.ok()) << da.status().ToString();
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      EXPECT_EQ(da->combined.cut.before_cut, db->combined.cut.before_cut);
      EXPECT_EQ(da->combined.objective, db->combined.objective);
      EXPECT_EQ(da->combined.global_bytes, db->combined.global_bytes);
    }
  }
}

TEST_F(BundleFixture, SaveLoadBitIdenticalForEveryModelKind) {
  for (ModelKind kind : {ModelKind::kGbdtPerStageType, ModelKind::kGbdtGeneral,
                         ModelKind::kMlpGeneral}) {
    SCOPED_TRACE(static_cast<int>(kind));
    PhoebePipeline trained = TrainSmall(kind);
    const std::string path =
        TempPath("roundtrip_" + std::to_string(static_cast<int>(kind)) + ".phoebe");
    ASSERT_TRUE(trained.SaveBundle(path).ok());

    PhoebePipeline loaded;
    ASSERT_TRUE(loaded.LoadBundle(path).ok());
    EXPECT_TRUE(loaded.trained());
    // The checksum names the trained state: loading must reproduce it.
    EXPECT_EQ(trained.bundle()->checksum(), loaded.bundle()->checksum());
    ExpectBitIdenticalDecisions(trained.engine(), loaded.engine(), repo_->Day(3),
                                repo_->StatsBefore(3));
  }
}

TEST_F(BundleFixture, TextRoundTripIsIdentity) {
  PhoebePipeline p = TrainSmall(ModelKind::kGbdtPerStageType);
  auto text = p.bundle()->ToText();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto reloaded = PipelineBundle::FromText(*text);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  auto text2 = (*reloaded)->ToText();
  ASSERT_TRUE(text2.ok());
  EXPECT_EQ(*text, *text2);
  EXPECT_EQ(p.bundle()->checksum(), (*reloaded)->checksum());
}

TEST_F(BundleFixture, ChecksumDistinguishesTrainedStates) {
  PhoebePipeline a = TrainSmall(ModelKind::kGbdtPerStageType);
  PhoebePipeline b = TrainSmall(ModelKind::kGbdtPerStageType);
  // Same config + same data => same state, same checksum.
  EXPECT_EQ(a.bundle()->checksum(), b.bundle()->checksum());

  PipelineConfig other = SmallConfig(ModelKind::kGbdtPerStageType);
  other.exec_predictor.gbdt.seed += 1;
  PhoebePipeline c(other);
  c.Train(*repo_, 0, 3).Check();
  EXPECT_NE(a.bundle()->checksum(), c.bundle()->checksum());
}

TEST_F(BundleFixture, UntrainedBundleRefusesToSerialize) {
  PhoebePipeline p;
  EXPECT_FALSE(p.bundle()->ToText().ok());
  EXPECT_FALSE(p.SaveBundle(TempPath("untrained.phoebe")).ok());
}

TEST_F(BundleFixture, LoaderRejectsCorruption) {
  PhoebePipeline p = TrainSmall(ModelKind::kGbdtPerStageType);
  auto text = p.bundle()->ToText();
  ASSERT_TRUE(text.ok());

  {  // Bad magic.
    std::string t = *text;
    t[0] = 'X';
    EXPECT_FALSE(PipelineBundle::FromText(t).ok());
  }
  {  // Unsupported version.
    std::string t = *text;
    size_t nl = t.find('\n');
    t = "PHOEBEBUNDLE 9999\n" + t.substr(nl + 1);
    auto r = PipelineBundle::FromText(t);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("version"), std::string::npos);
  }
  {  // Any payload bit flip must trip the checksum.
    std::string t = *text;
    t[t.size() / 2] ^= 0x01;
    auto r = PipelineBundle::FromText(t);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("checksum"), std::string::npos);
  }
  {  // Truncation anywhere must fail cleanly (header or payload).
    for (size_t frac = 1; frac <= 4; ++frac) {
      std::string t = text->substr(0, text->size() * frac / 5);
      EXPECT_FALSE(PipelineBundle::FromText(t).ok());
    }
  }
  {  // Trailing junk after end_bundle.
    std::string t = *text + "extra\n";
    EXPECT_FALSE(PipelineBundle::FromText(t).ok());
  }
  EXPECT_FALSE(PipelineBundle::LoadFromFile(TempPath("missing.phoebe")).ok());
}

TEST_F(BundleFixture, BadNodeBehindAFreshChecksumIsRejected) {
  // The CRC only catches accidental damage. A re-checksummed file whose model
  // is structurally bad must still fail in the model parser — not load, then
  // loop or read out of bounds on the first predict.
  PhoebePipeline p = TrainSmall(ModelKind::kGbdtPerStageType);
  auto text = p.bundle()->ToText();
  ASSERT_TRUE(text.ok());
  const size_t node = text->find("\nnode ", text->find("section exec ")) + 1;
  const size_t end = text->find('\n', node);
  std::vector<std::string> tok = Split(text->substr(node, end - node), ' ');
  ASSERT_EQ(tok.size(), 6u);
  ASSERT_EQ(tok[3], "1");  // the first tree's root splits; its left child
  tok[3] = "0";            // now points back at the root
  const std::string bad = text->substr(0, node) + Join(tok, " ") + text->substr(end);
  auto r = PipelineBundle::FromText(WithFreshChecksum(bad));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("child index"), std::string::npos)
      << r.status().ToString();
}

TEST_F(BundleFixture, LoadedConfigMatchesSaved) {
  PipelineConfig cfg = SmallConfig(ModelKind::kGbdtGeneral);
  cfg.delta = 0.00123;
  cfg.ttl.min_samples_per_type = 77;
  PhoebePipeline p(cfg);
  p.Train(*repo_, 0, 3).Check();
  const std::string path = TempPath("config.phoebe");
  ASSERT_TRUE(p.SaveBundle(path).ok());
  auto bundle = PipelineBundle::LoadFromFile(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_EQ((*bundle)->config().exec_predictor.kind, ModelKind::kGbdtGeneral);
  EXPECT_EQ((*bundle)->config().delta, 0.00123);
  EXPECT_EQ((*bundle)->config().ttl.min_samples_per_type, 77);
  EXPECT_EQ((*bundle)->delta(), 0.00123);
}

TEST_F(BundleFixture, V1SeedLoadsAndDecidesLikeItsV2Resave) {
  const std::string v1 = ReadCorpusFile("bundle_seed_valid.bundle");
  ASSERT_EQ(v1.rfind("PHOEBEBUNDLE 1\n", 0), 0u) << "the seed must stay a v1 file";
  auto from_v1 = PipelineBundle::FromText(v1);
  ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
  auto v2 = (*from_v1)->ToText();
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();

  // The re-save differs only in the version line, the checksum line, the
  // config length, and the three retired keys.
  std::vector<std::string> old_lines = Split(v1, '\n');
  std::vector<std::string> retired;
  std::erase_if(old_lines, [&](const std::string& line) {
    if (line.find(".batch_inference ") == std::string::npos) return false;
    retired.push_back(line);
    return true;
  });
  EXPECT_EQ(retired, (std::vector<std::string>{"exec.batch_inference 1",
                                               "size.batch_inference 1",
                                               "ttl.batch_inference 1"}));
  std::vector<std::string> new_lines = Split(*v2, '\n');
  ASSERT_EQ(old_lines.size(), new_lines.size());
  EXPECT_EQ(new_lines[0], "PHOEBEBUNDLE 2");
  EXPECT_NE(old_lines[1], new_lines[1]);
  size_t retired_bytes = 0;
  for (const std::string& line : retired) retired_bytes += line.size() + 1;
  int64_t old_config = 0;
  ASSERT_TRUE(ParseInt64(old_lines[2].substr(15), &old_config).ok()) << old_lines[2];
  EXPECT_EQ(new_lines[2],
            "section config " + std::to_string(old_config - static_cast<int64_t>(
                                                   retired_bytes)));
  for (size_t i = 3; i < old_lines.size(); ++i) {
    ASSERT_EQ(old_lines[i], new_lines[i]) << "line " << i;
  }

  auto from_v2 = PipelineBundle::FromText(*v2);
  ASSERT_TRUE(from_v2.ok()) << from_v2.status().ToString();
  EXPECT_EQ((*from_v1)->checksum(), (*from_v2)->checksum());
  DecisionEngine v1_engine(*from_v1);
  DecisionEngine v2_engine(*from_v2);
  ExpectBitIdenticalDecisions(v1_engine, v2_engine, repo_->Day(3),
                              repo_->StatsBefore(3));
}

TEST_F(BundleFixture, RetiredBatchKeysMustBeBooleanInV1AndAbsentInV2) {
  const std::string v1 = ReadCorpusFile("bundle_seed_valid.bundle");
  // Replace `from` with `to` and keep the config section's byte length in
  // step, so the only defect left is the one under test.
  auto edit = [&](const std::string& from, const std::string& to) {
    std::string t = v1;
    const size_t at = t.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    t.replace(at, from.size(), to);
    const size_t len_at = t.find("section config ") + 15;
    const size_t len_end = t.find('\n', len_at);
    int64_t n = 0;
    EXPECT_TRUE(ParseInt64(t.substr(len_at, len_end - len_at), &n).ok());
    n += static_cast<int64_t>(to.size()) - static_cast<int64_t>(from.size());
    t.replace(len_at, len_end - len_at, std::to_string(n));
    return WithFreshChecksum(t);
  };
  const std::string key = "exec.batch_inference 1\n";
  EXPECT_TRUE(PipelineBundle::FromText(edit(key, key)).ok());
  // v1: the key must be present and boolean.
  for (const std::string bad : {"", "exec.batch_inference 2\n", "exec.batch_inference x\n"}) {
    EXPECT_FALSE(PipelineBundle::FromText(edit(key, bad)).ok()) << bad;
  }
  // v2: the same, otherwise valid, config is rejected — the key is unknown.
  auto r = PipelineBundle::FromText(edit("PHOEBEBUNDLE 1\n", "PHOEBEBUNDLE 2\n"));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("batch_inference"), std::string::npos)
      << r.status().ToString();
}

}  // namespace
}  // namespace phoebe::core
