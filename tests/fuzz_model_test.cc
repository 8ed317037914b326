// Corruption fuzzing of the model-text parsers, with no checksum in the way:
// GbdtRegressor, MlpRegressor and RidgeRegressor FromText, the
// StageCostPredictor and TtlEstimator loaders, and HistoricStats::FromText.
// A bundle's CRC only catches accidental damage, so each parser must be
// total on its own: any input either loads a model that is safe to score or
// comes back as a clean error Status — never a crash, a giant allocation,
// or an out-of-bounds read on the first predict. Every accepted input is
// therefore scored once (and, for the learners, re-serialized to a
// fixpoint). The corpus under tests/fuzz_corpus/ pins one valid text per
// parser plus probes that a lenient parser crashes on or accepts: a
// tree-count reserve bomb, child indices out of range or pointing backward,
// a split feature past the model width, the word tokens `zero`/`abc`/
// `1.5junk`, an MLP layer of 2000000000×2000000000, and model widths that do
// not match their owner.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/predictors.h"
#include "core/simulator.h"
#include "core/ttl.h"
#include "ml/gbdt.h"
#include "ml/linear.h"
#include "ml/mlp.h"
#include "telemetry/repository.h"
#include "testing/fuzz.h"
#include "testing/property.h"
#include "workload/generator.h"

namespace phoebe::testing {
namespace {

#ifndef PHOEBE_FUZZ_CORPUS_DIR
#error "PHOEBE_FUZZ_CORPUS_DIR must point at tests/fuzz_corpus"
#endif

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

/// Score an accepted learner on zero rows — the first predict that crashed
/// on the lenient parser — and check its text is a fixpoint after one
/// normalizing round trip.
template <typename Model>
void ProbeLearner(const Model& m) {
  if (m.num_features() > 1024) return;  // valid, but too wide to probe cheaply
  std::vector<std::string> names(m.num_features(), "f");
  ml::FeatureMatrix x(names);
  std::vector<double> zero(m.num_features(), 0.0);
  for (int r = 0; r < 3; ++r) x.AddRow(zero);
  std::vector<double> batch = m.PredictBatch(x);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(std::bit_cast<uint64_t>(batch[0]), std::bit_cast<uint64_t>(m.Predict(zero)));
  const std::string text = m.ToText();
  Model again;
  ASSERT_TRUE(Model::FromText(std::string_view(text), &again).ok()) << text;
  EXPECT_EQ(again.ToText(), text);
}

template <typename Model>
Status ParseLearner(const std::string& text) {
  Model m;
  Status st = Model::FromText(std::string_view(text), &m);
  if (st.ok()) ProbeLearner(m);
  return st;
}

/// One small job, its historic stats and simulated schedule, for scoring
/// accepted predictor and TTL texts.
struct Probe {
  workload::JobInstance job;
  telemetry::HistoricStats stats;
  core::SimulatedSchedule sim;
};

const Probe& GetProbe() {
  static const Probe* probe = [] {
    workload::WorkloadConfig cfg;
    cfg.num_templates = 6;
    cfg.seed = 3;
    workload::WorkloadGenerator gen(cfg);
    auto* p = new Probe;
    for (const workload::JobInstance& job : gen.GenerateDay(0)) {
      if (job.graph.num_stages() > p->job.graph.num_stages()) p->job = job;
    }
    for (const workload::JobInstance& job : gen.GenerateDay(1)) p->stats.Accumulate(job);
    std::vector<double> exec;
    for (const workload::StageTruth& t : p->job.truth) exec.push_back(t.exec_seconds);
    p->sim = *core::SimulateSchedule(p->job.graph, exec);
    return p;
  }();
  return *probe;
}

Status ParsePredictor(const std::string& text) {
  core::StageCostPredictor pred(core::PredictorConfig{}, core::Target::kExecSeconds);
  Status st = pred.LoadFromText(text);
  if (st.ok()) {
    const Probe& p = GetProbe();
    EXPECT_EQ(pred.PredictJob(p.job, p.stats).size(), p.job.graph.num_stages());
  } else {
    EXPECT_FALSE(pred.trained()) << "predictor mutated on error";
  }
  return st;
}

Status ParseTtl(const std::string& text) {
  core::TtlEstimator ttl;
  Status st = ttl.LoadFromText(text);
  if (st.ok()) {
    const Probe& p = GetProbe();
    EXPECT_EQ(ttl.Predict(p.job, p.sim).size(), p.job.graph.num_stages());
  } else {
    EXPECT_FALSE(ttl.trained()) << "estimator mutated on error";
  }
  return st;
}

Status ParseStats(const std::string& text) {
  telemetry::HistoricStats stats;
  Status st = telemetry::HistoricStats::FromText(std::string_view(text), &stats);
  if (st.ok()) {
    stats.Get(0, 0);
    auto again = telemetry::HistoricStats::FromText(stats.ToText());
    EXPECT_TRUE(again.ok());
  }
  return st;
}

struct Kind {
  const char* ext;
  ParseFn parse;
};

const std::vector<Kind>& Kinds() {
  static const std::vector<Kind> kinds = {
      {".gbdt", ParseLearner<ml::GbdtRegressor>},
      {".mlp", ParseLearner<ml::MlpRegressor>},
      {".ridge", ParseLearner<ml::RidgeRegressor>},
      {".predictor", ParsePredictor},
      {".ttl", ParseTtl},
      {".stats", ParseStats},
  };
  return kinds;
}

TEST(FuzzModelCorpusTest, FilesNeverCrashAndValidSeedsParse) {
  for (const Kind& kind : Kinds()) {
    auto files = CorpusFiles(kind.ext);
    ASSERT_FALSE(files.empty()) << "no " << kind.ext << " seeds";
    for (const auto& p : files) {
      Status st = kind.parse(ReadFileOrDie(p));
      if (p.filename().string().find("_valid") != std::string::npos) {
        EXPECT_TRUE(st.ok()) << p << ": " << st.ToString();
      } else {
        EXPECT_FALSE(st.ok()) << p << " unexpectedly parsed";
      }
    }
  }
}

TEST(FuzzModelCorpusTest, ProbesAreRejectedForTheirOwnDefect) {
  // Each probe is a valid text with one defect; the error must name it, so
  // a probe cannot pass by tripping over something else.
  const std::map<std::string, std::string> expected = {
      {"gbdt_tree_count_bomb.gbdt", "gbdt trees"},
      {"gbdt_child_out_of_range.gbdt", "child index"},
      {"gbdt_child_cycle.gbdt", "child index"},
      {"gbdt_feature_out_of_range.gbdt", "split feature"},
      {"gbdt_empty_tree.gbdt", "tree header"},
      {"gbdt_token_zero.gbdt", "gbdt header"},
      {"gbdt_token_abc.gbdt", "node line"},
      {"gbdt_token_junk_suffix.gbdt", "node line"},
      {"mlp_layer_bomb.mlp", "layer shape"},
      {"mlp_layer_shape_mismatch.mlp", "layer shape"},
      {"mlp_weight_count_bomb.mlp", "mlp weights"},
      {"ridge_weight_count_bomb.ridge", "ridge weights"},
      {"predictor_type_width_mismatch.predictor", "feature width"},
      {"ttl_width_mismatch.ttl", "feature width"},
      {"stats_entry_count_bomb.stats", "template-type entries"},
      {"stats_token_junk_suffix.stats", "global accumulator"},
  };
  for (const Kind& kind : Kinds()) {
    for (const auto& p : CorpusFiles(kind.ext)) {
      const std::string name = p.filename().string();
      if (name.find("_valid") != std::string::npos) continue;
      auto it = expected.find(name);
      ASSERT_NE(it, expected.end()) << name << " has no expected error";
      Status st = kind.parse(ReadFileOrDie(p));
      ASSERT_FALSE(st.ok()) << name;
      EXPECT_NE(st.ToString().find(it->second), std::string::npos)
          << name << ": " << st.ToString();
    }
  }
}

TEST(FuzzModelTest, EveryParserSurvivesCorruption) {
  uint64_t seed = 0x30de1;
  for (const Kind& kind : Kinds()) {
    SCOPED_TRACE(kind.ext);
    std::vector<std::string> seeds;
    for (const auto& p : CorpusFiles(kind.ext)) {
      if (p.filename().string().find("_valid") != std::string::npos) {
        seeds.push_back(ReadFileOrDie(p));
      }
    }
    ASSERT_FALSE(seeds.empty());
    FuzzOptions opt;
    opt.num_inputs = 400;
    opt.seed = seed++;
    FuzzReport report = FuzzParser(opt, seeds, kind.parse);
    EXPECT_TRUE(report.ok) << report.Describe();
    EXPECT_EQ(report.inputs_run, ScaledCaseCount(400));
    // Without a checksum some mutations (a changed digit) still load; the
    // contract is that those load safely and the rest are rejected cleanly.
    EXPECT_GT(report.rejected, 0) << report.Describe();
    EXPECT_GT(report.accepted, 0) << report.Describe();
  }
}

}  // namespace
}  // namespace phoebe::testing
