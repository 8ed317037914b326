// Corruption fuzzing of the textual parsers (JobGraph::FromText and
// workload::ParseTrace): every input — however mangled — must either parse
// or come back as a clean error Status. Crashes, exceptions, and sanitizer
// reports are the bugs this suite exists to catch; run it under the
// ASan/UBSan config for full effect. The checked-in corpus under
// tests/fuzz_corpus/ pins inputs that broke earlier parser revisions
// (reserve bombs from lying headers, integer-overflow UB in atoi-based
// field parsing, nan/inf fields, mid-job truncation) and the edges of the
// from_chars tokenizer: CRLF line endings, blank lines inside a graph block
// (still valid), and `+`, hex, and 1e999 numeric tokens (rejected).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dag/job_graph.h"
#include "testing/fuzz.h"
#include "testing/generators.h"
#include "testing/property.h"
#include "workload/trace.h"

namespace phoebe::testing {
namespace {

#ifndef PHOEBE_FUZZ_CORPUS_DIR
#error "PHOEBE_FUZZ_CORPUS_DIR must point at tests/fuzz_corpus"
#endif

// Drive the Status-first entry points (the only parse surface since the
// Result shims were retired). The out-param must stay untouched on error —
// callers rely on that to keep a previous good value.
Status ParseGraph(const std::string& text) {
  dag::JobGraph g;
  Status st = dag::JobGraph::FromText(std::string_view(text), &g);
  if (!st.ok()) EXPECT_EQ(g.num_stages(), 0u) << "out-param mutated on error";
  return st;
}

Status ParseTraceText(const std::string& text) {
  std::vector<workload::JobInstance> jobs;
  Status st = workload::ParseTrace(std::string_view(text), &jobs);
  if (!st.ok()) EXPECT_TRUE(jobs.empty()) << "out-param mutated on error";
  return st;
}

std::string ReadFileOrDie(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Corpus files of one extension, sorted for deterministic order.
std::vector<std::filesystem::path> CorpusFiles(const std::string& ext) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(PHOEBE_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ext) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Well-formed seed documents: the checked-in corpus plus generated ones, so
/// mutations start from realistic structure.
std::vector<std::string> GraphSeeds() {
  std::vector<std::string> seeds;
  for (const auto& p : CorpusFiles(".graph")) seeds.push_back(ReadFileOrDie(p));
  GraphGenOptions opt;
  for (uint64_t s = 1; s <= 4; ++s) {
    Rng rng(s);
    seeds.push_back(RandomGraph(opt, &rng).ToText());
  }
  return seeds;
}

std::vector<std::string> TraceSeeds() {
  std::vector<std::string> seeds;
  for (const auto& p : CorpusFiles(".trace")) seeds.push_back(ReadFileOrDie(p));
  seeds.push_back(workload::SerializeTrace(RandomTrace(3, 1, 11)));
  seeds.push_back(workload::SerializeTrace(RandomTrace(1, 2, 12)));
  return seeds;
}

TEST(FuzzCorpusTest, GraphFilesNeverCrashAndValidSeedsParse) {
  auto files = CorpusFiles(".graph");
  ASSERT_FALSE(files.empty());
  for (const auto& p : files) {
    const std::string text = ReadFileOrDie(p);
    Status st = ParseGraph(text);  // must return, never crash
    if (p.filename().string().find("_valid") != std::string::npos) {
      EXPECT_TRUE(st.ok()) << p << ": " << st.ToString();
    } else {
      EXPECT_FALSE(st.ok()) << p << " unexpectedly parsed";
    }
  }
}

TEST(FuzzCorpusTest, TraceFilesNeverCrashAndValidSeedsParse) {
  auto files = CorpusFiles(".trace");
  ASSERT_FALSE(files.empty());
  for (const auto& p : files) {
    const std::string text = ReadFileOrDie(p);
    Status st = ParseTraceText(text);
    if (p.filename().string().find("_valid") != std::string::npos) {
      EXPECT_TRUE(st.ok()) << p << ": " << st.ToString();
    } else {
      EXPECT_FALSE(st.ok()) << p << " unexpectedly parsed";
    }
  }
}

TEST(FuzzMutatorTest, DeterministicPerSeed) {
  auto seeds = GraphSeeds();
  FuzzOptions opt;
  for (uint64_t s = 100; s < 110; ++s) {
    EXPECT_EQ(MutateDocument(seeds, opt, s), MutateDocument(seeds, opt, s));
  }
}

TEST(FuzzMutatorTest, MutatesProduceVariety) {
  // Sanity: across many seeds the mutator must actually change the document
  // most of the time, and produce many distinct outputs.
  auto seeds = GraphSeeds();
  FuzzOptions opt;
  std::set<std::string> distinct;
  for (uint64_t s = 0; s < 200; ++s) {
    distinct.insert(MutateDocument(seeds, opt, s));
  }
  EXPECT_GT(distinct.size(), 100u);
}

TEST(FuzzParserTest, JobGraphFromTextSurvivesCorruption) {
  FuzzOptions opt;
  opt.num_inputs = 1000;
  opt.seed = 0x6aff;
  FuzzReport report = FuzzParser(opt, GraphSeeds(), ParseGraph);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.inputs_run, ScaledCaseCount(1000));
  // The mutator must exercise both sides of the contract: some corrupted
  // inputs still parse (e.g. a duplicated stage line), most get rejected.
  EXPECT_GT(report.rejected, 0) << report.Describe();
}

TEST(FuzzParserTest, ParseTraceSurvivesCorruption) {
  FuzzOptions opt;
  opt.num_inputs = 1000;
  opt.seed = 0x7ace;
  FuzzReport report = FuzzParser(opt, TraceSeeds(), ParseTraceText);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.inputs_run, ScaledCaseCount(1000));
  EXPECT_GT(report.rejected, 0) << report.Describe();
}

TEST(FuzzParserTest, RoundTripSurvivors) {
  // Any corrupted graph the parser accepts must serialize and re-parse: the
  // accept path may not construct an un-serializable graph.
  auto seeds = GraphSeeds();
  FuzzOptions opt;
  opt.num_inputs = 500;
  opt.seed = 0x5eed;
  int survivors = 0;
  const int num_inputs = ScaledCaseCount(opt.num_inputs);
  for (int i = 0; i < num_inputs; ++i) {
    const std::string doc = MutateDocument(seeds, opt, opt.seed + static_cast<uint64_t>(i));
    dag::JobGraph parsed;
    if (!dag::JobGraph::FromText(std::string_view(doc), &parsed).ok()) continue;
    ++survivors;
    dag::JobGraph reparsed;
    Status st = dag::JobGraph::FromText(std::string_view(parsed.ToText()), &reparsed);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(parsed.ToText(), reparsed.ToText());
  }
  EXPECT_GT(survivors, 0);
}

}  // namespace
}  // namespace phoebe::testing
