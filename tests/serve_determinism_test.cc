// Serve determinism: the headline guarantee of the decision daemon. A
// decision fetched over the socket must be BYTE-identical to calling
// DecisionEngine::DecideJob directly on the same bundle — for every worker
// count, with coalescing on or off, with metrics on or off, and before,
// during, and after a hot reload of the same artifact. DecideJob is a pure
// function of (bundle, options, job, stats); the server adds queueing,
// batching, and threads, none of which may leak into a single byte of any
// response payload.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/bundle.h"
#include "core/engine.h"
#include "core/fleet_shard.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "telemetry/repository.h"
#include "workload/generator.h"

namespace phoebe::serve {
namespace {

struct Case {
  int job_index;
  core::DecideOptions options;
};

class ServeDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
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
    core::PhoebePipeline pipeline(cfg);
    pipeline.Train(repo, 0, 3).Check();

    // Per-process path: ctest -j runs each case in its own process, and one
    // case's teardown must not delete the file another case is loading.
    bundle_path_ = new std::string(
        (std::filesystem::temp_directory_path() /
         ("phoebe_serve_det_" + std::to_string(::getpid()) + ".bundle"))
            .string());
    pipeline.SaveBundle(*bundle_path_).Check();
    auto loaded = core::PipelineBundle::LoadFromFile(*bundle_path_);
    loaded.status().Check();
    bundle_ = new std::shared_ptr<const core::PipelineBundle>(*loaded);
    jobs_ = new std::vector<workload::JobInstance>(gen.GenerateDay(3));

    // The cases cover both objectives, several cost sources, single- and
    // multi-cut, and (via the generator mix) ineligible sub-2-stage jobs if
    // any appear in the day.
    cases_ = new std::vector<Case>();
    for (int j = 0; j < 8 && j < static_cast<int>(jobs_->size()); ++j) {
      cases_->push_back({j, core::DecideOptions{}});
    }
    core::DecideOptions multi;
    multi.num_cuts = 2;
    cases_->push_back({0, multi});
    cases_->push_back({3, multi});
    core::DecideOptions recovery;
    recovery.objective = core::Objective::kRecovery;
    cases_->push_back({1, recovery});
    core::DecideOptions opt_est;
    opt_est.source = core::CostSource::kOptimizerEstimates;
    cases_->push_back({2, opt_est});

    // The ground truth: the exact payload bytes the server must produce,
    // computed with a direct (in-process, metrics-free) engine.
    expected_ = new std::vector<std::string>();
    core::DecisionEngine engine(*bundle_);
    for (const Case& c : *cases_) {
      const auto& job = (*jobs_)[static_cast<size_t>(c.job_index)];
      std::optional<core::FleetDecision> decision;
      if (job.graph.num_stages() >= 2) {
        auto r = engine.DecideJob(job, (*bundle_)->stats(), c.options);
        r.status().Check();
        decision = std::move(*r);
      }
      expected_->push_back(StrFormat("decision %08x\n", (*bundle_)->checksum()) +
                           core::SerializeJobDecisionRecord(0, decision));
    }
  }

  static void TearDownTestSuite() {
    std::filesystem::remove(*bundle_path_);
    delete expected_;
    delete cases_;
    delete jobs_;
    delete bundle_;
    delete bundle_path_;
  }

  /// Run every case against a live server and require byte-identical
  /// payloads. Returns the client for follow-on use.
  static void ExpectServedBytesMatch(ServeServer& server, const std::string& label) {
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port()).ok());
    for (size_t i = 0; i < cases_->size(); ++i) {
      const Case& c = (*cases_)[i];
      std::string raw_payload;
      auto response = client.Decide((*jobs_)[static_cast<size_t>(c.job_index)],
                                    c.options, &raw_payload);
      ASSERT_TRUE(response.ok()) << label << ": " << response.status().ToString();
      EXPECT_EQ(raw_payload, (*expected_)[i])
          << label << ": case " << i << " (job " << c.job_index
          << ") served different bytes";
    }
  }

  static std::string* bundle_path_;
  static std::shared_ptr<const core::PipelineBundle>* bundle_;
  static std::vector<workload::JobInstance>* jobs_;
  static std::vector<Case>* cases_;
  static std::vector<std::string>* expected_;
};

std::string* ServeDeterminismTest::bundle_path_ = nullptr;
std::shared_ptr<const core::PipelineBundle>* ServeDeterminismTest::bundle_ = nullptr;
std::vector<workload::JobInstance>* ServeDeterminismTest::jobs_ = nullptr;
std::vector<Case>* ServeDeterminismTest::cases_ = nullptr;
std::vector<std::string>* ServeDeterminismTest::expected_ = nullptr;

TEST_F(ServeDeterminismTest, SocketBytesMatchDirectEngineAcrossServerConfigs) {
  // worker count x batch size x metrics: 8 server configurations, one
  // expected byte string. None of these knobs may change a single byte.
  for (int workers : {1, 4}) {
    for (int max_batch : {16, 1}) {
      for (bool metrics : {false, true}) {
        obs::MetricsRegistry registry;
        ServeConfig cfg;
        cfg.num_workers = workers;
        cfg.max_batch = max_batch;
        cfg.bundle_path = *bundle_path_;
        cfg.metrics = metrics ? &registry : nullptr;
        ServeServer server(*bundle_, cfg);
        ASSERT_TRUE(server.Start().ok());
        ExpectServedBytesMatch(
            server, StrFormat("workers=%d max_batch=%d metrics=%d", workers,
                              max_batch, static_cast<int>(metrics)));
        server.Stop();
      }
    }
  }
}

TEST_F(ServeDeterminismTest, ReloadOfSameArtifactChangesNoBytes) {
  ServeConfig cfg;
  cfg.num_workers = 4;
  cfg.bundle_path = *bundle_path_;
  ServeServer server(*bundle_, cfg);
  ASSERT_TRUE(server.Start().ok());
  const uint32_t checksum_before = server.bundle_checksum();

  ExpectServedBytesMatch(server, "before reload");

  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto reloaded = client.Reload();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(*reloaded, checksum_before);
  EXPECT_EQ(server.reload_count(), 1);

  ExpectServedBytesMatch(server, "after reload");
  EXPECT_EQ(server.bundle_checksum(), checksum_before);
  server.Stop();
}

TEST_F(ServeDeterminismTest, RepeatedCallsAreIdempotent) {
  // The same request twice on one connection: byte-identical answers (no
  // hidden per-connection or per-worker state).
  ServeConfig cfg;
  cfg.bundle_path = *bundle_path_;
  ServeServer server(*bundle_, cfg);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  std::string first, second;
  ASSERT_TRUE(client.Decide((*jobs_)[0], {}, &first).ok());
  ASSERT_TRUE(client.Decide((*jobs_)[0], {}, &second).ok());
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, (*expected_)[0]);
  server.Stop();
}

}  // namespace
}  // namespace phoebe::serve
