// Bring your own trace: run Phoebe against externally supplied telemetry.
//
// Production users do not have this repo's workload generator — they have
// traces. This example writes a trace file (here produced by the generator,
// in practice exported from your engine's telemetry), then runs the whole
// lifecycle from the trace alone: parse -> repository -> train -> save the
// bundle -> reload it in a fresh process-like pipeline -> decide.
//
//   $ ./build/examples/bring_your_own_trace [trace-file]
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "core/evaluate.h"
#include "core/pipeline.h"
#include "telemetry/repository.h"
#include "workload/generator.h"
#include "workload/trace.h"

using namespace phoebe;

int main(int argc, char** argv) {
  std::string trace_path = argc > 1 ? argv[1] : "/tmp/phoebe_example.trace";

  // --- 1. Produce a trace file (stand-in for your engine's telemetry dump).
  if (!std::filesystem::exists(trace_path)) {
    workload::WorkloadConfig cfg;
    cfg.num_templates = 30;
    cfg.seed = 47;
    workload::WorkloadGenerator gen(cfg);
    std::vector<workload::JobInstance> jobs;
    for (int d = 0; d < 5; ++d) {
      auto day = gen.GenerateDay(d);
      jobs.insert(jobs.end(), day.begin(), day.end());
    }
    std::ofstream f(trace_path);
    f << workload::SerializeTrace(jobs);
    std::printf("wrote example trace: %s (%zu jobs)\n", trace_path.c_str(),
                jobs.size());
  }

  // --- 2. Parse the trace and load it into a repository by day.
  std::ifstream f(trace_path);
  std::ostringstream buf;
  buf << f.rdbuf();
  std::vector<workload::JobInstance> jobs;
  workload::ParseTrace(std::string_view(buf.str()), &jobs).Check();
  std::printf("parsed %zu jobs from %s\n", jobs.size(), trace_path.c_str());

  telemetry::WorkloadRepository repo;
  std::map<int, std::vector<workload::JobInstance>> by_day;
  for (auto& job : jobs) by_day[job.day].push_back(std::move(job));
  int last_day = -1;
  for (auto& [day, day_jobs] : by_day) {
    repo.AddDay(day, std::move(day_jobs)).Check();
    last_day = day;
  }

  // --- 3. Train on all but the last day; persist the trained state as one
  // checksummed bundle file (models, statistics snapshot and config).
  core::PhoebePipeline phoebe;
  phoebe.Train(repo, 0, last_day).Check();
  const std::string bundle_path =
      (std::filesystem::temp_directory_path() /
       ("phoebe_example_" + std::to_string(::getpid()) + ".phoebe"))
          .string();
  phoebe.SaveBundle(bundle_path).Check();
  std::printf("trained on days 0..%d and saved the bundle to %s\n", last_day - 1,
              bundle_path.c_str());

  // --- 4. A "fresh deployment" loads the bundle and serves decisions.
  core::PhoebePipeline deployed;
  deployed.LoadBundle(bundle_path).Check();
  std::filesystem::remove(bundle_path);
  const auto& serve_jobs = repo.Day(last_day);
  double saving = 0.0, total = 0.0;
  int checkpointed = 0;
  for (const auto& job : serve_jobs) {
    if (job.graph.num_stages() < 2) continue;
    auto decision = deployed.engine().DecideJob(job, deployed.inference_stats(),
                                                {core::Objective::kTempStorage});
    decision.status().Check();
    total += job.TempByteSeconds();
    if (!decision->combined.cut.empty()) {
      ++checkpointed;
      saving += core::RealizedTempSaving(job, decision->combined.cut) *
                job.TempByteSeconds();
    }
  }
  std::printf("served day %d from the loaded models: %d/%zu jobs checkpointed, "
              "%.1f%% of temp byte-hours cleared early\n",
              last_day, checkpointed, serve_jobs.size(), 100.0 * saving / total);
  return 0;
}
