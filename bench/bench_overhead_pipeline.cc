// Section 6.4 overheads: per-job compile-time cost of Phoebe. Paper: metadata
// and model lookup ~15 ms, scoring + optimization ~1.09 s, against several
// minutes of end-to-end job compilation. This repo's in-process substrate has
// no service round-trips (the stats a decision reads are looked up inside
// featurization), so absolute numbers are far smaller; the split to compare
// is BM_ScoreOnly (featurize, inference, simulation, TTL stacking) against
// BM_OptimizeOnly (the cut search on prebuilt costs).
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"

using namespace phoebe;

namespace {

bench::BenchEnv* Env() {
  static bench::BenchEnv env = bench::MakeEnv(40, 4, 1, /*seed=*/5);
  return &env;
}

const workload::JobInstance* BigJob() {
  const workload::JobInstance* big = nullptr;
  for (const auto& j : Env()->TestDay(0)) {
    if (!big || j.graph.num_stages() > big->graph.num_stages()) big = &j;
  }
  return big;
}

void BM_DecideTempStorage(benchmark::State& state) {
  auto* env = Env();
  const auto* job = BigJob();
  const core::DecisionEngine& engine = env->phoebe->engine();
  for (auto _ : state) {
    auto d = engine.DecideJob(*job, engine.inference_stats(), {});
    d.status().Check();
    benchmark::DoNotOptimize(d);
  }
  state.counters["stages"] = static_cast<double>(job->graph.num_stages());
}

void BM_DecideRecovery(benchmark::State& state) {
  auto* env = Env();
  const auto* job = BigJob();
  const core::DecisionEngine& engine = env->phoebe->engine();
  for (auto _ : state) {
    auto d = engine.DecideJob(*job, engine.inference_stats(),
                              {core::Objective::kRecovery});
    d.status().Check();
    benchmark::DoNotOptimize(d);
  }
}

void BM_ScoreOnly(benchmark::State& state) {
  auto* env = Env();
  const auto* job = BigJob();
  const core::DecisionEngine& engine = env->phoebe->engine();
  for (auto _ : state) {
    auto costs = engine.BuildCosts(*job, core::CostSource::kMlStacked,
                                   engine.inference_stats());
    costs.status().Check();
    benchmark::DoNotOptimize(costs);
  }
}

void BM_OptimizeOnly(benchmark::State& state) {
  auto* env = Env();
  const auto* job = BigJob();
  const core::DecisionEngine& engine = env->phoebe->engine();
  auto costs = engine.BuildCosts(*job, core::CostSource::kMlStacked,
                                 engine.inference_stats());
  costs.status().Check();
  core::CheckpointScratch scratch;
  core::CutResult cut;
  for (auto _ : state) {
    core::OptimizeTempStorageInto(job->graph, *costs, &scratch, &cut).Check();
    benchmark::DoNotOptimize(cut);
  }
}

void BM_TrainPipeline(benchmark::State& state) {
  auto* env = Env();
  for (auto _ : state) {
    core::PhoebePipeline fresh;
    fresh.Train(env->repo, 0, env->train_days).Check();
    benchmark::DoNotOptimize(fresh);
  }
}

}  // namespace

BENCHMARK(BM_DecideTempStorage)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DecideRecovery)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScoreOnly)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OptimizeOnly)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TrainPipeline)->Unit(benchmark::kMillisecond)->Iterations(2);

BENCHMARK_MAIN();
