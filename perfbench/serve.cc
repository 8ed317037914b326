// serve-closed and serve-concurrent: an in-process ServeServer with one
// decide worker, driven over loopback sockets with the jobs of five held-out
// days by closed-loop clients, each a cluster compiler waiting for its
// decision.
//
// serve-closed is one client, so no queue forms and every batch holds one
// request: latency is protocol + socket + decide. serve-concurrent is four
// clients on four connections against the one worker, so requests queue,
// the worker coalesces them, and queue wait and batch size set the latency.
// A batch-scoring change should move serve-concurrent and leave serve-closed
// alone.
//
// An open loop (Poisson arrivals at a fixed rate) would model independent
// users, but at the rates one worker sustains, its threads idle between
// requests, and on a VM the time to wake them moved the open loop's p50 by up
// to 20% and its p90 by up to 30% between runs. The closed loops keep the
// threads busy and their numbers steady.
#include <algorithm>
#include <latch>
#include <thread>

#include "bench.h"
#include "core/evaluate.h"
#include "core/retrainer.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace phoebe::perfbench {
namespace {

struct Shape {
  int templates;
  int train_days;
  int held_out_days;  ///< days whose jobs the requests cycle through
  int warmup;         ///< untimed requests per client before measuring
};

Shape ShapeFor(const Options& o) {
  return o.smoke ? Shape{20, 2, 1, 50} : Shape{200, 3, 5, 1000};
}

/// The requests' jobs: every job of the held-out days in arrival order, with
/// the response the server must send for each.
struct Pool {
  std::vector<const workload::JobInstance*> jobs;
  std::vector<std::string> expected;  ///< byte-exact response payload per job
  double saving_fraction = 0.0;       ///< realized saving of those decisions

  size_t size() const { return jobs.size(); }
};

/// Decides every held-out job directly through the engine the server wraps.
/// The saving is accounted as the fleet would with every cut admitted.
Pool MakePool(const Deployment& d) {
  Pool pool;
  core::DecisionEngine engine(d.bundle);
  double realized = 0.0, total = 0.0;
  for (int day = d.served_begin(); day < d.end(); ++day) {
    for (const auto& job : d.Day(day)) {
      std::optional<core::FleetDecision> decision;
      total += job.TempByteSeconds();
      if (job.graph.num_stages() >= 2) {
        auto r = engine.DecideJob(job, d.bundle->stats(), {});
        r.status().Check();
        realized += core::RealizedTempSavingMultiCut(job, r->cuts) * job.TempByteSeconds();
        decision = *std::move(r);
      }
      pool.jobs.push_back(&job);
      pool.expected.push_back(serve::SerializeDecideResponse(d.bundle->checksum(), decision));
    }
  }
  pool.saving_fraction = Ratio(realized, total);
  return pool;
}

std::unique_ptr<serve::ServeServer> StartServer(
    std::shared_ptr<const core::PipelineBundle> bundle, obs::MetricsRegistry* registry) {
  serve::ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.metrics = registry;
  auto server = std::make_unique<serve::ServeServer>(std::move(bundle), cfg);
  server->Start().Check();
  return server;
}

/// Client-side view of one traffic phase.
struct Traffic {
  std::vector<double> latency_s;
  double wall_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// `clients` closed-loop clients, one connection each. After `warmup`
/// untimed requests each, they all send for `seconds`; client c starts at
/// job c * size / clients of the pool and cycles through it.
Traffic ClosedLoop(int port, const Pool& pool, int clients, int warmup, double seconds) {
  std::vector<Traffic> per(static_cast<size_t>(clients));
  std::latch warmed(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Traffic& t = per[static_cast<size_t>(c)];
      serve::ServeClient client;
      client.Connect(port).Check();
      std::string raw;
      const size_t first = static_cast<size_t>(c) * pool.size() / static_cast<size_t>(clients);
      for (int i = 0; i < warmup; ++i) {
        client.Decide(*pool.jobs[(first + static_cast<size_t>(i)) % pool.size()], {}, &raw)
            .status()
            .Check();
      }
      warmed.arrive_and_wait();
      const auto t0 = Clock::now();
      for (size_t r = first;; ++r) {
        const size_t j = r % pool.size();
        const auto q0 = Clock::now();
        Result<serve::DecideResponse> response = client.Decide(*pool.jobs[j], {}, &raw);
        const auto q1 = Clock::now();
        t.latency_s.push_back(std::chrono::duration<double>(q1 - q0).count());
        ++t.attempted;
        if (!response.ok() || raw != pool.expected[j]) ++t.failed;
        if (std::chrono::duration<double>(q1 - t0).count() >= seconds) break;
      }
      t.wall_s = SecondsSince(t0);
    });
  }
  for (std::thread& t : threads) t.join();
  Traffic all;
  for (const Traffic& t : per) {
    all.latency_s.insert(all.latency_s.end(), t.latency_s.begin(), t.latency_s.end());
    all.wall_s = std::max(all.wall_s, t.wall_s);
    all.attempted += t.attempted;
    all.failed += t.failed;
  }
  return all;
}

void RunServe(const Options& o, int clients, Report* report) {
  const Shape shape = ShapeFor(o);
  TempDir tmp(o.out_dir);

  // Set-up, repeated: generate + stats + train + bundle round trip + start
  // the server. Only the last deployment and server are kept.
  std::unique_ptr<Deployment> d;
  std::unique_ptr<serve::ServeServer> server;
  std::vector<double> setup_s;
  for (int i = 0; i < (o.trace ? 1 : kSetupReps); ++i) {
    server.reset();
    d.reset();
    auto t0 = Clock::now();
    d = Deploy(shape.templates, o.seed, shape.train_days,
               shape.train_days + shape.held_out_days, tmp.path());
    if (!o.trace) server = StartServer(d->bundle, nullptr);
    setup_s.push_back(SecondsSince(t0));
  }
  const Pool pool = MakePool(*d);
  report->Diag("jobs", static_cast<double>(pool.size()));

  if (!o.trace) {
    Traffic t = ClosedLoop(server->port(), pool, clients, shape.warmup, o.seconds);
    server->Stop();
    double r2 = 0.0;
    for (int day = d->served_begin(); day < d->end(); ++day) {
      r2 += core::EvaluateExecR2(d->bundle->exec_predictor(), d->repo, day);
    }
    report->attempted = t.attempted;
    report->failed = t.failed;
    report->Metric("setup_s", Percentile(setup_s, 0.5));
    report->Metric("decisions_per_s",
                   static_cast<double>(t.attempted - t.failed) / t.wall_s);
    report->Metric("latency_p50_ms", 1e3 * Percentile(t.latency_s, 0.50));
    report->Metric("latency_p90_ms", 1e3 * Percentile(t.latency_s, 0.90));
    report->Metric("saving_fraction", pool.saving_fraction);
    report->Metric("exec_r2", r2 / shape.held_out_days);
    report->Metric("peak_rss_mb", PeakRssMb());
    report->Diag("latency_p99_ms", 1e3 * Percentile(t.latency_s, 0.99));
    report->Diag("latency_p999_ms", 1e3 * Percentile(t.latency_s, 0.999));
    report->Diag("latency_samples", static_cast<double>(t.latency_s.size()));
    report->Check("serve.responses_byte_equal_direct_decisions", t.failed == 0);
    return;
  }

  // Traced run: half the time against a plain server, half against one
  // with the metrics registry attached.
  Traffic plain;
  {
    auto s = StartServer(d->bundle, nullptr);
    plain = ClosedLoop(s->port(), pool, clients, shape.warmup, o.seconds / 2);
  }
  obs::MetricsRegistry registry;
  Traffic traced;
  {
    auto s = StartServer(d->bundle, &registry);
    traced = ClosedLoop(s->port(), pool, clients, shape.warmup, o.seconds / 2);
  }
  report->attempted = plain.attempted + traced.attempted;
  report->failed = plain.failed + traced.failed;
  report->Check("serve.responses_byte_equal_direct_decisions", report->failed == 0);
  const double client_us = 1e6 * Mean(traced.latency_s);
  report->Metric("trace.overhead_ratio", client_us / (1e6 * Mean(plain.latency_s)) - 1.0);
  ReportSetupLayers(*d, report);

  LayerReplay replay(d->bundle, {});
  for (const auto* job : pool.jobs) replay.Add(*job, d->bundle->stats());
  replay.Run();
  replay.Finish(o.out_dir + "/" + o.workload + ".trace.jsonl", report);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  // Batch sizes are whole numbers >= 1. Histogram::Observe files a value
  // under the first bound above it, so every batch of one lands in the
  // bucket that 1.0 maps to.
  const auto& batch = snap.histograms.at("serve.batch.size");
  const size_t ones = static_cast<size_t>(
      std::upper_bound(batch.bounds.begin(), batch.bounds.end(), 1.0) - batch.bounds.begin());
  const double batches = static_cast<double>(batch.count);
  const double batch_mean = Ratio(batch.sum, batches);
  const double server_us = 1e6 * Hist(snap, "serve.request.seconds").mean();
  const double requests = static_cast<double>(Count(snap, "serve.requests"));
  report->Metric("decide.calls_per_job",
                 Ratio(static_cast<double>(Hist(snap, "engine.ml_stacked.decide.seconds").count),
                       requests));
  report->Metric("serve.requests", requests);
  report->Metric("serve.batch.mean", batch_mean);
  report->Metric("serve.batch.gt1_share",
                 1.0 - Ratio(static_cast<double>(batch.buckets[ones]), batches));
  report->Metric("serve.server.time_share", server_us / client_us);
  // Server residency minus the decide and encode it spends on the request
  // (replayed) leaves the wait for a worker plus the socket write.
  report->Metric("serve.queue_wait.time_share",
                 (server_us - replay.MeanUs("serve.decide_alloc") -
                  replay.MeanUs("serve.encode")) /
                     client_us);
  report->Metric("serve.wire.time_share", (client_us - server_us) / client_us);
  report->Diag("serve.client_us_mean", client_us);
  report->Diag("serve.server_us_mean", server_us);
  if (!o.smoke) {
    if (clients > 1) {
      report->Check("guard.batches_coalesce", batch_mean > 1.0);
    } else {
      report->Check("guard.batch_mean_is_1", batch_mean == 1.0);
    }
  }
}

}  // namespace

void RunServeClosed(const Options& o, Report* report) { RunServe(o, 1, report); }
void RunServeConcurrent(const Options& o, Report* report) { RunServe(o, 4, report); }

}  // namespace phoebe::perfbench
