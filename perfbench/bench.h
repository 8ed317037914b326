// phoebe_bench shared pieces: run options, the per-run report, the span
// tracer, the common set-up (generate days -> train -> bundle save/load),
// and the decide-path layer replay that every traced run uses.
//
// Every workload reports the same end-to-end metrics (kEndToEnd) from an
// untraced run, and the same per-layer metrics (kLayerMetrics) from a
// separate traced run. Layers are timed from outside, by spans around calls
// into each module's public functions; the program itself is not changed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bundle.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "telemetry/repository.h"
#include "workload/generator.h"

namespace phoebe::perfbench {

using Clock = std::chrono::steady_clock;

/// Jobs replayed under spans in a traced run (the first ones decided); all
/// their spans go to the trace file and feed the per-layer aggregates.
inline constexpr uint64_t kTracedJobs = 2000;
/// Set-up repetitions in an end-to-end run; setup_s is their median.
inline constexpr int kSetupReps = 3;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
double Mean(const std::vector<double>& v);
/// num / den, or 0 when den is not positive (nothing happened).
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Peak resident set of this process so far (getrusage), in MB.
double PeakRssMb();

struct Options {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  bool smoke = false;     ///< tiny sizes, for the smoke test
  std::string out_dir;    ///< trace spans, detailed report, temp artifacts
};

/// \brief One metric name in BENCHMARK.json and the layer group that
/// produces it. A workload lists the groups it exercises; a metric of a
/// group it does not exercise is reported as 0 (nothing ran).
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* group;
};

/// End-to-end metrics, reported by every workload's untraced run.
extern const std::vector<MetricSpec> kEndToEnd;
/// Per-layer metrics, reported by every workload's traced run.
extern const std::vector<MetricSpec> kLayerMetrics;

/// \brief Everything one run reports: metrics, diagnostics that are not
/// gated (sample counts, p999, ...), and named correctness checks.
class Report {
 public:
  void Metric(const std::string& name, double value);
  void Diag(const std::string& name, double value) { diag_[name] = value; }
  void Check(const std::string& name, bool ok);

  /// Fill in the metrics of `specs`: a name the workload measured keeps its
  /// value; a name from a group in `exercised` that was not measured fails
  /// the "metrics.complete" check; any other name reports 0.
  void Finish(const std::vector<MetricSpec>& specs,
              const std::vector<std::string>& exercised);

  bool correct() const;
  /// The contract line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultLine() const;
  /// Everything, for the per-workload report file.
  std::string DetailJson(const Options& options) const;

  int64_t attempted = 0;
  int64_t failed = 0;

 private:
  std::map<std::string, double> measured_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::map<std::string, double> diag_;
  std::vector<std::pair<std::string, bool>> checks_;
};

/// \brief In-memory span recorder. A span is {trace, span, parent, name,
/// start_ns, end_ns}; spans of one job or request share a trace id. Self
/// time is a span's duration minus its children's.
class Tracer {
 public:
  /// Open a span now; `parent` is a span id from Open, or -1 for a root.
  int Open(uint64_t trace, int parent, const char* name);
  void Close(int span);

  struct Stat {
    int64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
    std::vector<double> us;  ///< per-span durations
  };
  /// Per-name aggregates over every recorded span.
  std::map<std::string, Stat> Aggregate() const;
  /// True iff every child lies inside its parent and no span's children
  /// add up to more than the span itself (self time >= 0).
  bool Nested() const;
  /// Write every span as one JSON line.
  bool WriteJsonl(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    uint64_t trace;
    int parent;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
  };
  int64_t NowNs() const;

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class SpanScope {
 public:
  SpanScope(Tracer* t, uint64_t trace, int parent, const char* name)
      : t_(t), id_(t->Open(trace, parent, name)) {}
  ~SpanScope() { t_->Close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Tracer* t_;
  int id_;
};

/// A fresh directory (mkdtemp) under the run's out dir, removed with
/// everything in it on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& parent);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Every workload draws its jobs from one fixed catalogue of recurring job
/// templates, and the seed picks which weeks of the catalogue's traffic are
/// generated. Template populations drawn per seed differ so much (heavy-tailed
/// stage counts and data volumes) that run-to-run numbers would measure the
/// draw rather than the program; a fixed fleet whose days come from the seed
/// keeps runs comparable while each seed still sees different job instances
/// (arrivals, input sizes, estimate noise, drift). Input growth is off so
/// every window has the same expected volume.
workload::WorkloadConfig Catalogue(int num_templates);
/// First generated day for `seed`: whole weeks into the traffic (so weekly
/// seasonality lines up), at least one week in so a week of history exists.
int FirstDay(uint64_t seed);

/// \brief A trained deployment: generated days, per-day stats views, and
/// the bundle as loaded back from its saved file. Built by Deploy, which is
/// what `setup_s` times.
struct Deployment {
  int first_day = 0;   ///< first generated (and first training) day
  int train_days = 0;
  int total_days = 0;  ///< generated days, training included
  telemetry::WorkloadRepository repo;
  /// stats[d] = repo.StatsBefore(d) for the last training day (admission
  /// calibration) and every day after it.
  std::map<int, telemetry::HistoricStats> stats;
  std::shared_ptr<const core::PipelineBundle> bundle;
  // Phase times, for the per-layer set-up metrics.
  double generate_s = 0.0;
  double stats_s = 0.0;
  double train_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  double bundle_bytes = 0.0;

  /// Served days are [served_begin(), end()).
  int served_begin() const { return first_day + train_days; }
  int end() const { return first_day + total_days; }
  const std::vector<workload::JobInstance>& Day(int d) const { return repo.Day(d); }
};

/// Generate `total_days` days of the `num_templates` catalogue from
/// FirstDay(seed), train on the first `train_days`, and round trip the
/// bundle through SaveToFile/LoadFromFile in `dir`.
std::unique_ptr<Deployment> Deploy(int num_templates, uint64_t seed, int train_days,
                                   int total_days, const std::string& dir);

/// Record the set-up phase times of `d` as per-layer metrics.
void ReportSetupLayers(const Deployment& d, Report* report);

/// Sum, count and mean of one histogram in a registry snapshot (0 if absent).
struct HistStat {
  int64_t count = 0;
  double sum = 0.0;
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};
HistStat Hist(const obs::MetricsSnapshot& s, const std::string& name);
int64_t Count(const obs::MetricsSnapshot& s, const std::string& name);

/// Cache and admission traffic of one pass over a workload's days.
struct FleetCounts {
  double lookups = 0, hits = 0, evictions = 0;
  double offers = 0, admitted = 0;  ///< jobs with a cut, and those admitted
};
/// The fleet.* per-layer metrics: `counts` for one pass, time shares from
/// the `fleet.*` histograms of a traced run's registry.
void ReportFleetLayers(const obs::MetricsSnapshot& snap, const FleetCounts& counts,
                       Report* report);

/// \brief Replays decisions through the public per-layer calls under spans
/// and aggregates the decide.* and codec per-layer metrics.
///
/// Each queued job gets three root spans in one trace, recorded in three
/// passes over the queue, so every call meets the jobs in arrival order as
/// the fleet's own loop does, rather than right after another call on the
/// same job has warmed the CPU caches for it:
///   decide  — DecisionEngine::DecideJobInto, the call the fleet makes;
///   layers  — the same decision rebuilt call by call: featurize
///             (StageFeaturizer::JobMatrixInto), predict_exec and
///             predict_size (StageCostPredictor::PredictJobInto, which
///             featurizes again internally), simulate
///             (SimulateScheduleInto), ttl (TtlEstimator::PredictInto) and
///             optimize (OptimizeTempStorage*Into); the resulting cut must
///             be bit-equal to DecideJobInto's;
///   request — the serve path on the wire bytes: client.encode, serve.parse,
///             serve.decide_alloc (the allocating DecideJob the serve
///             workers call), serve.encode and client.decode; the decoded
///             response must equal the decision.
class LayerReplay {
 public:
  LayerReplay(std::shared_ptr<const core::PipelineBundle> bundle,
              core::DecideOptions options);

  /// Queue `job`, decided under `stats` (both must outlive Run). Ineligible
  /// jobs, and jobs beyond kTracedJobs, are skipped.
  void Add(const workload::JobInstance& job, const telemetry::HistoricStats& stats);
  bool full() const { return items_.size() >= kTracedJobs; }
  /// Replay every queued job: the decide, layers and request passes.
  void Run();

  /// Mean duration of the spans named `name`, in microseconds.
  double MeanUs(const std::string& name) const;
  /// Adds the decide.* and codec metrics and the replay checks; writes the
  /// spans to `trace_path`.
  void Finish(const std::string& trace_path, Report* report) const;

 private:
  void Layers(uint64_t trace);
  void Request(uint64_t trace);

  std::shared_ptr<const core::PipelineBundle> bundle_;
  core::DecisionEngine engine_;
  core::DecideOptions options_;
  std::vector<std::pair<const workload::JobInstance*, const telemetry::HistoricStats*>>
      items_;
  std::vector<core::FleetDecision> decisions_;  ///< DecideJobInto's, per item
  Tracer tracer_;
  core::DecideScratch scratch_;
  core::PredictScratch exec_scratch_, size_scratch_, ttl_scratch_, feature_scratch_;
  core::SimulatorScratch sim_scratch_;
  core::CheckpointScratch checkpoint_;
  core::CutResult single_;
  core::SimulatedSchedule sim_;
  core::StageCosts costs_;
  std::vector<double> exec_;
  std::vector<core::CutResult> cuts_;
  double rows_ = 0.0;
  double request_bytes_ = 0.0;
  double response_bytes_ = 0.0;
  int64_t cut_mismatches_ = 0;
  int64_t wire_mismatches_ = 0;
};

// Workload entry points: each fills `report` with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) it measures.
void RunFleetRecurring(const Options& o, Report* report);
void RunFleetCold(const Options& o, Report* report);
void RunServeClosed(const Options& o, Report* report);
void RunServeConcurrent(const Options& o, Report* report);
void RunLifecycle(const Options& o, Report* report);

}  // namespace phoebe::perfbench
