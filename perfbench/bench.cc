#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/json.h"
#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "core/simulator.h"
#include "serve/protocol.h"

namespace phoebe::perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s", "e2e"},
    {"peak_rss_mb", "MB", "e2e"},
    {"decisions_per_s", "1/s", "e2e"},
    {"latency_p50_ms", "ms", "e2e"},
    {"latency_p90_ms", "ms", "e2e"},
    {"saving_fraction", "ratio", "e2e"},
    {"exec_r2", "ratio", "e2e"},
};

const std::vector<MetricSpec> kLayerMetrics = {
    {"decide.calls_per_job", "ratio", "decide"},
    {"decide.us_p50", "us", "decide"},
    {"decide.us_p99", "us", "decide"},
    {"decide.self_us", "us", "decide"},
    {"decide.featurize.us_per_row", "us", "decide"},
    {"decide.predict_exec.us_per_row", "us", "decide"},
    {"decide.predict_size.us_per_row", "us", "decide"},
    {"decide.simulate.us_per_call", "us", "decide"},
    {"decide.ttl.us_per_row", "us", "decide"},
    {"decide.optimize.us_per_call", "us", "decide"},
    {"serve.decide_alloc.us_p50", "us", "decide"},
    {"client.encode.us", "us", "codec"},
    {"serve.parse.us", "us", "codec"},
    {"serve.encode.us", "us", "codec"},
    {"client.decode.us", "us", "codec"},
    {"serve.request_bytes", "bytes", "codec"},
    {"serve.response_bytes", "bytes", "codec"},
    {"workload.generate.s_per_day", "s", "setup"},
    {"telemetry.stats.s_per_day", "s", "setup"},
    {"train.s", "s", "setup"},
    {"bundle.save_s", "s", "setup"},
    {"bundle.load_s", "s", "setup"},
    {"bundle.bytes", "bytes", "setup"},
    {"trace.overhead_ratio", "ratio", "trace"},
    {"fleet.cache.lookups", "count", "fleet"},
    {"fleet.cache.hit_ratio", "ratio", "fleet"},
    {"fleet.cache.evictions", "count", "fleet"},
    {"fleet.cache.time_share", "ratio", "fleet"},
    {"fleet.admission.offers", "count", "fleet"},
    {"fleet.admission.admit_ratio", "ratio", "fleet"},
    {"fleet.admission.time_share", "ratio", "fleet"},
    {"fleet.decide_phase.time_share", "ratio", "fleet"},
    {"serve.requests", "count", "serve"},
    {"serve.batch.mean", "count", "serve"},
    {"serve.batch.gt1_share", "ratio", "serve"},
    {"serve.server.time_share", "ratio", "serve"},
    {"serve.queue_wait.time_share", "ratio", "serve"},
    {"serve.wire.time_share", "ratio", "serve"},
    {"lifecycle.train.time_share", "ratio", "lifecycle"},
    {"lifecycle.backtest.time_share", "ratio", "lifecycle"},
    {"lifecycle.shadow.time_share", "ratio", "lifecycle"},
    {"lifecycle.serve.time_share", "ratio", "lifecycle"},
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

// --- Report ---------------------------------------------------------------

void Report::Metric(const std::string& name, double value) { measured_[name] = value; }

void Report::Check(const std::string& name, bool ok) {
  checks_.emplace_back(name, ok);
  if (!ok) std::fprintf(stderr, "phoebe_bench: check failed: %s\n", name.c_str());
}

void Report::Finish(const std::vector<MetricSpec>& specs,
                    const std::vector<std::string>& exercised) {
  bool complete = true, finite = true;
  for (const MetricSpec& spec : specs) {
    auto it = measured_.find(spec.name);
    double value = 0.0;
    if (it != measured_.end()) {
      value = it->second;
      finite = finite && std::isfinite(value);
    } else if (std::find(exercised.begin(), exercised.end(), spec.group) !=
               exercised.end()) {
      std::fprintf(stderr, "phoebe_bench: metric %s was not measured\n", spec.name);
      complete = false;
    }
    metrics_.push_back({spec.name, {value, spec.unit}});
  }
  Check("metrics.complete", complete);
  Check("metrics.finite", finite);
}

bool Report::correct() const {
  for (const auto& [name, ok] : checks_) {
    if (!ok) return false;
  }
  return !checks_.empty();
}

namespace {

void WriteMetrics(
    JsonWriter* w,
    const std::vector<std::pair<std::string, std::pair<double, std::string>>>& metrics) {
  w->Key("metrics").BeginObject();
  for (const auto& [name, vu] : metrics) {
    w->Key(name).BeginObject();
    w->KV("value", vu.first);
    w->KV("unit", vu.second);
    w->EndObject();
  }
  w->EndObject();
}

}  // namespace

std::string Report::ResultLine() const {
  JsonWriter w;
  w.BeginObject();
  w.KV("correct", correct());
  w.KV("attempted", attempted);
  w.KV("failed", failed);
  WriteMetrics(&w, metrics_);
  w.EndObject();
  return w.str();
}

std::string Report::DetailJson(const Options& options) const {
  JsonWriter w;
  w.BeginObject();
  w.KV("workload", options.workload);
  w.KV("seed", static_cast<int64_t>(options.seed));
  w.KV("seconds", options.seconds);
  w.KV("trace", options.trace);
  w.KV("smoke", options.smoke);
  w.KV("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.KV("ops", attempted);
  w.KV("failed", failed);
  WriteMetrics(&w, metrics_);
  w.Key("checks").BeginObject();
  for (const auto& [name, ok] : checks_) w.KV(name, ok);
  w.EndObject();
  w.Key("diagnostics").BeginObject();
  for (const auto& [name, v] : diag_) w.KV(name, v);
  w.EndObject();
  w.EndObject();
  return w.str();
}

// --- Tracer ---------------------------------------------------------------

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
      .count();
}

int Tracer::Open(uint64_t trace, int parent, const char* name) {
  spans_.push_back(Span{trace, parent, name, NowNs(), -1});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::Close(int span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

std::map<std::string, Tracer::Stat> Tracer::Aggregate() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] += 1e-3 * static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Stat> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double us = 1e-3 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    Stat& st = out[spans_[i].name];
    ++st.count;
    st.total_us += us;
    st.self_us += us - child_us[i];
    st.us.push_back(us);
  }
  return out;
}

bool Tracer::Nested() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.end_ns < s.start_ns) return false;
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    if (s.trace != p.trace || s.start_ns < p.start_ns || s.end_ns > p.end_ns) return false;
    child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (child_ns[i] > spans_[i].end_ns - spans_[i].start_ns) return false;
  }
  return true;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonWriter w;
    w.BeginObject();
    w.KV("trace", static_cast<int64_t>(s.trace));
    w.KV("span", i);
    w.Key("parent");
    if (s.parent < 0) {
      w.Null();
    } else {
      w.Value(s.parent);
    }
    w.KV("name", s.name);
    w.KV("start_ns", s.start_ns);
    w.KV("end_ns", s.end_ns);
    w.EndObject();
    out << w.str() << '\n';
  }
  return static_cast<bool>(out);
}

// --- TempDir --------------------------------------------------------------

TempDir::TempDir(const std::string& parent) {
  std::filesystem::create_directories(parent);
  std::string pattern = parent + "/tmp.XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) {
    std::perror("phoebe_bench: mkdtemp");
    std::exit(2);
  }
  path_ = pattern;
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

// --- Set-up ---------------------------------------------------------------

workload::WorkloadConfig Catalogue(int num_templates) {
  workload::WorkloadConfig cfg;
  cfg.seed = 7;
  cfg.num_templates = num_templates;
  cfg.daily_input_growth = 0.0;
  cfg.daily_partition_growth = 0.0;
  return cfg;
}

int FirstDay(uint64_t seed) { return 7 * (1 + static_cast<int>(seed % 256)); }

std::unique_ptr<Deployment> Deploy(int num_templates, uint64_t seed, int train_days,
                                   int total_days, const std::string& dir) {
  auto d = std::make_unique<Deployment>();
  d->first_day = FirstDay(seed);
  d->train_days = train_days;
  d->total_days = total_days;

  auto t0 = Clock::now();
  workload::WorkloadGenerator gen(Catalogue(num_templates));
  for (int day = d->first_day; day < d->end(); ++day) {
    d->repo.AddDay(day, gen.GenerateDay(day)).Check();
  }
  d->generate_s = SecondsSince(t0);

  t0 = Clock::now();
  for (int day = d->served_begin() - 1; day < d->end(); ++day) {
    d->stats.emplace(day, d->repo.StatsBefore(day));
  }
  d->stats_s = SecondsSince(t0);

  t0 = Clock::now();
  core::PhoebePipeline pipeline;
  pipeline.Train(d->repo, d->first_day, train_days).Check();
  d->train_s = SecondsSince(t0);

  const std::string path = dir + "/bundle.phoebe";
  t0 = Clock::now();
  pipeline.bundle()->SaveToFile(path).Check();
  d->save_s = SecondsSince(t0);
  d->bundle_bytes = static_cast<double>(std::filesystem::file_size(path));

  t0 = Clock::now();
  auto loaded = core::PipelineBundle::LoadFromFile(path);
  loaded.status().Check();
  d->load_s = SecondsSince(t0);
  d->bundle = *loaded;
  PHOEBE_CHECK(d->bundle->checksum() == pipeline.bundle()->checksum());
  return d;
}

void ReportSetupLayers(const Deployment& d, Report* report) {
  report->Metric("workload.generate.s_per_day", d.generate_s / d.total_days);
  report->Metric("telemetry.stats.s_per_day",
                 d.stats.empty() ? 0.0 : d.stats_s / static_cast<double>(d.stats.size()));
  report->Metric("train.s", d.train_s);
  report->Metric("bundle.save_s", d.save_s);
  report->Metric("bundle.load_s", d.load_s);
  report->Metric("bundle.bytes", d.bundle_bytes);
}

HistStat Hist(const obs::MetricsSnapshot& s, const std::string& name) {
  HistStat h;
  auto it = s.histograms.find(name);
  if (it != s.histograms.end()) {
    h.count = it->second.count;
    h.sum = it->second.sum;
  }
  return h;
}

int64_t Count(const obs::MetricsSnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

void ReportFleetLayers(const obs::MetricsSnapshot& snap, const FleetCounts& c,
                       Report* report) {
  const double day_s = Hist(snap, "fleet.day.seconds").sum;
  report->Metric("fleet.cache.lookups", c.lookups);
  report->Metric("fleet.cache.hit_ratio", Ratio(c.hits, c.lookups));
  report->Metric("fleet.cache.evictions", c.evictions);
  report->Metric("fleet.cache.time_share",
                 Ratio(Hist(snap, "fleet.cache.lookup.seconds").sum +
                           Hist(snap, "fleet.cache.insert.seconds").sum,
                       day_s));
  report->Metric("fleet.admission.offers", c.offers);
  report->Metric("fleet.admission.admit_ratio", Ratio(c.admitted, c.offers));
  report->Metric("fleet.admission.time_share",
                 Ratio(Hist(snap, "fleet.phase.admission.seconds").sum, day_s));
  report->Metric("fleet.decide_phase.time_share",
                 Ratio(Hist(snap, "fleet.phase.decide.seconds").sum, day_s));
}

// --- Layer replay ---------------------------------------------------------

LayerReplay::LayerReplay(std::shared_ptr<const core::PipelineBundle> bundle,
                         core::DecideOptions options)
    : bundle_(std::move(bundle)), engine_(bundle_), options_(options) {
  // The replay rebuilds the kMlStacked temp-storage path, the one every
  // workload serves.
  PHOEBE_CHECK(options_.source == core::CostSource::kMlStacked);
  PHOEBE_CHECK(options_.objective == core::Objective::kTempStorage);
}

void LayerReplay::Add(const workload::JobInstance& job,
                      const telemetry::HistoricStats& stats) {
  if (job.graph.num_stages() < 2 || full()) return;  // ineligible: nothing decided
  items_.push_back({&job, &stats});
}

void LayerReplay::Run() {
  decisions_.resize(items_.size());
  for (size_t i = 0; i < items_.size(); ++i) {
    rows_ += static_cast<double>(items_[i].first->graph.num_stages());
    SpanScope s(&tracer_, i, -1, "decide");
    engine_.DecideJobInto(*items_[i].first, *items_[i].second, options_, &scratch_,
                          &decisions_[i])
        .Check();
  }
  for (size_t i = 0; i < items_.size(); ++i) Layers(i);
  for (size_t i = 0; i < items_.size(); ++i) Request(i);
}

void LayerReplay::Layers(uint64_t trace) {
  const workload::JobInstance& job = *items_[trace].first;
  const telemetry::HistoricStats& stats = *items_[trace].second;
  const core::FleetDecision& decision = decisions_[trace];
  const size_t n = job.graph.num_stages();
  const core::PipelineBundle& b = *bundle_;
  Tracer* t = &tracer_;
  SpanScope root(t, trace, -1, "layers");
  {
    SpanScope s(t, trace, root.id(), "featurize");
    b.exec_predictor().featurizer().JobMatrixInto(job, stats, &feature_scratch_.row,
                                                  &feature_scratch_.matrix);
  }
  {
    SpanScope s(t, trace, root.id(), "predict_exec");
    b.exec_predictor().PredictJobInto(job, stats, &exec_scratch_, &exec_);
  }
  {
    SpanScope s(t, trace, root.id(), "predict_size");
    b.size_predictor().PredictJobInto(job, stats, &size_scratch_, &costs_.output_bytes);
  }
  costs_.num_tasks.resize(n);
  for (size_t i = 0; i < n; ++i) costs_.num_tasks[i] = job.truth[i].num_tasks;
  {
    SpanScope s(t, trace, root.id(), "simulate");
    core::SimulateScheduleInto(job.graph, exec_, &sim_scratch_, &sim_).Check();
  }
  costs_.end_time.assign(sim_.end.begin(), sim_.end.end());
  costs_.tfs.assign(sim_.start.begin(), sim_.start.end());
  costs_.job_end = sim_.job_end;
  {
    SpanScope s(t, trace, root.id(), "ttl");
    b.ttl_estimator().PredictInto(job, sim_, &ttl_scratch_, &costs_.ttl);
  }
  {
    SpanScope s(t, trace, root.id(), "optimize");
    if (options_.num_cuts <= 1) {
      core::OptimizeTempStorageInto(job.graph, costs_, &checkpoint_, &single_).Check();
    } else {
      core::OptimizeTempStorageMultiCutInto(job.graph, costs_, options_.num_cuts,
                                            &checkpoint_, &cuts_)
          .Check();
    }
  }
  bool equal = true;
  if (options_.num_cuts <= 1) {
    equal = single_.cut.before_cut == decision.combined.cut.before_cut &&
            single_.objective == decision.combined.objective &&
            single_.global_bytes == decision.combined.global_bytes;
  } else {
    equal = cuts_.size() == decision.cuts.size() &&
            (cuts_.empty() || cuts_.front().objective == decision.combined.objective);
    for (size_t c = 0; equal && c < cuts_.size(); ++c) {
      equal = cuts_[c].cut.before_cut == decision.cuts[c].before_cut;
    }
  }
  if (!equal) ++cut_mismatches_;
}

void LayerReplay::Request(uint64_t trace) {
  const workload::JobInstance& job = *items_[trace].first;
  const core::PipelineBundle& b = *bundle_;
  Tracer* t = &tracer_;
  SpanScope root(t, trace, -1, "request");
  std::string wire, response;
  serve::DecideRequest request;
  serve::DecideResponse parsed;
  serve::Frame frame;
  size_t consumed = 0;
  Status error;
  bool ok = true;
  {
    SpanScope s(t, trace, root.id(), "client.encode");
    wire = serve::EncodeFrame(serve::Frame{serve::FrameType::kDecide, trace + 1,
                                           serve::SerializeDecideRequest(job, options_)});
  }
  {
    SpanScope s(t, trace, root.id(), "serve.parse");
    ok = serve::DecodeFrame(wire, &frame, &consumed, &error) == serve::FrameDecode::kFrame &&
         serve::ParseDecideRequest(frame.payload, &request).ok();
  }
  Result<core::FleetDecision> decided = Status::Internal("request did not parse");
  if (ok) {
    SpanScope s(t, trace, root.id(), "serve.decide_alloc");
    decided = engine_.DecideJob(request.job, b.stats(), request.options);
  }
  ok = ok && decided.ok();
  if (ok) {
    SpanScope s(t, trace, root.id(), "serve.encode");
    response = serve::EncodeFrame(
        serve::Frame{serve::FrameType::kDecision, trace + 1,
                     serve::SerializeDecideResponse(b.checksum(), *decided)});
  }
  if (ok) {
    SpanScope s(t, trace, root.id(), "client.decode");
    ok = serve::DecodeFrame(response, &frame, &consumed, &error) ==
             serve::FrameDecode::kFrame &&
         serve::ParseDecideResponse(frame.payload, &parsed).ok();
  }
  ok = ok && parsed.bundle_checksum == b.checksum() && parsed.decision.has_value() &&
       parsed.decision->cuts.size() == decided->cuts.size();
  for (size_t c = 0; ok && c < decided->cuts.size(); ++c) {
    ok = parsed.decision->cuts[c].before_cut == decided->cuts[c].before_cut;
  }
  if (!ok) ++wire_mismatches_;
  request_bytes_ += static_cast<double>(wire.size());
  response_bytes_ += static_cast<double>(response.size());
}

double LayerReplay::MeanUs(const std::string& name) const {
  auto agg = tracer_.Aggregate();
  auto it = agg.find(name);
  return it == agg.end() || it->second.count == 0
             ? 0.0
             : it->second.total_us / static_cast<double>(it->second.count);
}

void LayerReplay::Finish(const std::string& trace_path, Report* report) const {
  std::map<std::string, Tracer::Stat> agg = tracer_.Aggregate();
  const double jobs = static_cast<double>(std::max<size_t>(items_.size(), 1));
  const double rows = std::max(rows_, 1.0);
  auto total = [&](const char* name) { return agg[name].total_us; };

  report->Metric("decide.us_p50", Percentile(agg["decide"].us, 0.50));
  report->Metric("decide.us_p99", Percentile(agg["decide"].us, 0.99));
  // Engine time outside the five layer calls it makes (featurize runs
  // inside PredictJobInto, so the featurize probe is not subtracted).
  report->Metric("decide.self_us",
                 (total("decide") - total("predict_exec") - total("predict_size") -
                  total("simulate") - total("ttl") - total("optimize")) /
                     jobs);
  report->Diag("decide.rows_per_call", rows_ / jobs);
  report->Metric("decide.featurize.us_per_row", total("featurize") / rows);
  report->Metric("decide.predict_exec.us_per_row", total("predict_exec") / rows);
  report->Metric("decide.predict_size.us_per_row", total("predict_size") / rows);
  report->Metric("decide.simulate.us_per_call", total("simulate") / jobs);
  report->Metric("decide.ttl.us_per_row", total("ttl") / rows);
  report->Metric("decide.optimize.us_per_call", total("optimize") / jobs);
  report->Metric("serve.decide_alloc.us_p50", Percentile(agg["serve.decide_alloc"].us, 0.50));
  report->Metric("client.encode.us", total("client.encode") / jobs);
  report->Metric("serve.parse.us", total("serve.parse") / jobs);
  report->Metric("serve.encode.us", total("serve.encode") / jobs);
  report->Metric("client.decode.us", total("client.decode") / jobs);
  report->Metric("serve.request_bytes", request_bytes_ / jobs);
  report->Metric("serve.response_bytes", response_bytes_ / jobs);
  report->Diag("trace.spans", static_cast<double>(tracer_.size()));

  report->Diag("replay.jobs", static_cast<double>(items_.size()));
  report->Check("replay.jobs", !items_.empty());
  report->Check("replay.cuts_equal_decide_job_into", cut_mismatches_ == 0);
  report->Check("replay.wire_round_trip", wire_mismatches_ == 0);
  report->Check("trace.spans_nested", tracer_.Nested());
  // A root's children must account for it: the replay's own glue between
  // layer calls stays under 5% of the root.
  for (const char* root : {"layers", "request"}) {
    const Tracer::Stat& st = agg[root];
    report->Diag(std::string("trace.") + root + ".self_share",
                 st.total_us > 0 ? st.self_us / st.total_us : 0.0);
    report->Check(std::string("trace.") + root + ".children_cover_parent",
                  st.total_us > 0 && st.self_us >= 0 && st.self_us <= 0.05 * st.total_us);
  }
  report->Check("trace.file_written", tracer_.WriteJsonl(trace_path));
}

}  // namespace phoebe::perfbench
