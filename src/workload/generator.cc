#include "workload/generator.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "ml/text.h"  // Fnv1a64 for deterministic stream derivation

namespace phoebe::workload {

namespace {

constexpr double kGb = 1e9;

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t v[2] = {a, b};
  return ml::Fnv1a64(v, sizeof(v));
}

const char* kTeams[] = {"ads",    "bing",   "office", "xbox",  "azure",
                        "mail",   "search", "store",  "maps",  "news"};
const char* kPurposes[] = {"click_agg",  "revenue_rollup", "session_join",
                           "index_build", "dedup_scrub",   "funnel_report",
                           "model_feats", "geo_enrich",    "spam_filter",
                           "usage_daily"};
const char* kCadence[] = {"hourly", "daily", "weekly", "adhoc"};

struct ExtInfo {
  const char* ext;
  double weight;
  double format_factor;  // extraction slowdown vs structured streams
};
const ExtInfo kExts[] = {
    {"ss", 0.60, 1.0}, {"log", 0.18, 2.6}, {"tsv", 0.12, 1.8}, {"csv", 0.10, 1.7}};

}  // namespace

Status WorkloadConfig::Validate() const {
  if (num_templates < 1) return Status::InvalidArgument("num_templates must be >= 1");
  if (min_stages < 2) return Status::InvalidArgument("min_stages must be >= 2");
  if (max_stages < min_stages)
    return Status::InvalidArgument("max_stages must be >= min_stages");
  if (mean_stages <= 0 || stage_sigma < 0)
    return Status::InvalidArgument("bad stage-count distribution");
  if (p_disjoint < 0 || p_disjoint > 1)
    return Status::InvalidArgument("p_disjoint must be in [0, 1]");
  if (max_tasks_per_stage < 1)
    return Status::InvalidArgument("max_tasks_per_stage must be >= 1");
  if (mean_instances_per_day <= 0)
    return Status::InvalidArgument("mean_instances_per_day must be > 0");
  return Status::OK();
}

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config,
                                     std::shared_ptr<const DayShaper> shaper)
    : config_(config), shaper_(std::move(shaper)) {
  config_.Validate().Check();
  Rng rng(config_.seed);
  templates_.reserve(static_cast<size_t>(config_.num_templates));
  for (int i = 0; i < config_.num_templates; ++i) {
    Rng tmpl_rng = rng.Fork();
    templates_.push_back(MakeTemplate(i, &tmpl_rng));
  }
  drift_.assign(templates_.size(), DriftState{});
}

double WorkloadGenerator::InputScale(int day) const {
  double growth = std::pow(1.0 + config_.daily_input_growth, static_cast<double>(day));
  double weekly =
      1.0 + config_.weekly_amplitude * std::sin(2.0 * M_PI * static_cast<double>(day) / 7.0);
  return growth * weekly;
}

JobTemplate WorkloadGenerator::MakeTemplate(int id, Rng* rng) const {
  JobTemplate t;
  t.id = id;
  t.seed = rng->NextU64();

  const char* team = kTeams[rng->UniformInt(0, 9)];
  const char* purpose = kPurposes[rng->UniformInt(0, 9)];
  const char* cadence = kCadence[static_cast<size_t>(rng->Categorical({4, 4, 1, 1}))];
  t.name = StrFormat("%s_%s_%s_v%d", team, purpose, cadence,
                     static_cast<int>(rng->UniformInt(1, 5)));

  const ExtInfo& ext = kExts[rng->Categorical(
      {kExts[0].weight, kExts[1].weight, kExts[2].weight, kExts[3].weight})];
  t.input_name = StrFormat("shares/%s/%s/part.%s", team, purpose, ext.ext);
  t.input_format_factor = ext.format_factor;

  t.base_input_gb = rng->LogNormal(config_.input_gb_log_mean, config_.input_gb_log_sigma);
  t.instances_per_day =
      std::max(0.2, rng->LogNormal(std::log(config_.mean_instances_per_day) - 0.5, 1.0));
  t.row_bytes = rng->Uniform(64.0, 2048.0);
  t.overlap_scale = rng->Uniform(0.4, 1.6);
  t.queue_scale = rng->LogNormal(0.0, 0.25);

  BuildDag(&t, rng);

  // Stable per-stage parameters.
  const auto& catalog = StageTypeCatalog();
  t.stages.reserve(t.graph.num_stages());
  for (const dag::Stage& s : t.graph.stages()) {
    const StageTypeInfo& info = catalog[static_cast<size_t>(s.stage_type)];
    TemplateStage ts;
    ts.stage_type = s.stage_type;
    ts.sel_log = info.sel_log_mean + rng->Normal(0.0, info.sel_log_sigma);
    ts.rate_factor = rng->LogNormal(0.0, 0.30);
    ts.est_bias_log = rng->Normal(0.0, config_.est_bias_sigma);
    ts.est_cost_bias_log = rng->Normal(0.0, config_.est_cost_bias_sigma);
    t.stages.push_back(ts);
  }

  // DAG depth per stage, for estimate-error compounding.
  auto order = t.graph.TopologicalOrder();
  order.status().Check();
  t.depth.assign(t.graph.num_stages(), 1);
  for (dag::StageId u : *order) {
    for (dag::StageId v : t.graph.downstream(u)) {
      t.depth[static_cast<size_t>(v)] = std::max(
          t.depth[static_cast<size_t>(v)], t.depth[static_cast<size_t>(u)] + 1);
    }
  }
  return t;
}

void WorkloadGenerator::BuildDag(JobTemplate* tmpl, Rng* rng) const {
  double mu = std::log(config_.mean_stages) - 0.5 * config_.stage_sigma * config_.stage_sigma;
  int n = static_cast<int>(std::lround(rng->LogNormal(mu, config_.stage_sigma)));
  n = std::clamp(n, config_.min_stages, config_.max_stages);

  dag::JobGraph g(tmpl->name);
  const auto& catalog = StageTypeCatalog();

  // Per-template preference weights over interior types, so templates have
  // distinct operator mixes (some join-heavy, some aggregation-heavy, ...).
  const auto& interior_types = InteriorStageTypes();
  std::vector<double> type_weights(interior_types.size());
  for (double& w : type_weights) w = rng->Exponential(1.0) + 0.05;

  int n_components = (n >= 8 && rng->Bernoulli(config_.p_disjoint)) ? 2 : 1;

  auto add_stage = [&](int stage_type) {
    const StageTypeInfo& info = catalog[static_cast<size_t>(stage_type)];
    dag::Stage s;
    s.stage_type = stage_type;
    s.operators = info.ops;
    s.num_tasks = 1;  // filled per instance
    dag::StageId id = g.AddStage(std::move(s));
    g.mutable_stage(id).name =
        StrFormat("SV%d_%s", static_cast<int>(id) + 1, info.name.c_str());
    return id;
  };

  for (int comp = 0; comp < n_components; ++comp) {
    int nc = (n_components == 1) ? n : (comp == 0 ? n / 2 : n - n / 2);
    nc = std::max(nc, config_.min_stages);
    int n_src = std::max(1, static_cast<int>(std::lround(nc * rng->Uniform(0.10, 0.25))));
    int n_sink = std::max(1, static_cast<int>(std::lround(nc * rng->Uniform(0.05, 0.15))));
    while (n_src + n_sink > nc - 1) {
      if (n_src > 1) --n_src;
      else if (n_sink > 1) --n_sink;
      else break;
    }
    int n_interior = std::max(1, nc - n_src - n_sink);

    std::vector<dag::StageId> non_sinks;  // eligible upstream candidates

    const auto& sources = SourceStageTypes();
    for (int i = 0; i < n_src; ++i) {
      // Favor plain Extract; others uniform.
      size_t pick = rng->Bernoulli(0.4)
                        ? 0
                        : static_cast<size_t>(rng->UniformInt(
                              0, static_cast<int64_t>(sources.size()) - 1));
      non_sinks.push_back(add_stage(sources[pick]));
    }

    auto pick_upstream = [&](dag::StageId self, std::vector<dag::StageId>* chosen,
                             int k) {
      // Recency-biased choice: recent producers are likelier parents, giving
      // the long chains real SCOPE plans show.
      int limit = 0;
      for (dag::StageId cand : non_sinks) {
        if (cand < self) ++limit;
      }
      if (limit == 0) return;
      for (int tries = 0; tries < 8 * k && static_cast<int>(chosen->size()) < k;
           ++tries) {
        int back = static_cast<int>(rng->Exponential(1.0 / 3.0));
        int idx = std::max(0, limit - 1 - back);
        dag::StageId cand = non_sinks[static_cast<size_t>(idx)];
        if (std::find(chosen->begin(), chosen->end(), cand) == chosen->end()) {
          chosen->push_back(cand);
        }
      }
    };

    for (int i = 0; i < n_interior; ++i) {
      size_t w = rng->Categorical(type_weights);
      int type = interior_types[w];
      bool multi = catalog[static_cast<size_t>(type)].needs_multi_input;
      if (multi && non_sinks.size() < 2) {
        // Not enough producers yet; fall back to a single-input type.
        while (catalog[static_cast<size_t>(type)].needs_multi_input) {
          type = interior_types[rng->Categorical(type_weights)];
        }
        multi = false;
      }
      dag::StageId id = add_stage(type);
      std::vector<dag::StageId> ups;
      pick_upstream(id, &ups, multi ? static_cast<int>(rng->UniformInt(2, 3)) : 1);
      for (dag::StageId u : ups) g.AddEdge(u, id).Check();
      non_sinks.push_back(id);
    }

    const auto& sinks = SinkStageTypes();
    std::vector<dag::StageId> sink_ids;
    for (int i = 0; i < n_sink; ++i) {
      dag::StageId id = add_stage(sinks[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(sinks.size()) - 1))]);
      std::vector<dag::StageId> ups;
      pick_upstream(id, &ups, static_cast<int>(rng->UniformInt(1, 2)));
      for (dag::StageId u : ups) g.AddEdge(u, id).Check();
      sink_ids.push_back(id);
    }

    // Every producer must feed something: dangling non-sink stages connect to
    // a random sink of this component.
    for (dag::StageId u : non_sinks) {
      if (g.downstream(u).empty()) {
        dag::StageId sink = sink_ids[static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(sink_ids.size()) - 1))];
        if (u != sink) g.AddEdge(u, sink).Check();
      }
    }
  }

  g.Validate().Check();
  tmpl->graph = std::move(g);
}

void WorkloadGenerator::AdvanceDrift(int template_idx, int day) {
  DriftState& st = drift_[static_cast<size_t>(template_idx)];
  if (day < st.day) {
    // Backward request: recompute the walk from scratch.
    st = DriftState{};
  }
  const JobTemplate& tmpl = templates_[static_cast<size_t>(template_idx)];
  // Mean-reverting (AR(1)) drift: parameters wander day to day — enough to
  // make week-old models stale (Figure 8) — but stay bounded over the
  // two-year horizon of Figure 1 (stationary std ~ 3x the daily sigma).
  constexpr double kReversion = 0.95;
  while (st.day < day) {
    ++st.day;
    const double sigma =
        shaper_ ? config_.daily_drift_sigma * shaper_->DriftSigmaScale(st.day)
                : config_.daily_drift_sigma;
    Rng step(Mix(tmpl.seed, 0xD41F7000ULL + static_cast<uint64_t>(st.day)));
    st.rate_walk = kReversion * st.rate_walk + step.Normal(0.0, sigma);
    st.sel_walk = kReversion * st.sel_walk + step.Normal(0.0, sigma);
  }
}

std::vector<JobInstance> WorkloadGenerator::GenerateDay(int day) {
  PHOEBE_CHECK(day >= 0);
  std::vector<JobInstance> out;
  int64_t seq = 0;
  const int num_templates = static_cast<int>(templates_.size());
  for (size_t ti = 0; ti < templates_.size(); ++ti) {
    AdvanceDrift(static_cast<int>(ti), day);
    const JobTemplate& tmpl = templates_[ti];
    Rng day_rng(Mix(Mix(config_.seed, tmpl.seed), 0xDA70000ULL + static_cast<uint64_t>(day)));
    double mean_arrivals = tmpl.instances_per_day;
    if (shaper_) {
      mean_arrivals *= shaper_->ArrivalMultiplier(day) *
                       shaper_->TemplateWeight(static_cast<int>(ti), num_templates);
    }
    int64_t count = day_rng.Poisson(mean_arrivals);
    for (int64_t k = 0; k < count; ++k) {
      Rng inst_rng = day_rng.Fork();
      int64_t job_id = static_cast<int64_t>(day) * 1000000 + seq++;
      out.push_back(MakeInstance(tmpl, drift_[ti], day, job_id, &inst_rng));
    }
  }
  last_day_ = day;
  return out;
}

JobInstance WorkloadGenerator::MakeInstance(const JobTemplate& tmpl,
                                            const DriftState& drift, int day,
                                            int64_t job_id, Rng* rng) const {
  JobInstance inst;
  inst.job_id = job_id;
  inst.template_id = tmpl.id;
  inst.day = day;
  inst.submit_time = rng->Uniform(0.0, 86400.0);
  inst.job_name = tmpl.name;
  inst.norm_input_name = tmpl.input_name;
  inst.graph = tmpl.graph;

  const size_t n = inst.graph.num_stages();
  inst.truth.assign(n, StageTruth{});
  inst.est.assign(n, StageEstimates{});

  const auto& catalog = StageTypeCatalog();
  auto order = inst.graph.TopologicalOrder();
  order.status().Check();

  const double scale =
      shaper_ ? InputScale(day) * shaper_->InputScaleMultiplier(day)
              : InputScale(day);
  const double instance_factor = rng->LogNormal(0.0, config_.input_instance_sigma);
  const double rate_drift = std::exp(drift.rate_walk);
  const double partition_scale =
      std::pow(1.0 + config_.daily_partition_growth, static_cast<double>(day));

  // --- Data flow + per-stage cost. Two parallel flows:
  //  * the *expected* flow — what a perfect compile-time model could know
  //    (root input sizes are known; selectivities and rates at their current
  //    means) — feeds the optimizer-estimate channel;
  //  * the *realized* flow adds the per-instance execution noise and is what
  //    telemetry records.
  const size_t n_stages = inst.graph.num_stages();
  std::vector<double> exp_input(n_stages), exp_output(n_stages), exp_exec(n_stages);
  for (dag::StageId u : *order) {
    const size_t ui = static_cast<size_t>(u);
    const TemplateStage& ts = tmpl.stages[ui];
    const StageTypeInfo& info = catalog[static_cast<size_t>(ts.stage_type)];
    StageTruth& tr = inst.truth[ui];

    if (inst.graph.upstream(u).empty()) {
      // Root input files: their sizes are known exactly at compile time.
      tr.input_bytes = tmpl.base_input_gb * kGb * scale * instance_factor *
                       rng->LogNormal(0.0, 0.20);
      exp_input[ui] = tr.input_bytes;
    } else {
      tr.input_bytes = 0.0;
      exp_input[ui] = 0.0;
      for (dag::StageId up : inst.graph.upstream(u)) {
        tr.input_bytes += inst.truth[static_cast<size_t>(up)].output_bytes;
        exp_input[ui] += exp_output[static_cast<size_t>(up)];
      }
    }
    tr.input_bytes = std::max(tr.input_bytes, 1e3);
    exp_input[ui] = std::max(exp_input[ui], 1e3);

    double mean_sel = std::exp(ts.sel_log + 0.2 * drift.sel_walk);
    double sel = mean_sel * std::exp(rng->Normal(0.0, config_.output_noise_sigma));
    tr.output_bytes = std::clamp(tr.input_bytes * sel, 1e3, tr.input_bytes * 20.0);
    exp_output[ui] = std::clamp(exp_input[ui] * mean_sel, 1e3, exp_input[ui] * 20.0);

    double input_gb = tr.input_bytes / kGb;
    tr.num_tasks = static_cast<int>(std::clamp<int64_t>(
        static_cast<int64_t>(std::ceil(input_gb / (info.gb_per_task * partition_scale))),
        1, config_.max_tasks_per_stage));

    double fmt = info.is_source ? tmpl.input_format_factor : 1.0;
    double gb_per_task = input_gb / tr.num_tasks;
    double mean_exec =
        info.fixed_sec + info.sec_per_gb * ts.rate_factor * rate_drift * fmt * gb_per_task;
    tr.exec_seconds = mean_exec * rng->LogNormal(0.0, config_.exec_noise_sigma);
    exp_exec[ui] =
        info.fixed_sec + info.sec_per_gb * ts.rate_factor * rate_drift * fmt *
                             (exp_input[ui] / kGb / tr.num_tasks);
  }

  // --- Ground-truth schedule: pipelined overlap, queueing jitter, cluster
  // congestion, and straggler waves. Deliberately richer than Phoebe's
  // strict-boundary simulator — the gap is what the stacking model must
  // (partially) learn, and what caps TTL predictability overall.
  const double congestion = rng->LogNormal(0.0, config_.congestion_sigma);
  // Per-run pipelining aggressiveness: how much of the configured overlap
  // this particular execution realizes (cluster load dependent, unobservable
  // at compile time). Zero-overlap simulation is an upper envelope on the
  // schedule, so this spread is one-sided unlearnable TTL error.
  const double pipe_factor = rng->Uniform(0.2, 1.2);
  for (dag::StageId u : *order) {
    const size_t ui = static_cast<size_t>(u);
    const TemplateStage& ts = tmpl.stages[ui];
    const StageTypeInfo& info = catalog[static_cast<size_t>(ts.stage_type)];
    StageTruth& tr = inst.truth[ui];

    // Wall-clock duration: stragglers stretch the stage beyond the average
    // task latency the cost models predict.
    tr.wall_seconds = tr.exec_seconds;
    if (rng->Bernoulli(config_.straggler_prob)) {
      tr.wall_seconds *= rng->Uniform(1.2, config_.straggler_max_factor);
    }

    double overlap =
        std::min(0.95, info.pipeline_overlap * tmpl.overlap_scale * pipe_factor *
                           rng->Uniform(config_.overlap_jitter_lo, 1.0));
    double start = 0.0;
    for (dag::StageId up : inst.graph.upstream(u)) {
      const StageTruth& ut = inst.truth[static_cast<size_t>(up)];
      // This stage may start before the upstream fully finishes.
      double dep = ut.end_time - overlap * ut.wall_seconds;
      dep = std::max(dep, ut.start_time + 0.05 * ut.wall_seconds);
      start = std::max(start, dep);
    }
    start += rng->Exponential(
        1.0 / (config_.queue_delay_mean_sec * congestion * tmpl.queue_scale));
    if (rng->Bernoulli(config_.queue_outlier_prob)) {
      start += rng->Pareto(config_.queue_outlier_scale_sec, 1.5);
    }
    tr.start_time = start;
    tr.end_time = start + tr.wall_seconds;
  }
  double job_end = 0.0;
  for (const StageTruth& t : inst.truth) job_end = std::max(job_end, t.end_time);
  // Finalization phase: output commit, validation, and manager teardown hold
  // temp data past the last stage's end. Unobservable at compile time, so it
  // shifts every stage's TTL by an unlearnable amount.
  job_end += rng->Exponential(1.0 / (0.10 * std::max(1.0, job_end)));
  for (StageTruth& t : inst.truth) {
    t.ttl = job_end - t.end_time;
    t.tfs = t.start_time;
  }

  // --- Optimizer-estimate channel: persistent bias + depth-compounded noise.
  for (dag::StageId u : *order) {
    const size_t ui = static_cast<size_t>(u);
    const TemplateStage& ts = tmpl.stages[ui];
    const StageTruth& tr = inst.truth[ui];
    StageEstimates& e = inst.est[ui];

    double d = static_cast<double>(tmpl.depth[ui] - 1);
    double sigma = std::sqrt(config_.est_noise_sigma * config_.est_noise_sigma +
                             config_.est_depth_sigma * config_.est_depth_sigma * d * d);

    e.est_output_bytes =
        exp_output[ui] *
        std::exp(ts.est_bias_log + config_.est_depth_bias * d + rng->Normal(0.0, sigma));
    e.est_cardinality = std::max(1.0, e.est_output_bytes / tmpl.row_bytes);
    e.est_input_cardinality = std::max(
        1.0, exp_input[ui] * std::exp(0.8 * ts.est_bias_log + rng->Normal(0.0, sigma)) /
                 tmpl.row_bytes);
    double sigma_cost =
        std::sqrt(config_.est_cost_noise_sigma * config_.est_cost_noise_sigma +
                  config_.est_cost_depth_sigma * config_.est_cost_depth_sigma * d * d);
    e.est_exclusive_cost =
        exp_exec[ui] * std::exp(ts.est_cost_bias_log + config_.est_cost_depth_bias * d +
                                rng->Normal(0.0, sigma_cost));
    // Naive cumulative cost: sums over all upstream paths (double counts in
    // diamonds, as production optimizers tend to).
    e.est_cost = e.est_exclusive_cost;
    for (dag::StageId up : inst.graph.upstream(u)) {
      e.est_cost += inst.est[static_cast<size_t>(up)].est_cost;
    }
  }

  // Publish per-stage task counts into the graph (the compiler would know
  // the intended degree of parallelism).
  for (size_t i = 0; i < n; ++i) {
    inst.graph.mutable_stage(static_cast<dag::StageId>(i)).num_tasks =
        inst.truth[i].num_tasks;
  }
  return inst;
}

}  // namespace phoebe::workload
