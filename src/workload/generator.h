// Synthetic SCOPE/Cosmos workload generation.
//
// The generator produces a population of recurring job *templates* (stable
// DAG, stage types, selectivities, input paths) and, per day, a stream of job
// *instances* with:
//   * ground-truth telemetry: input/output sizes, average task latency, task
//     counts, and a ground-truth schedule that includes pipelined overlap and
//     queueing jitter (the effects Phoebe's simulator does NOT model, which
//     is what the stacking model learns to correct);
//   * a query-optimizer estimate channel whose errors are multiplicative,
//     systematically biased per template+stage, and compound with DAG depth —
//     matching the "off by orders of magnitude" behaviour reported in §3.
//
// Distribution targets mirror the paper's motivation figures: heavy-tailed
// job sizes, most jobs finishing within ~20 minutes, task volume growing ~34%
// and input volume ~80% over two years (Figure 1), and >70% recurrence.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "workload/job_instance.h"
#include "workload/stage_type.h"

namespace phoebe::workload {

/// \brief Per-day shaping hook over the generator's base distributions.
///
/// A shaper multiplies selected generator inputs by day-dependent factors
/// without touching the underlying random streams, so a shaped workload stays
/// deterministic per (config, shaper, day) and the identity shaper (all
/// factors 1.0) is byte-identical to running with no shaper at all — ×1.0 is
/// exact in IEEE arithmetic. The scenario layer (src/scenario/) implements
/// this interface from a declarative event schedule.
///
/// Implementations must be pure functions of their constructor state: the
/// generator may call any method for any day, repeatedly, in any order.
class DayShaper {
 public:
  virtual ~DayShaper() = default;

  /// Multiplier on every template's expected arrivals for `day`.
  virtual double ArrivalMultiplier(int day) const { return 1.0; }
  /// Multiplier on the parameter random-walk step sigma at `day`.
  virtual double DriftSigmaScale(int day) const { return 1.0; }
  /// Multiplier on the per-day input-volume scale at `day`.
  virtual double InputScaleMultiplier(int day) const { return 1.0; }
  /// Relative popularity weight of template `index` out of `num_templates`.
  /// Day-independent; implementations should keep the mean over all templates
  /// at 1.0 so the total expected arrival volume stays matched.
  virtual double TemplateWeight(int index, int num_templates) const {
    (void)index;
    (void)num_templates;
    return 1.0;
  }
};

/// \brief Knobs for the synthetic workload.
struct WorkloadConfig {
  uint64_t seed = 7;
  int num_templates = 100;

  // --- DAG shape (log-normal stage counts, heavy tail).
  double mean_stages = 16.0;
  double stage_sigma = 0.75;
  int min_stages = 3;
  int max_stages = 400;
  double p_disjoint = 0.10;  ///< fraction of templates with 2 independent sub-DAGs

  // --- Data scale.
  double input_gb_log_mean = 2.6;   ///< ln of mean source input in GB (~13.5 GB)
  double input_gb_log_sigma = 1.4;  ///< across templates
  double input_instance_sigma = 0.25;  ///< per-instance input jitter
  double mean_instances_per_day = 4.0; ///< per template (Poisson)

  // --- Temporal drift.
  double daily_input_growth = 0.00082;  ///< (1+g)^730 ~ 1.82 (+80% over 2 years)
  double weekly_amplitude = 0.12;       ///< weekday/weekend seasonality
  double daily_drift_sigma = 0.11;      ///< random walk on template parameters

  // --- Ground-truth noise. The exec/output sigmas bound what any predictor
  // can reach (the paper's best models stop at R^2 0.85 / 0.91); the schedule
  // noise (congestion, queue outliers, stragglers, overlap jitter) is
  // invisible to the strict-boundary simulator and caps TTL predictability
  // (paper: R^2 0.35, correlation 0.77).
  double exec_noise_sigma = 0.22;
  double output_noise_sigma = 0.10;
  double queue_delay_mean_sec = 2.0;
  double congestion_sigma = 0.7;      ///< per-instance log factor on queueing
  double queue_outlier_prob = 0.03;   ///< chance of a Pareto queueing spike
  double queue_outlier_scale_sec = 10.0;
  double straggler_prob = 0.06;       ///< chance a stage's wall time stretches
  double straggler_max_factor = 1.6;
  double overlap_jitter_lo = 0.2;     ///< per-instance pipeline-overlap range

  // --- Optimizer-estimate channel (the flawed CLEO-style inputs).
  // Cardinality/output-size estimates are badly biased; the exclusive-cost
  // estimate is cleaner at the operator level (it is the top PFI feature in
  // the paper) but still compounds with depth, which is what produces the
  // long QError tail on large plans (Figure 9).
  double est_bias_sigma = 1.5;    ///< persistent per-(template,stage) log bias
  double est_noise_sigma = 0.50;  ///< per-instance log noise
  double est_depth_sigma = 0.22;  ///< extra log error per unit of DAG depth
  double est_cost_bias_sigma = 0.45;   ///< persistent bias on exclusive cost
  double est_cost_noise_sigma = 0.15;  ///< per-instance noise on exclusive cost
  double est_cost_depth_sigma = 0.50;  ///< depth compounding on exclusive cost
  /// Systematic depth bias: production optimizers tend to under-estimate
  /// cardinalities (and hence costs) ever more as errors propagate through
  /// joins/UDFs, which reorders whole estimated schedules.
  double est_depth_bias = -0.22;       ///< log-bias per depth level (sizes)
  double est_cost_depth_bias = -0.18;  ///< log-bias per depth level (cost)

  /// Partition sizes also grow over time (newer SKUs, bigger containers), so
  /// task counts grow slower than input volume: (1+g)^730 ~ 1.34 vs 1.82.
  double daily_partition_growth = 0.00032;

  int max_tasks_per_stage = 2000;

  Status Validate() const;
};

/// \brief Per-stage template parameters (stable across occurrences).
struct TemplateStage {
  int stage_type = 0;
  double sel_log = 0.0;      ///< log selectivity for this template's stage
  double rate_factor = 1.0;  ///< multiplier on the type's sec_per_gb
  double est_bias_log = 0.0; ///< persistent estimate-channel bias
  double est_cost_bias_log = 0.0;
};

/// \brief A recurring job: structure plus stable parameters.
struct JobTemplate {
  int id = 0;
  std::string name;              ///< normalized job name (text feature)
  std::string input_name;        ///< normalized input path (text feature)
  double input_format_factor = 1.0;  ///< text inputs are slower to extract
  double base_input_gb = 10.0;   ///< per source stage at day 0
  double instances_per_day = 4.0;
  double row_bytes = 256.0;      ///< for byte<->cardinality conversion
  uint64_t seed = 0;             ///< template-private randomness stream
  // Template-level scheduling character: how aggressively this pipeline
  // overlaps and how contended its queue is. Neither is visible to the TTL
  // stacking features, so they bound TTL predictability from below (the
  // paper's stacked TTL stays at R^2 0.35 despite correlation 0.77).
  double overlap_scale = 1.0;
  double queue_scale = 1.0;

  dag::JobGraph graph;           ///< stage names/types/ops; tasks filled per run
  std::vector<TemplateStage> stages;  ///< indexed by StageId
  std::vector<int> depth;        ///< DAG depth per stage (error compounding)
};

/// \brief Deterministic workload generator.
///
/// Days must be generated in non-decreasing order (the parameter random walk
/// advances with the day counter); regenerating the same day twice returns
/// identical instances.
class WorkloadGenerator {
 public:
  /// `shaper` may be null (the common case): no per-day shaping. A non-null
  /// shaper must be supplied at construction because the drift walk advances
  /// cumulatively — retrofitting a shaper mid-stream would desynchronize the
  /// walk from a fresh generator with the same shaper.
  explicit WorkloadGenerator(WorkloadConfig config,
                             std::shared_ptr<const DayShaper> shaper = nullptr);

  const WorkloadConfig& config() const { return config_; }
  const std::vector<JobTemplate>& templates() const { return templates_; }

  /// All job instances submitted on `day` (0-based).
  std::vector<JobInstance> GenerateDay(int day);

  /// Aggregate per-day scale factors (exposed for the Figure 1 bench).
  double InputScale(int day) const;

 private:
  struct DriftState {
    int day = -1;
    double rate_walk = 0.0;  ///< cumulative log drift on execution rates
    double sel_walk = 0.0;   ///< cumulative log drift on selectivities
  };

  JobTemplate MakeTemplate(int id, Rng* rng) const;
  void BuildDag(JobTemplate* tmpl, Rng* rng) const;
  JobInstance MakeInstance(const JobTemplate& tmpl, const DriftState& drift, int day,
                           int64_t job_id, Rng* rng) const;
  void AdvanceDrift(int template_idx, int day);

  WorkloadConfig config_;
  std::shared_ptr<const DayShaper> shaper_;  ///< null = no shaping
  std::vector<JobTemplate> templates_;
  std::vector<DriftState> drift_;  ///< per template
  int64_t next_job_id_ = 1;
  int last_day_ = -1;
};

}  // namespace phoebe::workload
