// Stage-type catalog: the 33 canonical operator combinations the paper's
// production workload exhibits (Section 4.1.2). Each type carries the
// ground-truth cost-model coefficients used by the workload generator; the
// learned predictors never see these coefficients, only their effects.
#pragma once

#include <string>
#include <vector>

#include "dag/operator_kind.h"

namespace phoebe::workload {

/// \brief Ground-truth characteristics of one stage type.
struct StageTypeInfo {
  std::string name;                          ///< e.g. "Extract_Split"
  std::vector<dag::OperatorKind> ops;        ///< operator pipeline

  // Cost model (ground truth; per average task).
  double sec_per_gb = 10.0;    ///< processing rate on input data
  double fixed_sec = 2.0;      ///< per-task startup overhead
  double sel_log_mean = 0.0;   ///< log(output/input) mean
  double sel_log_sigma = 0.3;  ///< log-selectivity spread across templates

  // Scheduling behaviour.
  double pipeline_overlap = 0.0;  ///< fraction of upstream runtime this type
                                  ///< can overlap (violates strict boundaries)
  double gb_per_task = 1.0;       ///< data partition size per task

  // Structural role.
  bool is_source = false;       ///< reads external input (Extract-like)
  bool needs_multi_input = false;  ///< joins/unions need >= 2 upstreams
  bool is_sink = false;         ///< terminal output stage
};

/// The catalog; exactly 33 entries, index == stage_type id.
const std::vector<StageTypeInfo>& StageTypeCatalog();

inline constexpr int kNumStageTypes = 33;

/// Indices of catalog entries that are sources / sinks / interior types,
/// precomputed for the generator.
const std::vector<int>& SourceStageTypes();
const std::vector<int>& SinkStageTypes();
const std::vector<int>& InteriorStageTypes();  ///< neither source nor sink

}  // namespace phoebe::workload
