// Differential fleet A/B: N arms decide one day index, each through its own
// FleetDriver, and BuildAbDayComparison turns their decisions and reports
// into the paired per-day comparison. Arms that share a workload decide the
// identical jobs vector; scenario arms decide a differently-generated
// workload for the same day.
//
// "Is the new model/config better?" is only answerable when the
// alternatives are costed against *identical* inputs. Each arm is a plain
// FleetDriver — an immutable bundle plus its own FleetConfig, template
// cache, scratch arenas, and metrics prefix — that the caller runs with
// DecideDay then ReplayDay, the same decide/replay split a shard merge uses.
// So every arm's FleetDayReport is byte-identical to the report that arm
// would have produced in a standalone RunDay (core_fleet_ab_test pins this
// across threads, cache modes, and sharding).
//
// The harness's artifact is the paired per-day comparison: per-arm cost and
// realized saving, the decision diff against arm 0 (byte-diff of the
// shard-blob job records, the same bytes lifecycle shadow mode diffs), which
// jobs/stages flipped, and which admissions flipped. Serialized in a
// versioned text format:
//
//   phoebe_ab_report 1
//   day <d> jobs <m> arms <n>
//   arm <k> <name> <crc8> considered <c> with_cut <w> admitted <a>
//       storage <g> temp <g> realized <g> saving <g> cost <g>   # one line, %.17g
//   delta <k> decision_flips <f> admission_flips <g> saving_delta <g>
//       cost_delta <g>                                # k = 1..n-1, one line
//   flip <k> job <i> stages <s>                       # f lines, ascending i
//   admission_flip <k> job <i> <+|->                  # g lines, ascending i
//   end_day
//   ...
//   end_ab_report
//
// Arm summaries deliberately carry no template-cache counters, so a paired
// report is byte-identical whether an arm ran cache-off or exact-cache —
// the same neutrality contract the lifecycle day-report JSON keeps.
#pragma once

#include <string>
#include <vector>

#include "core/fleet.h"

namespace phoebe::core {

/// \brief What the paired comparison records about one arm.
struct FleetArmSpec {
  /// Report label. Must be non-empty and free of whitespace (it is a token
  /// in the paired-report text format); unique across the run's arms.
  std::string name;
  /// Checksum of the arm's bundle, stamped into the paired report.
  uint32_t bundle_checksum = 0;
};

/// \brief One arm's aggregate day outcome inside a paired report. A strict
/// subset of FleetDayReport: no cache counters (cache-mode neutrality), no
/// knapsack threshold (admission replays per arm; the threshold is an
/// arm-config detail, not a comparison axis).
struct AbArmDaySummary {
  std::string name;
  uint32_t checksum = 0;
  int jobs_considered = 0;
  int jobs_with_cut = 0;
  int jobs_admitted = 0;
  double storage_used_bytes = 0.0;
  double total_temp_byte_seconds = 0.0;
  double realized_saving_byte_seconds = 0.0;
  double saving_fraction = 0.0;  ///< realized / total (0 when total == 0)
  double cost = 1.0;             ///< 1 - saving_fraction (the canary metric)
};

/// \brief One decision flip vs arm 0: job `job`'s serialized decision record
/// differs; `stage_flips` counts the stages whose membership in the
/// outermost checkpoint-before set changed (an absent cut = all stages out).
struct AbDecisionFlip {
  size_t job = 0;
  int stage_flips = 0;
};

/// \brief One admission flip vs arm 0: exactly one of the two arms admitted
/// job `job`. `admitted_in_arm` says which way it flipped (true = this arm
/// admitted it and arm 0 did not).
struct AbAdmissionFlip {
  size_t job = 0;
  bool admitted_in_arm = false;
};

/// \brief Arm k's diff against arm 0 (all-zero for k = 0).
struct AbArmDelta {
  int decision_flips = 0;   ///< job slots whose decision records differ
  int admission_flips = 0;  ///< jobs admitted by exactly one of the arms
  std::vector<AbDecisionFlip> flipped_jobs;        ///< ascending job index
  std::vector<AbAdmissionFlip> admission_flipped;  ///< ascending job index
  double saving_delta = 0.0;  ///< arm.saving_fraction - arm0.saving_fraction
  double cost_delta = 0.0;    ///< arm.cost - arm0.cost
};

/// \brief The paired comparison for one day: per-arm summaries plus each
/// arm's delta against arm 0. `deltas` is aligned with `arms` (entry 0 is
/// the trivial self-diff, all zero).
struct AbDayComparison {
  int day = 0;
  int jobs = 0;  ///< day size (all arms decide the same jobs)
  std::vector<AbArmDaySummary> arms;
  std::vector<AbArmDelta> deltas;
};

/// The arm-name check every paired comparison runs: at least one arm, and
/// every name non-empty, whitespace-free, and unique. The CLI runs it on its
/// planned arms before it trains anything.
Status ValidateArmSpecs(const std::vector<FleetArmSpec>& specs);

/// Build the paired comparison for `day` from every arm's decide-phase
/// output and replayed report. `specs`, `jobs`, `decisions`, and `reports`
/// are parallel (one entry per arm, >= 1), and arm k's decisions and report
/// must cover `jobs[k]->size()` slots. Pure function. Scenario arms decide a
/// differently-generated workload, so a job-slot byte diff against arm 0 is
/// meaningless there — decision and admission flips are computed only for
/// arms whose `jobs` pointer *is* arm 0's vector (callers pass the identical
/// vector for arms that share a workload); other arms report zero flips but
/// still carry saving/cost deltas. `jobs` in the result is arm 0's day size.
Result<AbDayComparison> BuildAbDayComparison(
    int day, const std::vector<FleetArmSpec>& specs,
    const std::vector<const std::vector<workload::JobInstance>*>& jobs,
    const std::vector<FleetDayDecisions>& decisions,
    const std::vector<FleetDayReport>& reports);

/// Serialize paired day comparisons in the versioned text format above.
/// Doubles print as %.17g, so Parse(Serialize(x)) == x and equal comparisons
/// serialize byte-identically.
std::string SerializeAbReport(const std::vector<AbDayComparison>& days);

/// Strict parse of a paired report occupying the whole string (format
/// version 1); any malformed line, count mismatch, or trailing byte is an
/// error.
Result<std::vector<AbDayComparison>> ParseAbReport(const std::string& text);

}  // namespace phoebe::core
