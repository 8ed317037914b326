// Multi-process fleet sharding: the serialization protocol that lets N
// independent processes split a multi-day fleet run by day and still produce
// a FleetDayReport stream byte-identical to the unsharded run.
//
// Protocol (see DESIGN.md "Artifacts & serving"):
//   1. Every process loads the *same* PipelineBundle (the header carries the
//      bundle checksum so a mismatched artifact fails loudly at merge).
//   2. Shard I of N decides the days it owns — day d (0-based) belongs to
//      shard d % N — with FleetDriver::DecideDay, which touches no shared
//      state, and writes one blob file.
//   3. A serial merge parses the blobs, checks they tile the day range
//      exactly, and replays each day in order through FleetDriver::ReplayDay
//      on one driver. The admission knapsack and the template decision cache
//      are inherently sequential (admission consumes budget in arrival
//      order; the cache carries state across days), so they run only here —
//      and because ReplayDay shares RunDay's code path, the merged reports
//      are byte-for-byte the unsharded ones.
//
// Blob text format (line-oriented, strict parse, '\n' line ends):
//   phoebe_shard 2
//   shard <index> <count> days <num_days> checksum <crc32 hex8>
//   day <d> jobs <m>
//     job <i> -                                    # ineligible (< 2 stages)
//     job <i> <objective> <global_bytes> <k>       # doubles as %.17g
//       cut <01-bitstring>                         # k lines, innermost-first
//   end_day
//   ...
//   end_shard
//
// A blob carries decisions only: it is a per-run intermediate tied to one
// bundle checksum, and re-running the shards reproduces it, so the merge
// always replays and never trusts a shard-side report. Versions 1 and 2
// share this body (v2 once allowed embedded `report`/`outcome` sections,
// which now fail to parse).
//
// Version 3 adds optional per-day *arm* sections for differential A/B runs
// (core/fleet_ab.h): after the day's primary records (arm 0), each
// additional arm k >= 1 carries its own decisions for the same day, over
// its own job count (a scenario arm decides its own workload):
//   arm <k> jobs <m_k>        # k strictly increasing within the day
//     job <i> ...             # m_k records, same line format as arm 0
//   end_arm
// The serializer stamps version 3 only when an arm section is present and
// version 2 otherwise; parsers reject arm sections in v1/v2 blobs.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/fleet.h"

namespace phoebe::core {

/// \brief Identity of one shard's blob: which slice of which run it holds.
struct FleetShardHeader {
  int shard_index = 0;          ///< 0-based shard id
  int shard_count = 1;          ///< total shards N
  int num_days = 0;             ///< days in the whole run (not per shard)
  uint32_t bundle_checksum = 0; ///< PipelineBundle::checksum() of the artifact
};

/// \brief A parsed shard blob: header + decisions for the days it owns, plus
/// (v3, optional per day) the additional arms' decisions of an A/B run. Arm
/// 0 of an A/B run is the primary `days` map, so single-arm consumers can
/// read a v3 blob without knowing about arms.
struct FleetShardBlob {
  FleetShardHeader header;
  std::map<int, FleetDayDecisions> days;  ///< day index -> decide-phase output
  /// v3: day index -> arm index (>= 1) -> that arm's decide-phase output
  /// for the day. Every day with an entry here also appears in `days` (its
  /// arm 0).
  std::map<int, std::map<int, FleetDayDecisions>> arm_days;
};

/// True iff shard `shard_index` of `shard_count` owns day `day`.
inline bool ShardOwnsDay(int day, int shard_index, int shard_count) {
  return day % shard_count == shard_index;
}

/// One job's decision record in the blob line format: the `job <i> ...`
/// line plus its `cut <bits>` lines (all newline-terminated), or `job <i> -`
/// for an ineligible slot. Shared with the serve protocol, whose decision
/// responses carry exactly this record — the two cross-process decision
/// formats cannot drift apart because they are the same bytes.
std::string SerializeJobDecisionRecord(size_t index,
                                       const std::optional<FleetDecision>& decision);

/// Strict parse of one job decision record occupying the whole string. The
/// record's job index must equal `expected_index`. `*out` untouched on
/// error.
Status ParseJobDecisionRecord(const std::string& text, size_t expected_index,
                              std::optional<FleetDecision>* out);

/// Serialize one shard's decisions. `days` must hold exactly the days the
/// header's shard owns in [0, num_days). `arm_days`, if non-null, adds the
/// additional arms of an A/B run (arm indices >= 1; every arm day must
/// appear in `days`). The blob is stamped version 3 iff at least one arm
/// section is written, version 2 otherwise.
Result<std::string> SerializeFleetShard(
    const FleetShardHeader& header, const std::map<int, FleetDayDecisions>& days,
    const std::map<int, std::map<int, FleetDayDecisions>>* arm_days = nullptr);

/// Strict parse of a shard blob (format version 1, 2, or 3); any malformed
/// line is an error.
Result<FleetShardBlob> ParseFleetShard(const std::string& text);

/// \brief Output of CombineFleetShards: the merged decision map (always
/// complete over [0, num_days)) that the merge replays day by day.
struct CombinedFleetShards {
  std::map<int, FleetDayDecisions> days;
  /// v3 A/B runs: additional arms' decisions, keyed like FleetShardBlob's
  /// map. Arm coverage is the caller's to check (the A/B merge requires
  /// every day to carry the same arm set).
  std::map<int, std::map<int, FleetDayDecisions>> arm_days;
};

/// Validate that `blobs` are the complete shard set of one run (headers
/// agree, indices 0..N-1 appear exactly once, every day is present in its
/// owner's blob and nowhere else) and merge them into one day->decisions map
/// covering [0, num_days). `expected_bundle_checksum` guards against merging
/// blobs decided under a different artifact.
Result<CombinedFleetShards> CombineFleetShards(
    const std::vector<FleetShardBlob>& blobs, uint32_t expected_bundle_checksum);

/// Canonical single-line JSON rendering of a day report — the byte-compared
/// unit of the shard/merge determinism guarantee (doubles as %.17g, key order
/// fixed, per-job outcomes included). Ends without a newline.
std::string FleetDayReportJson(const FleetDayReport& report, int day);

}  // namespace phoebe::core
