#include "core/fleet_shard.h"

#include <utility>

#include "common/json.h"
#include "common/strings.h"

namespace phoebe::core {

namespace {

constexpr const char* kMagic = "phoebe_shard";
/// Maximum parseable format version. v3 added per-day `arm` sections for A/B
/// runs; v1 and v2 blobs (decisions only) still parse. The serializer stamps
/// 2 without arm sections and 3 with them.
constexpr int kFormatVersion = 3;
constexpr int kMinFormatVersion = 1;

std::string CutBits(const cluster::CutSet& cut) {
  std::string bits;
  bits.reserve(cut.before_cut.size());
  for (bool b : cut.before_cut) bits.push_back(b ? '1' : '0');
  return bits;
}

Result<cluster::CutSet> ParseCutBits(const std::string& bits) {
  if (bits.empty()) return Status::InvalidArgument("empty cut bitstring");
  cluster::CutSet cut;
  cut.before_cut.reserve(bits.size());
  for (char c : bits) {
    if (c != '0' && c != '1') {
      return Status::InvalidArgument("cut bitstring must be 0/1 only");
    }
    cut.before_cut.push_back(c == '1');
  }
  return cut;
}

/// Line cursor over the blob text; every line must end in '\n' (a missing
/// final newline is a truncation error, same convention as the bundle).
class LineReader {
 public:
  explicit LineReader(const std::string& text) : text_(text) {}

  Result<std::string> Next() {
    if (pos_ >= text_.size()) return Status::InvalidArgument("unexpected end of shard blob");
    size_t nl = text_.find('\n', pos_);
    if (nl == std::string::npos) {
      return Status::InvalidArgument("shard blob truncated (missing newline)");
    }
    std::string line = text_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return line;
  }

  bool AtEnd() const { return pos_ >= text_.size(); }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

/// Parse the `cut` lines of one job record whose job line tokens are `jt`,
/// consuming from `r`. Shared body of ParseFleetShard and
/// ParseJobDecisionRecord; `*out` untouched on error.
Status ParseJobDecisionFromTokens(const std::vector<std::string>& jt,
                                  size_t expected_index, LineReader& r,
                                  std::optional<FleetDecision>* out) {
  int32_t index = -1;
  if (jt.size() < 2 || jt[0] != "job" || !ParseInt32(jt[1], &index).ok() ||
      index < 0 || static_cast<size_t>(index) != expected_index) {
    return Status::InvalidArgument("malformed job line: " + Join(jt, " "));
  }
  if (jt.size() == 3 && jt[2] == "-") {  // ineligible slot
    out->reset();
    return Status::OK();
  }
  int32_t num_cuts = -1;
  FleetDecision d;
  if (jt.size() != 5 || !ParseFiniteDouble(jt[2], &d.combined.objective).ok() ||
      !ParseFiniteDouble(jt[3], &d.combined.global_bytes).ok() ||
      !ParseInt32(jt[4], &num_cuts).ok() || num_cuts < 0) {
    return Status::InvalidArgument("malformed job line: " + Join(jt, " "));
  }
  for (int c = 0; c < num_cuts; ++c) {
    PHOEBE_ASSIGN_OR_RETURN(std::string cut_line, r.Next());
    std::vector<std::string> ct = Split(cut_line, ' ');
    if (ct.size() != 2 || ct[0] != "cut") {
      return Status::InvalidArgument("malformed cut line: " + cut_line);
    }
    PHOEBE_ASSIGN_OR_RETURN(cluster::CutSet cut, ParseCutBits(ct[1]));
    d.cuts.push_back(std::move(cut));
  }
  if (!d.cuts.empty()) d.combined.cut = d.cuts.back();  // outermost
  out->emplace(std::move(d));
  return Status::OK();
}

}  // namespace

std::string SerializeJobDecisionRecord(size_t index,
                                       const std::optional<FleetDecision>& decision) {
  if (!decision.has_value()) return StrFormat("job %zu -\n", index);
  const FleetDecision& d = *decision;
  std::string out = StrFormat("job %zu %.17g %.17g %zu\n", index,
                              d.combined.objective, d.combined.global_bytes,
                              d.cuts.size());
  for (const cluster::CutSet& cut : d.cuts) {
    out += "cut " + CutBits(cut) + "\n";
  }
  return out;
}

Status ParseJobDecisionRecord(const std::string& text, size_t expected_index,
                              std::optional<FleetDecision>* out) {
  LineReader r(text);
  PHOEBE_ASSIGN_OR_RETURN(std::string job_line, r.Next());
  std::optional<FleetDecision> parsed;
  PHOEBE_RETURN_NOT_OK(
      ParseJobDecisionFromTokens(Split(job_line, ' '), expected_index, r, &parsed));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after job decision record");
  }
  *out = std::move(parsed);
  return Status::OK();
}

Result<std::string> SerializeFleetShard(
    const FleetShardHeader& header, const std::map<int, FleetDayDecisions>& days,
    const std::map<int, std::map<int, FleetDayDecisions>>* arm_days) {
  if (header.shard_count < 1 || header.shard_index < 0 ||
      header.shard_index >= header.shard_count) {
    return Status::InvalidArgument("invalid shard index/count");
  }
  if (header.num_days < 1) return Status::InvalidArgument("num_days must be >= 1");
  for (const auto& [day, decisions] : days) {
    if (day < 0 || day >= header.num_days) {
      return Status::InvalidArgument(StrFormat("day %d outside [0, %d)", day,
                                               header.num_days));
    }
    if (!ShardOwnsDay(day, header.shard_index, header.shard_count)) {
      return Status::InvalidArgument(
          StrFormat("day %d is not owned by shard %d/%d", day, header.shard_index,
                    header.shard_count));
    }
    (void)decisions;
  }
  bool has_arms = false;
  if (arm_days != nullptr) {
    for (const auto& [day, arms] : *arm_days) {
      if (days.count(day) == 0) {
        return Status::InvalidArgument(
            StrFormat("arm sections for day %d have no arm-0 record", day));
      }
      for (const auto& arm_entry : arms) {
        if (arm_entry.first < 1) {
          return Status::InvalidArgument(StrFormat(
              "arm index %d for day %d must be >= 1 (arm 0 is the day record)",
              arm_entry.first, day));
        }
        has_arms = true;
      }
    }
  }
  // Lowest version that can express the content: v2 without arm sections.
  std::string out = StrFormat("%s %d\n", kMagic, has_arms ? 3 : 2);
  out += StrFormat("shard %d %d days %d checksum %08x\n", header.shard_index,
                   header.shard_count, header.num_days, header.bundle_checksum);
  for (const auto& [day, decisions] : days) {
    out += StrFormat("day %d jobs %zu\n", day, decisions.decisions.size());
    for (size_t i = 0; i < decisions.decisions.size(); ++i) {
      out += SerializeJobDecisionRecord(i, decisions.decisions[i]);
    }
    if (arm_days != nullptr) {
      auto dit = arm_days->find(day);
      if (dit != arm_days->end()) {
        for (const auto& [arm, arm_decisions] : dit->second) {
          out += StrFormat("arm %d jobs %zu\n", arm,
                           arm_decisions.decisions.size());
          for (size_t i = 0; i < arm_decisions.decisions.size(); ++i) {
            out += SerializeJobDecisionRecord(i, arm_decisions.decisions[i]);
          }
          out += "end_arm\n";
        }
      }
    }
    out += "end_day\n";
  }
  out += "end_shard\n";
  return out;
}

Result<FleetShardBlob> ParseFleetShard(const std::string& text) {
  LineReader r(text);

  PHOEBE_ASSIGN_OR_RETURN(std::string magic_line, r.Next());
  int32_t version = 0;
  {
    std::vector<std::string> tok = Split(magic_line, ' ');
    if (tok.size() != 2 || tok[0] != kMagic || !ParseInt32(tok[1], &version).ok()) {
      return Status::InvalidArgument("not a phoebe shard blob (bad magic)");
    }
    if (version < kMinFormatVersion || version > kFormatVersion) {
      return Status::InvalidArgument(
          StrFormat("unsupported shard blob version %d (expected %d..%d)", version,
                    kMinFormatVersion, kFormatVersion));
    }
  }

  FleetShardBlob blob;
  {
    PHOEBE_ASSIGN_OR_RETURN(std::string line, r.Next());
    std::vector<std::string> tok = Split(line, ' ');
    if (tok.size() != 7 || tok[0] != "shard" || tok[3] != "days" ||
        tok[5] != "checksum" ||
        !ParseInt32(tok[1], &blob.header.shard_index).ok() ||
        !ParseInt32(tok[2], &blob.header.shard_count).ok() ||
        !ParseInt32(tok[4], &blob.header.num_days).ok()) {
      return Status::InvalidArgument("malformed shard header: " + line);
    }
    if (!ParseHexU32(tok[6], &blob.header.bundle_checksum).ok()) {
      return Status::InvalidArgument("malformed shard checksum: " + tok[6]);
    }
    if (blob.header.shard_count < 1 || blob.header.shard_index < 0 ||
        blob.header.shard_index >= blob.header.shard_count) {
      return Status::InvalidArgument("invalid shard index/count in header");
    }
    if (blob.header.num_days < 1) {
      return Status::InvalidArgument("invalid num_days in header");
    }
  }

  for (;;) {
    PHOEBE_ASSIGN_OR_RETURN(std::string line, r.Next());
    if (line == "end_shard") break;
    std::vector<std::string> tok = Split(line, ' ');
    int32_t day = 0, num_jobs = 0;
    if (tok.size() != 4 || tok[0] != "day" || tok[2] != "jobs" ||
        !ParseInt32(tok[1], &day).ok() || !ParseInt32(tok[3], &num_jobs).ok() || num_jobs < 0) {
      return Status::InvalidArgument("malformed day header: " + line);
    }
    if (day < 0 || day >= blob.header.num_days) {
      return Status::InvalidArgument(StrFormat("day %d outside [0, %d)", day,
                                               blob.header.num_days));
    }
    if (!ShardOwnsDay(day, blob.header.shard_index, blob.header.shard_count)) {
      return Status::InvalidArgument(
          StrFormat("day %d is not owned by shard %d/%d", day,
                    blob.header.shard_index, blob.header.shard_count));
    }
    if (blob.days.count(day) != 0) {
      return Status::InvalidArgument(StrFormat("duplicate day %d in blob", day));
    }
    FleetDayDecisions decisions;
    decisions.decisions.resize(static_cast<size_t>(num_jobs));
    for (int i = 0; i < num_jobs; ++i) {
      PHOEBE_ASSIGN_OR_RETURN(std::string job_line, r.Next());
      PHOEBE_RETURN_NOT_OK(
          ParseJobDecisionFromTokens(Split(job_line, ' '), static_cast<size_t>(i), r,
                                     &decisions.decisions[static_cast<size_t>(i)]));
    }
    PHOEBE_ASSIGN_OR_RETURN(std::string end_line, r.Next());
    int32_t last_arm = 0;
    while (end_line.rfind("arm ", 0) == 0) {  // v3: optional A/B arm sections
      if (version < 3) {
        return Status::InvalidArgument(StrFormat(
            "per-arm section in a version-%d shard blob", version));
      }
      std::vector<std::string> at = Split(end_line, ' ');
      int32_t arm = 0, arm_jobs = 0;
      if (at.size() != 4 || at[2] != "jobs" || !ParseInt32(at[1], &arm).ok() ||
          !ParseInt32(at[3], &arm_jobs).ok()) {
        return Status::InvalidArgument("malformed arm header: " + end_line);
      }
      // Arm 0 is the day's primary record; additional arms are strictly
      // increasing, each over its own job count.
      if (arm <= last_arm || arm_jobs < 0) {
        return Status::InvalidArgument("malformed arm header: " + end_line);
      }
      last_arm = arm;
      FleetDayDecisions arm_decisions;
      arm_decisions.decisions.resize(static_cast<size_t>(arm_jobs));
      for (int i = 0; i < arm_jobs; ++i) {
        PHOEBE_ASSIGN_OR_RETURN(std::string job_line, r.Next());
        PHOEBE_RETURN_NOT_OK(ParseJobDecisionFromTokens(
            Split(job_line, ' '), static_cast<size_t>(i), r,
            &arm_decisions.decisions[static_cast<size_t>(i)]));
      }
      PHOEBE_ASSIGN_OR_RETURN(std::string arm_end, r.Next());
      if (arm_end != "end_arm") {
        return Status::InvalidArgument("expected end_arm, got: " + arm_end);
      }
      blob.arm_days[day].emplace(arm, std::move(arm_decisions));
      PHOEBE_ASSIGN_OR_RETURN(end_line, r.Next());
    }
    if (end_line != "end_day") {
      return Status::InvalidArgument("expected end_day, got: " + end_line);
    }
    blob.days.emplace(day, std::move(decisions));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after end_shard");
  }
  return blob;
}

Result<CombinedFleetShards> CombineFleetShards(
    const std::vector<FleetShardBlob>& blobs, uint32_t expected_bundle_checksum) {
  if (blobs.empty()) return Status::InvalidArgument("no shard blobs to combine");
  const int shard_count = blobs.front().header.shard_count;
  const int num_days = blobs.front().header.num_days;
  if (static_cast<int>(blobs.size()) != shard_count) {
    return Status::InvalidArgument(
        StrFormat("expected %d shard blobs, got %zu", shard_count, blobs.size()));
  }
  std::vector<bool> seen(static_cast<size_t>(shard_count), false);
  CombinedFleetShards merged;
  for (const FleetShardBlob& blob : blobs) {
    const FleetShardHeader& h = blob.header;
    if (h.shard_count != shard_count || h.num_days != num_days) {
      return Status::InvalidArgument("shard blobs disagree on shard count or day range");
    }
    if (h.bundle_checksum != expected_bundle_checksum) {
      return Status::InvalidArgument(StrFormat(
          "shard %d was decided under bundle %08x, expected %08x — refusing to merge",
          h.shard_index, h.bundle_checksum, expected_bundle_checksum));
    }
    if (seen[static_cast<size_t>(h.shard_index)]) {
      return Status::InvalidArgument(StrFormat("duplicate shard index %d", h.shard_index));
    }
    seen[static_cast<size_t>(h.shard_index)] = true;
    for (const auto& [day, decisions] : blob.days) {
      merged.days.emplace(day, decisions);  // ParseFleetShard enforced ownership
    }
    for (const auto& [day, arms] : blob.arm_days) {
      merged.arm_days.emplace(day, arms);
    }
  }
  for (int s = 0; s < shard_count; ++s) {
    if (!seen[static_cast<size_t>(s)]) {
      return Status::InvalidArgument(StrFormat("missing shard %d of %d", s, shard_count));
    }
  }
  for (int d = 0; d < num_days; ++d) {
    if (merged.days.count(d) == 0) {
      return Status::InvalidArgument(
          StrFormat("day %d missing from shard %d's blob", d, d % shard_count));
    }
  }
  return merged;
}

std::string FleetDayReportJson(const FleetDayReport& report, int day) {
  JsonWriter w;
  w.BeginObject();
  w.KV("day", day);
  w.KV("jobs_considered", report.jobs_considered);
  w.KV("jobs_with_cut", report.jobs_with_cut);
  w.KV("jobs_admitted", report.jobs_admitted);
  w.KV("storage_used_bytes", report.storage_used_bytes);
  w.KV("total_temp_byte_seconds", report.total_temp_byte_seconds);
  w.KV("realized_saving_byte_seconds", report.realized_saving_byte_seconds);
  w.KV("saving_fraction", report.SavingFraction());
  w.KV("knapsack_threshold", report.knapsack_threshold);
  w.KV("cache_hits", report.cache_hits);
  w.KV("cache_misses", report.cache_misses);
  w.KV("cache_evictions", report.cache_evictions);
  w.Key("outcomes");
  w.BeginArray();
  for (const FleetJobOutcome& out : report.outcomes) {
    w.BeginObject();
    w.KV("job_id", out.job_id);
    w.KV("admitted", out.admitted);
    w.KV("global_bytes", out.global_bytes);
    w.KV("predicted_value", out.predicted_value);
    w.KV("realized_value", out.realized_value);
    w.Key("cuts");
    w.BeginArray();
    for (const cluster::CutSet& cut : out.cuts) w.Value(CutBits(cut));
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace phoebe::core
