#include "telemetry/repository.h"

#include "common/strings.h"

namespace phoebe::telemetry {

std::vector<StageRecord> Flatten(const workload::JobInstance& instance) {
  std::vector<StageRecord> out;
  out.reserve(instance.graph.num_stages());
  for (size_t i = 0; i < instance.graph.num_stages(); ++i) {
    const dag::Stage& s = instance.graph.stage(static_cast<dag::StageId>(i));
    const workload::StageTruth& t = instance.truth[i];
    StageRecord r;
    r.job_id = instance.job_id;
    r.template_id = instance.template_id;
    r.day = instance.day;
    r.stage_id = static_cast<int>(i);
    r.stage_type = s.stage_type;
    r.job_name = instance.job_name;
    r.norm_input_name = instance.norm_input_name;
    r.num_tasks = t.num_tasks;
    r.input_bytes = t.input_bytes;
    r.output_bytes = t.output_bytes;
    r.exec_seconds = t.exec_seconds;
    r.start_time = t.start_time;
    r.end_time = t.end_time;
    r.ttl = t.ttl;
    r.tfs = t.tfs;
    r.est = instance.est[i];
    out.push_back(std::move(r));
  }
  return out;
}

HistoricStats::Entry HistoricStats::Acc::ToEntry() const {
  Entry e;
  if (n > 0) {
    e.avg_exclusive_time = sum_exec / static_cast<double>(n);
    e.avg_output_bytes = sum_output / static_cast<double>(n);
    e.avg_ttl = sum_ttl / static_cast<double>(n);
    e.support = n;
  }
  return e;
}

void HistoricStats::Accumulate(const workload::JobInstance& instance) {
  for (size_t i = 0; i < instance.graph.num_stages(); ++i) {
    const dag::Stage& s = instance.graph.stage(static_cast<dag::StageId>(i));
    const workload::StageTruth& t = instance.truth[i];
    auto fold = [&](Acc* a) {
      a->sum_exec += t.exec_seconds;
      a->sum_output += t.output_bytes;
      a->sum_ttl += t.ttl;
      ++a->n;
    };
    fold(&by_template_type_[{instance.template_id, s.stage_type}]);
    fold(&by_type_[s.stage_type]);
    fold(&global_);
  }
}

HistoricStats::Entry HistoricStats::Get(int template_id, int stage_type) const {
  auto it = by_template_type_.find({template_id, stage_type});
  if (it != by_template_type_.end() && it->second.n > 0) return it->second.ToEntry();
  auto it2 = by_type_.find(stage_type);
  if (it2 != by_type_.end() && it2->second.n > 0) return it2->second.ToEntry();
  return global_.ToEntry();
}

bool HistoricStats::HasExact(int template_id, int stage_type) const {
  return by_template_type_.count({template_id, stage_type}) > 0;
}

std::string HistoricStats::ToText() const {
  // Only the exact (template, type) accumulators and the global accumulator
  // need to persist; the per-type fallbacks rebuild from the exact entries
  // only approximately, so they are stored too.
  std::string out = StrFormat("historic_stats %zu %zu\n", by_template_type_.size(),
                              by_type_.size());
  auto acc_line = [](const char* tag, const Acc& a) {
    return StrFormat("%s %.17g %.17g %.17g %lld\n", tag, a.sum_exec, a.sum_output,
                     a.sum_ttl, static_cast<long long>(a.n));
  };
  out += acc_line("global", global_);
  for (const auto& [key, acc] : by_template_type_) {
    out += StrFormat("tt %d %d ", key.first, key.second) + acc_line("", acc).substr(1);
  }
  for (const auto& [type, acc] : by_type_) {
    out += StrFormat("t %d ", type) + acc_line("", acc).substr(1);
  }
  return out;
}

Status HistoricStats::FromText(std::string_view text, HistoricStats* out) {
  PHOEBE_CHECK(out != nullptr);
  HistoricStats stats;
  LineCursor lines(text);
  std::string_view line;
  std::vector<std::string_view> tok;
  if (!lines.Next(&line)) return Status::InvalidArgument("empty historic stats");
  SplitViews(line, ' ', &tok);
  int64_t n_tt = 0, n_t = 0;
  if (tok.size() != 3 || tok[0] != "historic_stats" || !ParseInt64(tok[1], &n_tt).ok() ||
      !ParseInt64(tok[2], &n_t).ok()) {
    return Status::InvalidArgument("bad historic_stats header");
  }
  PHOEBE_RETURN_NOT_OK(lines.CheckCount(n_tt, "template-type entries"));
  PHOEBE_RETURN_NOT_OK(lines.CheckCount(n_t, "type entries"));

  // The accumulator is the last four tokens of its line, its key the ones
  // between the tag and it.
  auto parse_line = [&](std::string_view tag, size_t n_keys, int32_t* keys,
                        Acc* acc) -> bool {
    if (!lines.Next(&line)) return false;
    SplitViews(line, ' ', &tok);
    if (tok.size() != 1 + n_keys + 4 || tok[0] != tag) return false;
    for (size_t k = 0; k < n_keys; ++k) {
      if (!ParseInt32(tok[1 + k], &keys[k]).ok()) return false;
    }
    const size_t base = 1 + n_keys;
    return ParseFiniteDouble(tok[base], &acc->sum_exec).ok() &&
           ParseFiniteDouble(tok[base + 1], &acc->sum_output).ok() &&
           ParseFiniteDouble(tok[base + 2], &acc->sum_ttl).ok() &&
           ParseInt64(tok[base + 3], &acc->n).ok() && acc->n >= 0;
  };

  if (!parse_line("global", 0, nullptr, &stats.global_)) {
    return Status::InvalidArgument("bad global accumulator");
  }
  int32_t key[2] = {0, 0};
  for (int64_t k = 0; k < n_tt; ++k) {
    Acc acc;
    if (!parse_line("tt", 2, key, &acc) ||
        !stats.by_template_type_.emplace(std::make_pair(key[0], key[1]), acc).second) {
      return Status::InvalidArgument("bad or duplicate template-type entry");
    }
  }
  for (int64_t k = 0; k < n_t; ++k) {
    Acc acc;
    if (!parse_line("t", 1, key, &acc) || !stats.by_type_.emplace(key[0], acc).second) {
      return Status::InvalidArgument("bad or duplicate type entry");
    }
  }
  if (lines.Next(&line)) return Status::InvalidArgument("trailing data after historic stats");
  *out = std::move(stats);
  return Status::OK();
}

Result<HistoricStats> HistoricStats::FromText(const std::string& text) {
  HistoricStats stats;
  PHOEBE_RETURN_NOT_OK(FromText(std::string_view(text), &stats));
  return stats;
}

Status WorkloadRepository::AddDay(int day, std::vector<workload::JobInstance> instances) {
  if (days_.count(day)) {
    return Status::AlreadyExists(StrFormat("day %d already stored", day));
  }
  days_.emplace(day, std::move(instances));
  return Status::OK();
}

size_t WorkloadRepository::EvictDaysBefore(int day) {
  size_t evicted = 0;
  for (auto it = days_.begin(); it != days_.end() && it->first < day;) {
    it = days_.erase(it);
    ++evicted;
  }
  return evicted;
}

const std::vector<workload::JobInstance>& WorkloadRepository::Day(int day) const {
  auto it = days_.find(day);
  PHOEBE_CHECK_MSG(it != days_.end(), "day not in repository");
  return it->second;
}

std::vector<int> WorkloadRepository::Days() const {
  std::vector<int> out;
  out.reserve(days_.size());
  for (const auto& [day, _] : days_) out.push_back(day);
  return out;
}

size_t WorkloadRepository::TotalJobs() const {
  size_t n = 0;
  for (const auto& [_, jobs] : days_) n += jobs.size();
  return n;
}

size_t WorkloadRepository::TotalStageRecords() const {
  size_t n = 0;
  for (const auto& [_, jobs] : days_) {
    for (const auto& j : jobs) n += j.graph.num_stages();
  }
  return n;
}

HistoricStats WorkloadRepository::StatsBefore(int day) const {
  HistoricStats stats;
  for (const auto& [d, jobs] : days_) {
    if (d >= day) break;  // map is ordered
    for (const auto& j : jobs) stats.Accumulate(j);
  }
  return stats;
}

std::string WorkloadRepository::ToCsv() const {
  std::string out =
      "job_id,template_id,day,stage_id,stage_type,job_name,norm_input_name,"
      "num_tasks,input_bytes,output_bytes,exec_seconds,start_time,end_time,ttl,tfs,"
      "est_cost,est_exclusive_cost,est_input_cardinality,est_cardinality,"
      "est_output_bytes\n";
  for (const auto& [_, jobs] : days_) {
    for (const auto& j : jobs) {
      for (const StageRecord& r : Flatten(j)) {
        out += StrFormat(
            "%lld,%d,%d,%d,%d,%s,%s,%d,%.0f,%.0f,%.3f,%.3f,%.3f,%.3f,%.3f,"
            "%.3f,%.3f,%.0f,%.0f,%.0f\n",
            static_cast<long long>(r.job_id), r.template_id, r.day, r.stage_id,
            r.stage_type, r.job_name.c_str(), r.norm_input_name.c_str(), r.num_tasks,
            r.input_bytes, r.output_bytes, r.exec_seconds, r.start_time, r.end_time,
            r.ttl, r.tfs, r.est.est_cost, r.est.est_exclusive_cost,
            r.est.est_input_cardinality, r.est.est_cardinality, r.est.est_output_bytes);
      }
    }
  }
  return out;
}

}  // namespace phoebe::telemetry
