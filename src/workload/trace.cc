#include "workload/trace.h"

#include <algorithm>

#include "common/strings.h"

namespace phoebe::workload {

namespace {

/// Append " <v>" for each value, the trace's field separator included.
void AppendFields(std::string* out, std::initializer_list<double> values) {
  for (double v : values) {
    *out += ' ';
    AppendDouble17(out, v);
  }
}

}  // namespace

std::string SerializeTrace(const std::vector<JobInstance>& jobs) {
  std::string out;
  AppendTrace(jobs, &out);
  return out;
}

void AppendTrace(std::span<const JobInstance> jobs, std::string* out) {
  // Roughly 350 bytes per stage (nine truth and five estimate doubles at up
  // to 24 characters each, plus the stage line); one reserve instead of a
  // doubling chain.
  size_t stages = 0;
  for (const JobInstance& job : jobs) stages += job.graph.num_stages();
  out->reserve(out->size() + 32 + jobs.size() * 128 + stages * 384);

  *out += "trace v1 ";
  AppendInt(out, static_cast<int64_t>(jobs.size()));
  *out += '\n';
  for (const JobInstance& job : jobs) {
    PHOEBE_CHECK_MSG(job.truth.size() == job.graph.num_stages() &&
                         job.est.size() == job.graph.num_stages(),
                     "job arrays inconsistent with graph");
    *out += "beginjob ";
    AppendInt(out, job.job_id);
    *out += ' ';
    AppendInt(out, job.template_id);
    *out += ' ';
    AppendInt(out, job.day);
    AppendFields(out, {job.submit_time});
    *out += ' ';
    *out += job.job_name;
    *out += ' ';
    *out += job.norm_input_name;
    *out += '\n';
    job.graph.AppendText(out);
    *out += "endgraph\n";
    for (const StageTruth& t : job.truth) {
      *out += "truth";
      AppendFields(out, {t.input_bytes, t.output_bytes, t.exec_seconds, t.wall_seconds});
      *out += ' ';
      AppendInt(out, t.num_tasks);
      AppendFields(out, {t.start_time, t.end_time, t.ttl, t.tfs});
      *out += '\n';
    }
    for (const StageEstimates& e : job.est) {
      *out += "est";
      AppendFields(out, {e.est_cost, e.est_exclusive_cost, e.est_input_cardinality,
                         e.est_cardinality, e.est_output_bytes});
      *out += '\n';
    }
    *out += "endjob\n";
  }
}

Status ParseTrace(std::string_view text, std::vector<JobInstance>* out) {
  PHOEBE_CHECK(out != nullptr);
  // Lines are views into `text`; blank lines between records are skipped.
  std::string_view rest = text;
  std::string_view line;
  auto next = [&rest, &line]() -> bool {
    while (!rest.empty()) {
      const size_t nl = rest.find('\n');
      line = rest.substr(0, nl);
      rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
      if (!line.empty()) return true;
    }
    return false;
  };
  std::vector<std::string_view> tok;

  if (!next()) return Status::InvalidArgument("empty trace");
  SplitViews(line, ' ', &tok);
  if (tok.size() != 3 || tok[0] != "trace" || tok[1] != "v1") {
    return Status::InvalidArgument("bad trace header (expected 'trace v1 <n>')");
  }
  int64_t n_jobs_decl = 0;
  if (!ParseInt64(tok[2], &n_jobs_decl).ok() || n_jobs_decl < 0) {
    return Status::InvalidArgument("bad trace header: job count not a number");
  }
  // Every job occupies at least three lines; a declared count beyond that is
  // a lie (or a fuzzed header) and must not drive a giant reserve().
  const size_t num_lines = static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  if (static_cast<size_t>(n_jobs_decl) > num_lines) {
    return Status::InvalidArgument(
        StrFormat("trace header declares %lld jobs but has only %zu lines",
                  static_cast<long long>(n_jobs_decl), num_lines));
  }
  const size_t n_jobs = static_cast<size_t>(n_jobs_decl);

  std::vector<JobInstance> jobs;
  jobs.reserve(n_jobs);
  for (size_t j = 0; j < n_jobs; ++j) {
    if (!next()) return Status::InvalidArgument("truncated trace: missing beginjob");
    SplitViews(line, ' ', &tok);
    if (tok.size() != 7 || tok[0] != "beginjob") {
      return Status::InvalidArgument(
          StrFormat("job %zu: bad beginjob line '%.*s'", j,
                    static_cast<int>(line.size()), line.data()));
    }
    JobInstance job;
    if (!ParseInt64(tok[1], &job.job_id).ok() || !ParseInt32(tok[2], &job.template_id).ok() ||
        !ParseInt32(tok[3], &job.day).ok() || !ParseFiniteDouble(tok[4], &job.submit_time).ok()) {
      return Status::InvalidArgument(
          StrFormat("job %zu: bad beginjob fields '%.*s'", j,
                    static_cast<int>(line.size()), line.data()));
    }
    job.job_name = tok[5];
    job.norm_input_name = tok[6];

    // Graph block up to 'endgraph', handed to FromText as a view of `text`.
    const char* graph_begin = rest.data();
    while (true) {
      if (!next()) return Status::InvalidArgument("truncated trace: missing endgraph");
      if (line == "endgraph") break;
    }
    PHOEBE_RETURN_NOT_OK(dag::JobGraph::FromText(
        std::string_view(graph_begin, static_cast<size_t>(line.data() - graph_begin)),
        &job.graph));

    const size_t n = job.graph.num_stages();
    job.truth.reserve(n);
    for (size_t s = 0; s < n; ++s) {
      if (!next()) return Status::InvalidArgument("truncated trace: missing truth");
      SplitViews(line, ' ', &tok);
      if (tok.size() != 10 || tok[0] != "truth") {
        return Status::InvalidArgument(
            StrFormat("job %zu stage %zu: bad truth line", j, s));
      }
      StageTruth t;
      bool ok = ParseFiniteDouble(tok[1], &t.input_bytes).ok() &&
                ParseFiniteDouble(tok[2], &t.output_bytes).ok() &&
                ParseFiniteDouble(tok[3], &t.exec_seconds).ok() &&
                ParseFiniteDouble(tok[4], &t.wall_seconds).ok() &&
                ParseInt32(tok[5], &t.num_tasks).ok() &&
                ParseFiniteDouble(tok[6], &t.start_time).ok() &&
                ParseFiniteDouble(tok[7], &t.end_time).ok() &&
                ParseFiniteDouble(tok[8], &t.ttl).ok() && ParseFiniteDouble(tok[9], &t.tfs).ok();
      if (!ok) {
        return Status::InvalidArgument(
            StrFormat("job %zu stage %zu: bad truth fields", j, s));
      }
      if (t.num_tasks < 1) {
        return Status::InvalidArgument(
            StrFormat("job %zu stage %zu: num_tasks < 1", j, s));
      }
      job.truth.push_back(t);
    }
    job.est.reserve(n);
    for (size_t s = 0; s < n; ++s) {
      if (!next()) return Status::InvalidArgument("truncated trace: missing est");
      SplitViews(line, ' ', &tok);
      if (tok.size() != 6 || tok[0] != "est") {
        return Status::InvalidArgument(
            StrFormat("job %zu stage %zu: bad est line", j, s));
      }
      StageEstimates e;
      bool ok = ParseFiniteDouble(tok[1], &e.est_cost).ok() &&
                ParseFiniteDouble(tok[2], &e.est_exclusive_cost).ok() &&
                ParseFiniteDouble(tok[3], &e.est_input_cardinality).ok() &&
                ParseFiniteDouble(tok[4], &e.est_cardinality).ok() &&
                ParseFiniteDouble(tok[5], &e.est_output_bytes).ok();
      if (!ok) {
        return Status::InvalidArgument(
            StrFormat("job %zu stage %zu: bad est fields", j, s));
      }
      job.est.push_back(e);
    }
    if (!next() || line != "endjob") {
      return Status::InvalidArgument(StrFormat("job %zu: missing endjob", j));
    }
    jobs.push_back(std::move(job));
  }
  *out = std::move(jobs);
  return Status::OK();
}

}  // namespace phoebe::workload
