#include "workload/stage_type.h"

#include "common/macros.h"

namespace phoebe::workload {

namespace {

using dag::OperatorKind;
using K = OperatorKind;

std::vector<StageTypeInfo> BuildCatalog() {
  std::vector<StageTypeInfo> c;
  c.reserve(kNumStageTypes);

  auto add = [&](std::string name, std::vector<K> ops, double sec_per_gb,
                 double fixed_sec, double sel_log_mean, double sel_log_sigma,
                 double overlap, double gb_per_task, bool source, bool multi,
                 bool sink) {
    StageTypeInfo t;
    t.name = std::move(name);
    t.ops = std::move(ops);
    t.sec_per_gb = sec_per_gb;
    t.fixed_sec = fixed_sec;
    t.sel_log_mean = sel_log_mean;
    t.sel_log_sigma = sel_log_sigma;
    t.pipeline_overlap = overlap;
    t.gb_per_task = gb_per_task;
    t.is_source = source;
    t.needs_multi_input = multi;
    t.is_sink = sink;
    c.push_back(std::move(t));
  };

  // --- Sources (Extract-like). Extract overlaps heavily with downstream in
  // the real engine, which is what biases the simulator's TTL upward.
  add("Extract",            {K::kExtract},                 14, 3, -0.05, 0.15, 0.00, 2.0, true,  false, false);
  add("Extract_Filter",     {K::kExtract, K::kFilter},     16, 3, -1.20, 0.60, 0.00, 2.0, true,  false, false);
  add("Extract_Split",      {K::kExtract, K::kSplit},      15, 3, -0.10, 0.20, 0.00, 2.0, true,  false, false);
  add("Extract_Partition",  {K::kExtract, K::kPartition},  18, 4, -0.02, 0.10, 0.00, 2.0, true,  false, false);
  add("Extract_Process",    {K::kExtract, K::kProcess},    30, 5, -0.40, 0.70, 0.00, 1.5, true,  false, false);

  // --- Interior single-input types.
  add("Filter",             {K::kFilter},                   5, 1, -1.40, 0.80, 0.78, 1.0, false, false, false);
  add("Filter_Project",     {K::kFilter, K::kProject},      6, 1, -1.70, 0.80, 0.78, 1.0, false, false, false);
  add("Project",            {K::kProject},                  4, 1, -0.45, 0.30, 0.82, 1.0, false, false, false);
  add("Aggregate",          {K::kAggregate},               12, 2, -2.80, 1.00, 0.35, 1.0, false, false, false);
  add("Aggregate_Split",    {K::kAggregate, K::kSplit},    13, 2, -2.60, 1.00, 0.35, 1.0, false, false, false);
  add("Aggregate_Partition",{K::kAggregate, K::kPartition},15, 3, -2.50, 1.00, 0.30, 1.0, false, false, false);
  add("Sort",               {K::kSort},                    20, 3,  0.00, 0.02, 0.25, 0.8, false, false, false);
  add("Sort_TopN",          {K::kSort, K::kTopN},          18, 3, -4.50, 1.20, 0.25, 0.8, false, false, false);
  add("Partition",          {K::kPartition},                8, 2, -0.01, 0.05, 0.72, 1.2, false, false, false);
  add("Merge",              {K::kMerge},                    6, 2, -0.02, 0.05, 0.60, 1.2, false, false, false);
  add("Merge_Aggregate",    {K::kMerge, K::kAggregate},    14, 3, -2.40, 1.00, 0.32, 1.0, false, false, false);
  add("Merge_Sort",         {K::kMerge, K::kSort},         22, 3, -0.01, 0.02, 0.22, 0.8, false, false, false);
  add("Split",              {K::kSplit},                    4, 1, -0.05, 0.10, 0.75, 1.2, false, false, false);
  add("Process",            {K::kProcess},                 26, 4, -0.30, 0.90, 0.45, 1.0, false, false, false);
  add("Process_Partition",  {K::kProcess, K::kPartition},  28, 4, -0.25, 0.90, 0.45, 1.0, false, false, false);
  add("Reduce",             {K::kReduce},                  24, 4, -1.80, 1.00, 0.30, 1.0, false, false, false);
  add("Reduce_Partition",   {K::kReduce, K::kPartition},   26, 4, -1.70, 1.00, 0.30, 1.0, false, false, false);
  add("TopN",               {K::kTopN},                     6, 1, -5.00, 1.00, 0.65, 1.0, false, false, false);
  add("Window",             {K::kWindow},                  17, 3, -0.10, 0.20, 0.35, 0.9, false, false, false);
  add("Spool",              {K::kSpool},                    7, 2,  0.00, 0.02, 0.55, 1.2, false, false, false);

  // --- Interior multi-input types (joins / unions).
  add("HashJoin",           {K::kHashJoin},                16, 3,  0.15, 0.70, 0.50, 0.9, false, true,  false);
  add("HashJoin_Filter",    {K::kHashJoin, K::kFilter},    17, 3, -0.90, 0.90, 0.50, 0.9, false, true,  false);
  add("HashJoin_Partition", {K::kHashJoin, K::kPartition}, 19, 4,  0.10, 0.70, 0.45, 0.9, false, true,  false);
  add("MergeJoin",          {K::kMergeJoin},               21, 3,  0.05, 0.60, 0.40, 0.9, false, true,  false);
  add("MergeJoin_Filter",   {K::kMergeJoin, K::kFilter},   22, 3, -1.00, 0.90, 0.40, 0.9, false, true,  false);
  add("Broadcast",          {K::kBroadcast},                5, 2, -0.01, 0.05, 0.65, 1.5, false, true,  false);
  add("Union",              {K::kUnion},                    4, 1,  0.00, 0.02, 0.70, 1.5, false, true,  false);

  // --- Sink.
  add("Output",             {K::kOutput},                   9, 2, -0.01, 0.02, 0.20, 1.5, false, false, true);

  PHOEBE_CHECK(static_cast<int>(c.size()) == kNumStageTypes);
  return c;
}

std::vector<int> Filtered(bool (*pred)(const StageTypeInfo&)) {
  std::vector<int> out;
  const auto& cat = StageTypeCatalog();
  for (int i = 0; i < static_cast<int>(cat.size()); ++i) {
    if (pred(cat[static_cast<size_t>(i)])) out.push_back(i);
  }
  return out;
}

}  // namespace

const std::vector<StageTypeInfo>& StageTypeCatalog() {
  static const std::vector<StageTypeInfo> kCatalog = BuildCatalog();
  return kCatalog;
}

const std::vector<int>& SourceStageTypes() {
  static const std::vector<int> kIds =
      Filtered([](const StageTypeInfo& t) { return t.is_source; });
  return kIds;
}

const std::vector<int>& SinkStageTypes() {
  static const std::vector<int> kIds =
      Filtered([](const StageTypeInfo& t) { return t.is_sink; });
  return kIds;
}

const std::vector<int>& InteriorStageTypes() {
  static const std::vector<int> kIds = Filtered(
      [](const StageTypeInfo& t) { return !t.is_source && !t.is_sink; });
  return kIds;
}

}  // namespace phoebe::workload
