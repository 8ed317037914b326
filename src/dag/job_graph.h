// Job execution graphs: DAGs of stages, as produced by the SCOPE compiler.
//
// A JobGraph is the unit Phoebe optimizes over. Stages are identified by a
// dense StageId (their index), edges point from upstream (producer) to
// downstream (consumer). The graph is append-only; validation and traversal
// helpers live on the class.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "dag/operator_kind.h"

namespace phoebe::dag {

using StageId = int32_t;
inline constexpr StageId kInvalidStage = -1;

/// \brief One executable unit of a job plan: a chain of operators that runs
/// as parallel tasks over data partitions.
struct Stage {
  StageId id = kInvalidStage;
  std::string name;                      ///< e.g. "SV2_Aggregate_Split"
  std::vector<OperatorKind> operators;   ///< pipeline within the stage
  int stage_type = -1;                   ///< index into the stage-type catalog
  int num_tasks = 1;                     ///< parallel tasks (v_u in the paper)
};

/// \brief Directed edge from producer stage `from` to consumer stage `to`.
struct Edge {
  StageId from = kInvalidStage;
  StageId to = kInvalidStage;
  friend bool operator==(const Edge&, const Edge&) = default;
};

/// \brief DAG of stages with adjacency in both directions.
class JobGraph {
 public:
  JobGraph() = default;
  explicit JobGraph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Append a stage; its id is assigned and returned. `stage.id` is ignored.
  StageId AddStage(Stage stage);

  /// Add an edge; fails on out-of-range ids, self-loops, or duplicates.
  /// Cycles are detected by Validate(), not here (O(1) insertion).
  Status AddEdge(StageId from, StageId to);

  size_t num_stages() const { return stages_.size(); }
  size_t num_edges() const { return edges_.size(); }

  const Stage& stage(StageId id) const;
  Stage& mutable_stage(StageId id);
  const std::vector<Stage>& stages() const { return stages_; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Producer stages feeding `id` / consumer stages fed by `id`.
  const std::vector<StageId>& upstream(StageId id) const;
  const std::vector<StageId>& downstream(StageId id) const;

  /// Stages with no upstream / no downstream.
  std::vector<StageId> Roots() const;
  std::vector<StageId> Leaves() const;

  /// Full structural validation: ids dense, edges in range, acyclic.
  Status Validate() const;

  /// Reusable working storage for TopologicalOrderInto. A warm scratch (one
  /// that has seen a graph at least this large) makes the traversal
  /// allocation-free.
  struct TopoScratch {
    std::vector<int> indeg;
    std::vector<StageId> ready;
  };

  /// Kahn topological order (deterministic: ready stages are taken in id
  /// order). Fails with FailedPrecondition on a cycle.
  Result<std::vector<StageId>> TopologicalOrder() const;

  /// Same order, written into caller-owned storage (hot decide path; see
  /// core/engine.h DecideScratch). `*out` is resized to num_stages() on
  /// success and unspecified on error.
  Status TopologicalOrderInto(TopoScratch* scratch, std::vector<StageId>* out) const;

  /// Longest path length measured in stages (the "depth" of the DAG).
  /// Requires an acyclic graph.
  Result<int> CriticalPathLength() const;

  /// True if `ancestor` can reach `descendant` through directed edges.
  bool Reaches(StageId ancestor, StageId descendant) const;

  /// Serialize to the textual job-graph format (see FromText).
  std::string ToText() const;
  /// ToText appended to `*out` (the trace writer's single-buffer path).
  void AppendText(std::string* out) const;

  /// Parse the textual format:
  ///   job <name>
  ///   stage <name> <stage_type> <num_tasks> <op>[,<op>...]
  ///   edge <from_id> <to_id>
  /// Stage ids are assigned in file order. Blank lines and '#' comments are
  /// ignored. On error `*out` is untouched; any malformed input yields a
  /// clean Status naming the line (never a crash; fuzz_parser_test pins
  /// this). This is the sole parse entry point — the Status-first
  /// convention every Phoebe parser follows (see DESIGN.md).
  static Status FromText(std::string_view text, JobGraph* out);

 private:
  std::string name_;
  std::vector<Stage> stages_;
  std::vector<Edge> edges_;
  std::vector<std::vector<StageId>> upstream_;
  std::vector<std::vector<StageId>> downstream_;
};

}  // namespace phoebe::dag
