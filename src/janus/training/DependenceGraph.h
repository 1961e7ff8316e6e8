//===----------------------------------------------------------------------===//
///
/// \file
/// The global dependence graph built from training runs (paper §5.1,
/// "Mining Sequences").
///
/// For a training payload, dependencies are tracked between operations
/// within and across tasks per Equation 1 (overlapping footprints on a
/// common location, input dependencies subsumed). For each location the
/// unique maximal dependence path is the chronological chain of the
/// operations accessing it; partitioning it by task boundaries yields
/// the per-task dependent subsequences that participate in conflict
/// queries during parallel execution.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_TRAINING_DEPENDENCEGRAPH_H
#define JANUS_TRAINING_DEPENDENCEGRAPH_H

#include "janus/stm/Log.h"
#include "janus/symbolic/LocOp.h"

#include <map>
#include <vector>

namespace janus {
namespace training {

/// One operation instance from a training run.
struct OpNode {
  uint32_t Task;    ///< 1-based task id.
  uint32_t OpIndex; ///< Position within the task's log.
  Location Loc;
  symbolic::LocOp Op;
};

/// A per-location subsequence restricted to one task: the unit mined
/// into commutativity-cache candidates.
struct TaskSubsequence {
  uint32_t Task;
  symbolic::LocOpSeq Seq;
};

/// The dependence graph over the operation instances of a sequential
/// training run.
class DependenceGraph {
public:
  /// Builds the graph from the per-task logs of a training run (in
  /// execution order).
  explicit DependenceGraph(const std::vector<stm::LogEntries> &TaskLogs);

  const std::vector<OpNode> &nodes() const { return Nodes; }

  /// Edges (From, To) as node indices: From depends on To (To executed
  /// earlier, same location, Equation 1). Transitively reduced: each
  /// node depends on its immediate predecessor on the location chain.
  const std::vector<std::pair<uint32_t, uint32_t>> &edges() const {
    return Edges;
  }

  /// The maximal dependence path of each location, as node indices in
  /// execution order.
  const std::map<Location, std::vector<uint32_t>> &locationChains() const {
    return Chains;
  }

  /// Partitions every location chain by task boundaries (paper §5.1:
  /// "the path is then partitioned according to task boundaries").
  std::map<Location, std::vector<TaskSubsequence>> taskSubsequences() const;

private:
  std::vector<OpNode> Nodes;
  std::vector<std::pair<uint32_t, uint32_t>> Edges;
  std::map<Location, std::vector<uint32_t>> Chains;
};

} // namespace training
} // namespace janus

#endif // JANUS_TRAINING_DEPENDENCEGRAPH_H
