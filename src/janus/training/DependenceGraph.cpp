#include "janus/training/DependenceGraph.h"

using namespace janus;
using namespace janus::training;

DependenceGraph::DependenceGraph(
    const std::vector<stm::LogEntries> &TaskLogs) {
  // Last node index per location, for chain edges.
  std::map<Location, uint32_t> LastOnLocation;

  for (size_t T = 0, E = TaskLogs.size(); T != E; ++T) {
    const stm::LogEntries &Log = TaskLogs[T];
    for (size_t I = 0, N = Log.size(); I != N; ++I) {
      uint32_t NodeIdx = static_cast<uint32_t>(Nodes.size());
      Nodes.push_back(OpNode{static_cast<uint32_t>(T + 1),
                             static_cast<uint32_t>(I), Log[I].Loc,
                             Log[I].Op});
      auto It = LastOnLocation.find(Log[I].Loc);
      if (It != LastOnLocation.end())
        Edges.emplace_back(NodeIdx, It->second);
      LastOnLocation[Log[I].Loc] = NodeIdx;
      Chains[Log[I].Loc].push_back(NodeIdx);
    }
  }
}

std::map<Location, std::vector<TaskSubsequence>>
DependenceGraph::taskSubsequences() const {
  std::map<Location, std::vector<TaskSubsequence>> Out;
  for (const auto &[Loc, Chain] : Chains) {
    std::vector<TaskSubsequence> &Subs = Out[Loc];
    for (uint32_t NodeIdx : Chain) {
      const OpNode &N = Nodes[NodeIdx];
      if (Subs.empty() || Subs.back().Task != N.Task)
        Subs.push_back(TaskSubsequence{N.Task, {}});
      Subs.back().Seq.push_back(N.Op);
    }
  }
  return Out;
}
