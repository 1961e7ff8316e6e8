#include "janus/workloads/Ssca2.h"

#include "janus/support/Rng.h"

#include <thread>

using namespace janus;
using namespace janus::workloads;
using stm::TaskFn;
using stm::TxContext;

std::vector<WeightedEdge>
Ssca2Workload::generateEdges(const PayloadSpec &Payload) {
  const int Nodes = Payload.Production ? 512 : 64;
  RandomGraph G = RandomGraph::generate(Payload.Seed * 31337, Nodes, 4);
  Rng R(Payload.Seed * 48271 + Nodes);
  std::vector<WeightedEdge> Edges;
  for (int64_t U = 0, N = static_cast<int64_t>(G.Neighbors.size()); U != N;
       ++U)
    for (int64_t V : G.Neighbors[U])
      if (U < V)
        Edges.push_back(WeightedEdge{U, V, R.range(1, 9)});
  return Edges;
}

void Ssca2Workload::setup(core::Janus &J) {
  ObjectRegistry &Reg = J.registry();
  Weights = adt::TxMap::create(Reg, "ssca2.weights");
  Visited = adt::TxBitSet::create(Reg, "ssca2.visited", MaxNodes);
  Edges = adt::TxCounter::create(Reg, "ssca2.edges");
}

std::vector<TaskFn> Ssca2Workload::makeTasks(const PayloadSpec &Payload) {
  std::vector<WeightedEdge> All = generateEdges(Payload);
  const size_t BatchSize = Payload.Production ? 32 : 16;
  std::vector<TaskFn> Tasks;
  for (size_t Begin = 0; Begin < All.size(); Begin += BatchSize) {
    std::vector<WeightedEdge> Batch(
        All.begin() + Begin,
        All.begin() + std::min(Begin + BatchSize, All.size()));
    Tasks.push_back([this, Batch](TxContext &Tx) {
      for (size_t I = 0; I != Batch.size(); ++I) {
        // Yield mid-batch so begin..commit windows overlap across
        // workers even on a single hardware core; without overlap the
        // threaded engine never consults the detector.
        if (I == Batch.size() / 2)
          std::this_thread::yield();
        const WeightedEdge &E = Batch[I];
        Weights.addAt(Tx, indexedKey('n', E.U), E.Weight);
        Weights.addAt(Tx, indexedKey('n', E.V), E.Weight);
        Visited.set(Tx, E.U);
        Visited.set(Tx, E.V);
        Edges.add(Tx, 1);
      }
      Tx.localWork(static_cast<double>(Batch.size()) * 0.1);
    });
  }
  return Tasks;
}

bool Ssca2Workload::verify(core::Janus &J, const PayloadSpec &Payload) {
  std::vector<WeightedEdge> All = generateEdges(Payload);
  std::vector<int64_t> Expected(MaxNodes, 0);
  std::vector<bool> Touched(MaxNodes, false);
  for (const WeightedEdge &E : All) {
    Expected[E.U] += E.Weight;
    Expected[E.V] += E.Weight;
    Touched[E.U] = Touched[E.V] = true;
  }
  for (int64_t N = 0; N != MaxNodes; ++N) {
    Value W = J.valueAt(Weights.locationAt(indexedKey('n', N)));
    int64_t Got = W.isInt() ? W.asInt() : 0;
    if (Got != Expected[N])
      return false;
    Value Bit = J.valueAt(Location(Visited.object(), N));
    bool Set = Bit.isBool() && Bit.asBool();
    if (Set != Touched[N])
      return false;
  }
  return J.valueAt(Edges.location()) ==
         Value::of(static_cast<int64_t>(All.size()));
}
