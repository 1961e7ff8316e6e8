#include "janus/workloads/Saturation.h"

#include <algorithm>
#include <numeric>

using namespace janus;
using namespace janus::workloads;
using stm::TaskFn;
using stm::TxContext;

RandomGraph SaturationWorkload::generateGraph(const PayloadSpec &Payload) {
  // Table 6: 100 nodes / degree 10 training, 1000 nodes / degree 10
  // production.
  int Nodes = Payload.Production ? 1000 : 100;
  return RandomGraph::generate(Payload.Seed * 31 + 5, Nodes, 10);
}

void SaturationWorkload::setup(core::Janus &J) {
  ObjectRegistry &Reg = J.registry();
  ColorOf = adt::TxIntArray::create(Reg, "colorOf");
  SaturationDeg = adt::TxIntArray::create(Reg, "saturation");
  Scratch = adt::TxBitSet::create(
      Reg, "scratch", /*Capacity=*/96,
      RelaxationSpec{/*TolerateRAW=*/false, /*TolerateWAW=*/true});
  MaxColor = adt::TxIntVar::create(
      Reg, "satMaxColor", RelaxationSpec{/*TolerateRAW=*/true,
                                         /*TolerateWAW=*/false});
  ColorCounts = adt::TxMap::create(Reg, "colorCounts");
  ColoredNodes = adt::TxCounter::create(Reg, "coloredNodes");
  J.setInitial(MaxColor.location(), Value::of(int64_t(1)));
}

std::vector<TaskFn>
SaturationWorkload::makeTasks(const PayloadSpec &Payload) {
  Graph = std::make_shared<RandomGraph>(generateGraph(Payload));
  std::shared_ptr<RandomGraph> G = Graph;

  // Static priority order: by descending degree (the saturation
  // heuristic's initial ordering), ties by node id.
  std::vector<int64_t> Order(G->Neighbors.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(), [&G](int64_t A, int64_t B) {
    return G->Neighbors[A].size() > G->Neighbors[B].size();
  });

  std::vector<TaskFn> Tasks;
  Tasks.reserve(Order.size());
  for (int64_t V : Order) {
    Tasks.push_back([this, G, V](TxContext &Tx) {
      const std::vector<int64_t> &Nb = G->Neighbors[V];
      int64_t Limit = std::min<int64_t>(
          static_cast<int64_t>(Nb.size()) + 2, Scratch.capacity());
      // Scratch reset + rebuild from the neighbors' colors.
      for (int64_t I = 0; I != Limit; ++I)
        Scratch.clear(Tx, I);
      for (int64_t NbV : Nb) {
        int64_t C = ColorOf.readAt(Tx, NbV);
        if (C > 0 && C < Limit)
          Scratch.set(Tx, C);
      }
      int64_t Chosen = 1;
      while (Scratch.get(Tx, Chosen))
        ++Chosen;
      ColorOf.writeAt(Tx, V, Chosen);
      // Saturation bookkeeping: the newly colored node raises each
      // neighbor's saturation degree — a commutative reduction.
      for (int64_t NbV : Nb)
        SaturationDeg.addAt(Tx, NbV, 1);
      ColorCounts.addAt(Tx, indexedKey('c', Chosen), 1);
      ColoredNodes.add(Tx, 1);
      if (Chosen > MaxColor.get(Tx))
        MaxColor.set(Tx, Chosen);
      // Deliberately little local work: shared accesses dominate, so
      // privatization and commit costs cap the achievable speedup
      // (the paper's explanation for JGraphT-2's flat curve).
      Tx.localWork(0.5);
    });
  }
  return Tasks;
}

bool SaturationWorkload::verify(core::Janus &J, const PayloadSpec &Payload) {
  RandomGraph G = generateGraph(Payload);
  int64_t N = static_cast<int64_t>(G.Neighbors.size());
  int64_t Max = 1;
  for (int64_t V = 0; V != N; ++V) {
    Value CV = J.valueAt(ColorOf.locationAt(V));
    if (!CV.isInt() || CV.asInt() <= 0)
      return false;
    Max = std::max(Max, CV.asInt());
    for (int64_t Nb : G.Neighbors[V])
      if (J.valueAt(ColorOf.locationAt(Nb)) == CV)
        return false;
    // Every neighbor of V was eventually colored, so V's saturation
    // equals its degree.
    Value Sat = J.valueAt(SaturationDeg.locationAt(V));
    int64_t Got = Sat.isInt() ? Sat.asInt() : 0;
    if (Got != static_cast<int64_t>(G.Neighbors[V].size()))
      return false;
  }
  if (J.valueAt(ColoredNodes.location()) != Value::of(N))
    return false;
  // The per-color counts sum to N.
  int64_t Sum = 0;
  for (int64_t C = 1; C <= Max; ++C) {
    Value Count = J.valueAt(ColorCounts.locationAt(indexedKey('c', C)));
    Sum += Count.isInt() ? Count.asInt() : 0;
  }
  if (Sum != N)
    return false;
  return J.valueAt(MaxColor.location()) == Value::of(Max);
}
