//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-module integration tests:
///   - the ADT handles agree with their relational abstraction
///     specifications (§6.1) under random operation streams;
///   - the sequence detector with a trained cache preserves
///     serializability end to end (commit-order replay oracle) on
///     random workloads, on both engines;
///   - engines agree with each other on final states for ordered runs.
///
//===----------------------------------------------------------------------===//

#include "janus/adt/TxBitSet.h"
#include "janus/adt/TxMap.h"
#include "janus/conflict/SequenceDetector.h"
#include "janus/core/Janus.h"
#include "janus/relational/RelOp.h"
#include "janus/stm/SimRuntime.h"
#include "janus/stm/ShardedRuntime.h"
#include "janus/support/Rng.h"
#include "janus/training/Trainer.h"

#include <gtest/gtest.h>

using namespace janus;
using namespace janus::relational;
using stm::LogEntry;
using stm::Snapshot;
using stm::TaskFn;
using stm::TxContext;

// ---------------------------------------------------------------------------
// ADT ↔ relational specification agreement.
// ---------------------------------------------------------------------------

namespace {

SchemaRef bitSetSchema() {
  return std::make_shared<Schema>(std::vector<std::string>{"idx", "val"},
                                  std::vector<uint32_t>{0});
}

SchemaRef mapSchema() {
  return std::make_shared<Schema>(std::vector<std::string>{"key", "val"},
                                  std::vector<uint32_t>{0});
}

} // namespace

class AdtRelationalAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdtRelationalAgreement, BitSetMatchesItsRelationalSpec) {
  // Paper §3 step 1: BitSet as a 2-ary relation idx → val; set(n, x) is
  // insert (n, x); get(n) is a select. Random op streams through the
  // transactional handle and through the relation must agree.
  Rng R(GetParam());
  ObjectRegistry Reg;
  adt::TxBitSet Bits = adt::TxBitSet::create(Reg, "bits", 8);
  TxContext Tx(Snapshot(), 1, Reg);
  Relation Model(bitSetSchema());

  for (int Step = 0; Step != 300; ++Step) {
    int64_t Idx = static_cast<int64_t>(R.below(8));
    switch (R.below(3)) {
    case 0:
      Bits.set(Tx, Idx);
      Model = Model.insert(Tuple({Value::of(Idx), Value::of(true)}));
      break;
    case 1:
      Bits.clear(Tx, Idx);
      Model = Model.insert(Tuple({Value::of(Idx), Value::of(false)}));
      break;
    default: {
      bool Handle = Bits.get(Tx, Idx);
      Relation Selected =
          Model.select(TupleFormula::mkEq(0, Value::of(Idx)));
      bool Spec = !Selected.empty() &&
                  Selected.tuples().begin()->at(1) == Value::of(true);
      ASSERT_EQ(Handle, Spec) << "step " << Step << " idx " << Idx;
      break;
    }
    }
  }
}

TEST_P(AdtRelationalAgreement, MapMatchesItsRelationalSpec) {
  Rng R(GetParam() + 7);
  ObjectRegistry Reg;
  adt::TxMap Map = adt::TxMap::create(Reg, "attrs");
  TxContext Tx(Snapshot(), 1, Reg);
  Relation Model(mapSchema());

  const char *Keys[4] = {"a", "b", "c", "d"};
  for (int Step = 0; Step != 300; ++Step) {
    std::string Key = Keys[R.below(4)];
    switch (R.below(4)) {
    case 0: {
      int64_t V = R.range(0, 9);
      Map.put(Tx, Key, Value::of(V));
      Model = Model.insert(Tuple({Value::of(Key), Value::of(V)}));
      break;
    }
    case 1:
      Map.erase(Tx, Key);
      Model = Model.select(
          TupleFormula::mkNot(TupleFormula::mkEq(0, Value::of(Key))));
      break;
    case 2: {
      bool Handle = Map.contains(Tx, Key);
      bool Spec =
          !Model.select(TupleFormula::mkEq(0, Value::of(Key))).empty();
      ASSERT_EQ(Handle, Spec) << "step " << Step << " key " << Key;
      break;
    }
    default: {
      std::optional<Value> Handle = Map.get(Tx, Key);
      Relation Selected =
          Model.select(TupleFormula::mkEq(0, Value::of(Key)));
      if (Selected.empty()) {
        ASSERT_EQ(Handle, std::nullopt) << "step " << Step;
      } else {
        ASSERT_TRUE(Handle.has_value());
        ASSERT_EQ(*Handle, Selected.tuples().begin()->at(1));
      }
      break;
    }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdtRelationalAgreement,
                         ::testing::Values(81, 82, 83));

// ---------------------------------------------------------------------------
// End-to-end serializability with the trained sequence detector.
// ---------------------------------------------------------------------------

namespace {

/// Random mixed tasks over counters and cells (no relaxations, so full
/// serializability must hold).
std::vector<TaskFn> mixedTasks(ObjectId Counter, ObjectId Cell,
                               ObjectId List, Rng &R, int Count) {
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != Count; ++I) {
    int Kind = static_cast<int>(R.below(4));
    int64_t V = R.range(1, 6);
    Tasks.push_back([=](TxContext &Tx) {
      switch (Kind) {
      case 0: // Identity on the counter.
        Tx.add(Location(Counter), V);
        Tx.add(Location(Counter), -V);
        break;
      case 1: // Net reduction.
        Tx.add(Location(Counter), V);
        break;
      case 2: { // Read-modify-write on the cell (real dependency).
        Value Cur = Tx.read(Location(Cell));
        Tx.write(Location(Cell),
                 Value::of((Cur.isInt() ? Cur.asInt() : 0) + V));
        break;
      }
      default: { // Push/pop on the list cells.
        Value Size = Tx.read(Location(List, "size"));
        int64_t N = Size.isInt() ? Size.asInt() : 0;
        Tx.write(Location(List, "size"), Value::of(N + 1));
        Tx.write(Location(List, N), Value::of(V));
        Tx.write(Location(List, "size"), Value::of(N));
        Tx.write(Location(List, N), Value::absent());
        break;
      }
      }
    });
  }
  return Tasks;
}

Snapshot replay(const ObjectRegistry &Reg, Snapshot State,
                const std::vector<TaskFn> &Tasks,
                const std::vector<uint32_t> &Order) {
  for (uint32_t Tid : Order) {
    TxContext Tx(State, Tid, Reg);
    Tasks[Tid - 1](Tx);
    for (const LogEntry &E : Tx.log())
      State = stm::applyToSnapshot(State, E.Loc, E.Op);
  }
  return State;
}

} // namespace

class TrainedDetectorSerializability
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrainedDetectorSerializability, SimCommitOrderReplayMatches) {
  Rng R(GetParam());
  ObjectRegistry Reg;
  ObjectId Counter = Reg.registerObject("counter");
  ObjectId Cell = Reg.registerObject("cell");
  ObjectId List = Reg.registerObject("list", "list.cell");

  auto Cache = std::make_shared<conflict::CommutativityCache>();
  // Train on a few random payloads.
  training::Trainer T(Reg, Cache);
  for (int Round = 0; Round != 2; ++Round) {
    Snapshot S;
    S = S.set(Location(List, "size"), Value::of(int64_t(0)));
    std::vector<TaskFn> Train = mixedTasks(Counter, Cell, List, R, 8);
    T.trainOn(S, Train);
  }

  conflict::SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  conflict::SequenceDetector D(Cache, Cfg);

  std::vector<TaskFn> Tasks = mixedTasks(Counter, Cell, List, R, 30);
  stm::SimConfig SimCfg;
  SimCfg.NumCores = 6;
  stm::SimRuntime Runtime(Reg, D, SimCfg);
  Snapshot Init;
  Init = Init.set(Location(List, "size"), Value::of(int64_t(0)));
  Runtime.setInitialState(Init);
  Runtime.run(Tasks);

  Snapshot Replayed = replay(Reg, Init, Tasks, Runtime.commitOrder());
  EXPECT_TRUE(Runtime.sharedState() == Replayed);
  // Sanity bound: read-modify-write tasks genuinely conflict (up to a
  // few retries each at 6 cores), but identity/reduction tasks must
  // not contribute — a blanket write-set detector would retry far more.
  EXPECT_LT(Runtime.stats().Retries.load(), 60u);
}

TEST_P(TrainedDetectorSerializability, ThreadedCommitOrderReplayMatches) {
  Rng R(GetParam() + 500);
  ObjectRegistry Reg;
  ObjectId Counter = Reg.registerObject("counter");
  ObjectId Cell = Reg.registerObject("cell");
  ObjectId List = Reg.registerObject("list", "list.cell");

  auto Cache = std::make_shared<conflict::CommutativityCache>();
  training::Trainer T(Reg, Cache);
  {
    Snapshot S;
    S = S.set(Location(List, "size"), Value::of(int64_t(0)));
    std::vector<TaskFn> Train = mixedTasks(Counter, Cell, List, R, 8);
    T.trainOn(S, Train);
  }

  conflict::SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  conflict::SequenceDetector D(Cache, Cfg);

  std::vector<TaskFn> Tasks = mixedTasks(Counter, Cell, List, R, 30);
  stm::ShardedRuntime Runtime(Reg, D, stm::ShardedConfig{.NumThreads = 4});
  Snapshot Init;
  Init = Init.set(Location(List, "size"), Value::of(int64_t(0)));
  Runtime.setInitialState(Init);
  Runtime.run(Tasks);

  Snapshot Replayed = replay(Reg, Init, Tasks, Runtime.commitOrder());
  EXPECT_TRUE(Runtime.sharedState() == Replayed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrainedDetectorSerializability,
                         ::testing::Values(91, 92, 93, 94));

// ---------------------------------------------------------------------------
// Engine agreement.
// ---------------------------------------------------------------------------

TEST(EngineAgreementTest, OrderedRunsSameFinalStateOnBothEngines) {
  Rng R(1234);
  for (int Trial = 0; Trial != 3; ++Trial) {
    ObjectRegistry Reg;
    ObjectId Counter = Reg.registerObject("counter");
    ObjectId Cell = Reg.registerObject("cell");
    ObjectId List = Reg.registerObject("list", "list.cell");
    std::vector<TaskFn> Tasks = mixedTasks(Counter, Cell, List, R, 20);

    Snapshot Init;
    Init = Init.set(Location(List, "size"), Value::of(int64_t(0)));

    stm::WriteSetDetector D1, D2;
    stm::SimConfig SimCfg;
    SimCfg.NumCores = 4;
    SimCfg.Ordered = true;
    stm::SimRuntime Sim(Reg, D1, SimCfg);
    Sim.setInitialState(Init);
    Sim.run(Tasks);

    stm::ShardedRuntime Threaded(
        Reg, D2, stm::ShardedConfig{.NumThreads = 4, .Ordered = true});
    Threaded.setInitialState(Init);
    Threaded.run(Tasks);

    EXPECT_TRUE(Sim.sharedState() == Threaded.sharedState())
        << "trial " << Trial;
  }
}
