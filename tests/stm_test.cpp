//===----------------------------------------------------------------------===//
///
/// \file
/// Unit, integration and property tests for the STM runtime (paper §4):
/// transaction contexts, logs, the write-set detector, the threaded
/// protocol of Figure 7 and the deterministic virtual-time simulator.
///
//===----------------------------------------------------------------------===//

#include "janus/stm/Detector.h"
#include "janus/stm/SimRuntime.h"
#include "janus/stm/ShardedRuntime.h"
#include "janus/support/Rng.h"

#include <gtest/gtest.h>

using namespace janus;
using namespace janus::stm;
using symbolic::LocOp;
using symbolic::LocOpKind;

namespace {

/// Common fixture state: a registry with a couple of scalar objects.
struct World {
  ObjectRegistry Reg;
  ObjectId Work, Flag, Arr;
  World() {
    Work = Reg.registerObject("work");
    Flag = Reg.registerObject("flag");
    Arr = Reg.registerObject("arr", "arr.elem");
  }
};

} // namespace

// ---------------------------------------------------------------------------
// TxContext.
// ---------------------------------------------------------------------------

TEST(TxContextTest, ReadsSeeOwnWrites) {
  World W;
  TxContext Tx(Snapshot(), 1, W.Reg);
  Location L(W.Work);
  EXPECT_EQ(Tx.read(L), Value::absent());
  Tx.write(L, Value::of(5));
  EXPECT_EQ(Tx.read(L), Value::of(5));
  Tx.add(L, 3);
  EXPECT_EQ(Tx.read(L), Value::of(8));
}

TEST(TxContextTest, EntrySnapshotIsImmutable) {
  World W;
  Snapshot Init;
  Init = Init.set(Location(W.Work), Value::of(10));
  TxContext Tx(Init, 1, W.Reg);
  Tx.write(Location(W.Work), Value::of(99));
  EXPECT_EQ(snapshotValue(Tx.entrySnapshot(), Location(W.Work)),
            Value::of(10));
  EXPECT_EQ(snapshotValue(Tx.privatizedState(), Location(W.Work)),
            Value::of(99));
}

TEST(TxContextTest, LogRecordsAllAccessesInOrder) {
  World W;
  TxContext Tx(Snapshot(), 1, W.Reg);
  Location L(W.Work);
  Tx.read(L);
  Tx.add(L, 2);
  Tx.write(L, Value::of(7));
  ASSERT_EQ(Tx.log().size(), 3u);
  EXPECT_EQ(Tx.log()[0].Op.Kind, LocOpKind::Read);
  EXPECT_EQ(Tx.log()[1].Op.Kind, LocOpKind::Add);
  EXPECT_EQ(Tx.log()[2].Op.Kind, LocOpKind::Write);
  EXPECT_EQ(Tx.log()[2].Op.Operand, Value::of(7));
  // The logged read result is the observed value.
  EXPECT_EQ(Tx.log()[0].Op.ReadResult, Value::absent());
}

TEST(TxContextTest, LocalWorkAccumulates) {
  World W;
  TxContext Tx(Snapshot(), 1, W.Reg);
  Tx.localWork(2.5);
  Tx.localWork(1.5);
  EXPECT_DOUBLE_EQ(Tx.virtualCost(), 4.0);
}

TEST(AccessSetsTest, AddCountsAsReadAndWrite) {
  World W;
  TxLog Log{{Location(W.Work), LocOp::add(1)},
            {Location(W.Flag), LocOp::read()},
            {Location(W.Arr, 3), LocOp::write(Value::of(1))}};
  AccessSets S = accessSets(Log);
  EXPECT_TRUE(S.Read.count(Location(W.Work)));
  EXPECT_TRUE(S.Write.count(Location(W.Work)));
  EXPECT_TRUE(S.Read.count(Location(W.Flag)));
  EXPECT_FALSE(S.Write.count(Location(W.Flag)));
  EXPECT_TRUE(S.Write.count(Location(W.Arr, 3)));
}

// ---------------------------------------------------------------------------
// Write-set detector.
// ---------------------------------------------------------------------------

TEST(WriteSetDetectorTest, EmptyHistoryNeverConflicts) {
  World W;
  WriteSetDetector D;
  TxLog Mine{{Location(W.Work), LocOp::write(Value::of(1))}};
  EXPECT_FALSE(D.detectConflicts(Snapshot(), Mine, {}, W.Reg));
}

TEST(WriteSetDetectorTest, WriteWriteAndReadWriteConflict) {
  World W;
  WriteSetDetector D;
  Location L(W.Work);
  auto LogOf = [](std::initializer_list<LogEntry> Es) {
    return std::make_shared<const TxLog>(Es);
  };
  TxLog MyWrite{{L, LocOp::write(Value::of(1))}};
  TxLog MyRead{{L, LocOp::read()}};

  EXPECT_TRUE(D.detectConflicts(Snapshot(), MyWrite,
                                {LogOf({{L, LocOp::write(Value::of(2))}})},
                                W.Reg));
  EXPECT_TRUE(D.detectConflicts(Snapshot(), MyRead,
                                {LogOf({{L, LocOp::write(Value::of(2))}})},
                                W.Reg));
  EXPECT_TRUE(D.detectConflicts(Snapshot(), MyWrite,
                                {LogOf({{L, LocOp::read()}})}, W.Reg));
  // Read-read does not conflict.
  EXPECT_FALSE(D.detectConflicts(Snapshot(), MyRead,
                                 {LogOf({{L, LocOp::read()}})}, W.Reg));
  // Disjoint locations do not conflict.
  EXPECT_FALSE(D.detectConflicts(
      Snapshot(), MyWrite, {LogOf({{Location(W.Flag), LocOp::write(Value::of(2))}})},
      W.Reg));
}

TEST(WriteSetDetectorTest, AddIsAReadModifyWrite) {
  World W;
  WriteSetDetector D;
  Location L(W.Work);
  TxLog MyAdd{{L, LocOp::add(1)}};
  auto Their = std::make_shared<const TxLog>(TxLog{{L, LocOp::add(2)}});
  // The write-set heuristic cannot see that adds commute.
  EXPECT_TRUE(D.detectConflicts(Snapshot(), MyAdd, {Their}, W.Reg));
}

// ---------------------------------------------------------------------------
// Threaded engine (Figure 7), one shard.
// ---------------------------------------------------------------------------

TEST(ThreadedEngineTest, SingleTaskCommits) {
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D, ShardedConfig{.NumThreads = 1});
  R.run({[&W](TxContext &Tx) { Tx.write(Location(W.Work), Value::of(42)); }});
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(42));
  EXPECT_EQ(R.stats().Commits.load(), 1u);
  EXPECT_EQ(R.stats().Retries.load(), 0u);
}

TEST(ThreadedEngineTest, AtomicityOfReadModifyWrite) {
  // The classic lost-update test: N tasks each read x and write x+1.
  // Under any interleaving the final value must be N.
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D, ShardedConfig{.NumThreads = 4});
  const int N = 60;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I)
    Tasks.push_back([&W](TxContext &Tx) {
      Location L(W.Work);
      Value V = Tx.read(L);
      int64_t Cur = V.isAbsent() ? 0 : V.asInt();
      Tx.write(L, Value::of(Cur + 1));
    });
  R.run(Tasks);
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(N));
  EXPECT_EQ(R.stats().Commits.load(), static_cast<uint64_t>(N));
}

TEST(ThreadedEngineTest, SemanticAddsReplayCorrectly) {
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D, ShardedConfig{.NumThreads = 4});
  const int N = 50;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I)
    Tasks.push_back([&W, I](TxContext &Tx) {
      Tx.add(Location(W.Work), I + 1);
    });
  R.run(Tasks);
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)),
            Value::of(N * (N + 1) / 2));
}

TEST(ThreadedEngineTest, OrderedRunMatchesSequentialFinalState) {
  // Tasks write their id to a shared cell; in-order execution must end
  // with the last task's id, exactly like the sequential loop.
  for (unsigned Threads : {1u, 2u, 4u}) {
    World W;
    WriteSetDetector D;
    ShardedRuntime R(W.Reg, D,
                     ShardedConfig{.NumThreads = Threads, .Ordered = true});
    const int N = 25;
    std::vector<TaskFn> Tasks;
    for (int I = 1; I <= N; ++I)
      Tasks.push_back([&W, I](TxContext &Tx) {
        Tx.write(Location(W.Flag), Value::of(I));
        Tx.add(Location(W.Work), I);
      });
    R.run(Tasks);
    EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Flag)), Value::of(N))
        << Threads << " threads";
    EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)),
              Value::of(N * (N + 1) / 2));
  }
}

TEST(ThreadedEngineTest, StatePersistsAcrossRuns) {
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D,
                   ShardedConfig{.NumThreads = 2, .Ordered = true});
  R.run({[&W](TxContext &Tx) { Tx.add(Location(W.Work), 5); }});
  R.run({[&W](TxContext &Tx) { Tx.add(Location(W.Work), 7); },
         [&W](TxContext &Tx) { Tx.add(Location(W.Work), 1); }});
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(13));
  EXPECT_EQ(R.stats().Commits.load(), 3u);
}

TEST(ThreadedEngineTest, LogReclamationBoundsHistory) {
  World W;
  WriteSetDetector D;
  ShardedRuntime NoReclaim(W.Reg, D, ShardedConfig{.NumThreads = 1});
  ShardedRuntime Reclaim(W.Reg, D,
                         ShardedConfig{.NumThreads = 1, .ReclaimLogs = true});
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != 30; ++I)
    Tasks.push_back([&W](TxContext &Tx) { Tx.add(Location(W.Work), 1); });
  NoReclaim.run(Tasks);
  Reclaim.run(Tasks);
  EXPECT_EQ(NoReclaim.historySize(), 30u);
  // With a single thread no transaction overlaps another, so every log
  // is reclaimable as soon as it commits.
  EXPECT_LE(Reclaim.historySize(), 1u);
  EXPECT_EQ(snapshotValue(Reclaim.sharedState(), Location(W.Work)),
            snapshotValue(NoReclaim.sharedState(), Location(W.Work)));
}

/// Property: across thread counts and seeds, running random counter /
/// cell workloads ordered yields exactly the sequential final state.
class ThreadedSerializability
    : public ::testing::TestWithParam<std::tuple<unsigned, uint64_t>> {};

TEST_P(ThreadedSerializability, OrderedEqualsSequential) {
  auto [Threads, Seed] = GetParam();
  Rng R(Seed);
  World W;

  // Build random tasks over three locations.
  const int N = 30;
  struct Step {
    int Kind; // 0 read, 1 write, 2 add
    int LocIdx;
    int64_t Val;
  };
  std::vector<std::vector<Step>> Programs;
  for (int I = 0; I != N; ++I) {
    std::vector<Step> P;
    for (int J = 0, E = 1 + static_cast<int>(R.below(5)); J != E; ++J)
      P.push_back(Step{static_cast<int>(R.below(3)),
                       static_cast<int>(R.below(3)), R.range(-5, 5)});
    Programs.push_back(P);
  }

  auto MakeTask = [&W](const std::vector<Step> &P) -> TaskFn {
    return [&W, &P](TxContext &Tx) {
      Location Locs[3] = {Location(W.Work), Location(W.Flag),
                          Location(W.Arr, 0)};
      for (const Step &S : P) {
        if (S.Kind == 0)
          Tx.read(Locs[S.LocIdx]);
        else if (S.Kind == 1)
          Tx.write(Locs[S.LocIdx], Value::of(S.Val));
        else
          Tx.add(Locs[S.LocIdx], S.Val);
      }
    };
  };

  std::vector<TaskFn> Tasks;
  for (const auto &P : Programs)
    Tasks.push_back(MakeTask(P));

  // Sequential reference.
  WriteSetDetector DSeq;
  ShardedRuntime Seq(W.Reg, DSeq, ShardedConfig{.NumThreads = 1});
  Seq.run(Tasks);

  WriteSetDetector DPar;
  ShardedRuntime Par(W.Reg, DPar,
                     ShardedConfig{.NumThreads = Threads, .Ordered = true});
  Par.run(Tasks);

  EXPECT_TRUE(Par.sharedState() == Seq.sharedState());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThreadedSerializability,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values(1u, 2u, 3u)));

// ---------------------------------------------------------------------------
// Simulator.
// ---------------------------------------------------------------------------

TEST(SimRuntimeTest, FinalStateMatchesThreadedSemantics) {
  World W;
  WriteSetDetector D;
  SimConfig C;
  C.NumCores = 4;
  SimRuntime R(W.Reg, D, C);
  const int N = 40;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I)
    Tasks.push_back([&W](TxContext &Tx) {
      Location L(W.Work);
      Value V = Tx.read(L);
      Tx.write(L, Value::of((V.isAbsent() ? 0 : V.asInt()) + 1));
    });
  SimOutcome O = R.run(Tasks);
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(N));
  EXPECT_GT(O.ParallelTime, 0.0);
  EXPECT_GT(O.SequentialTime, 0.0);
  EXPECT_EQ(R.stats().Commits.load(), static_cast<uint64_t>(N));
  // Contended read-modify-write tasks abort under write-set detection.
  EXPECT_GT(R.stats().Retries.load(), 0u);
}

TEST(SimRuntimeTest, DeterministicAcrossRuns) {
  auto RunOnce = [](uint64_t &Retries, double &Par, Value &Final) {
    World W;
    WriteSetDetector D;
    SimConfig C;
    C.NumCores = 8;
    SimRuntime R(W.Reg, D, C);
    std::vector<TaskFn> Tasks;
    for (int I = 0; I != 30; ++I)
      Tasks.push_back([&W, I](TxContext &Tx) {
        Tx.localWork(static_cast<double>(I % 5));
        Value V = Tx.read(Location(W.Work));
        Tx.write(Location(W.Work),
                 Value::of((V.isAbsent() ? 0 : V.asInt()) + 1));
      });
    SimOutcome O = R.run(Tasks);
    Retries = R.stats().Retries.load();
    Par = O.ParallelTime;
    Final = snapshotValue(R.sharedState(), Location(W.Work));
  };
  uint64_t R1, R2;
  double P1, P2;
  Value F1, F2;
  RunOnce(R1, P1, F1);
  RunOnce(R2, P2, F2);
  EXPECT_EQ(R1, R2);
  EXPECT_DOUBLE_EQ(P1, P2);
  EXPECT_EQ(F1, F2);
}

TEST(SimRuntimeTest, DisjointTasksScaleWithCores) {
  // Tasks touching disjoint locations never conflict; more cores must
  // shorten the makespan substantially.
  auto MakeSpan = [](unsigned Cores) {
    World W;
    WriteSetDetector D;
    SimConfig C;
    C.NumCores = Cores;
    SimRuntime R(W.Reg, D, C);
    std::vector<TaskFn> Tasks;
    for (int I = 0; I != 64; ++I)
      Tasks.push_back([&W, I](TxContext &Tx) {
        Tx.localWork(20.0);
        Tx.write(Location(W.Arr, I), Value::of(I));
      });
    return R.run(Tasks).ParallelTime;
  };
  double T1 = MakeSpan(1), T4 = MakeSpan(4), T8 = MakeSpan(8);
  EXPECT_GT(T1 / T4, 3.0);
  EXPECT_GT(T4 / T8, 1.5);
}

TEST(SimRuntimeTest, ContendedTasksDoNotScale) {
  // All tasks read-modify-write one location: write-set detection
  // serializes them and wasted retries make 8 cores no better than ~1.
  auto Speedup = [](unsigned Cores) {
    World W;
    WriteSetDetector D;
    SimConfig C;
    C.NumCores = Cores;
    SimRuntime R(W.Reg, D, C);
    std::vector<TaskFn> Tasks;
    for (int I = 0; I != 40; ++I)
      Tasks.push_back([&W](TxContext &Tx) {
        Tx.localWork(5.0);
        Value V = Tx.read(Location(W.Work));
        Tx.write(Location(W.Work),
                 Value::of((V.isAbsent() ? 0 : V.asInt()) + 1));
      });
    return R.run(Tasks).speedup();
  };
  EXPECT_LT(Speedup(8), 1.2);
}

TEST(SimRuntimeTest, OrderedSimMatchesSequentialFinalState) {
  World W;
  WriteSetDetector D;
  SimConfig C;
  C.NumCores = 4;
  C.Ordered = true;
  SimRuntime R(W.Reg, D, C);
  const int N = 20;
  std::vector<TaskFn> Tasks;
  for (int I = 1; I <= N; ++I)
    Tasks.push_back([&W, I](TxContext &Tx) {
      Tx.write(Location(W.Flag), Value::of(I));
    });
  R.run(Tasks);
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Flag)), Value::of(N));
  EXPECT_EQ(R.stats().Commits.load(), static_cast<uint64_t>(N));
}

TEST(SimRuntimeTest, SpeedupReflectsInstrumentationOverheadOnOneCore) {
  // On a single core the parallel version pays STM overhead with no
  // parallelism: speedup must be below 1.
  World W;
  WriteSetDetector D;
  SimConfig C;
  C.NumCores = 1;
  SimRuntime R(W.Reg, D, C);
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != 20; ++I)
    Tasks.push_back([&W, I](TxContext &Tx) {
      Tx.localWork(2.0);
      Tx.write(Location(W.Arr, I), Value::of(I));
    });
  SimOutcome O = R.run(Tasks);
  EXPECT_LT(O.speedup(), 1.0);
}

// ---------------------------------------------------------------------------
// Additional protocol edge cases.
// ---------------------------------------------------------------------------

TEST(ThreadedEngineTest, HighThreadCountStress) {
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D, ShardedConfig{.NumThreads = 8});
  const int N = 200;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I)
    Tasks.push_back([&W, I](TxContext &Tx) {
      // Mix of private and shared work.
      Tx.write(Location(W.Arr, I), Value::of(I));
      Value V = Tx.read(Location(W.Work));
      Tx.write(Location(W.Work), Value::of((V.isAbsent() ? 0 : V.asInt()) + 1));
    });
  R.run(Tasks);
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(N));
  for (int I = 0; I != N; ++I)
    EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Arr, I)),
              Value::of(I));
}

TEST(ThreadedEngineTest, CommitOrderCoversEveryTaskExactlyOnce) {
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D, ShardedConfig{.NumThreads = 4});
  const int N = 40;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I)
    Tasks.push_back([&W](TxContext &Tx) { Tx.add(Location(W.Work), 1); });
  R.run(Tasks);
  std::vector<uint32_t> Order = R.commitOrder();
  ASSERT_EQ(Order.size(), static_cast<size_t>(N));
  std::vector<bool> Seen(N + 1, false);
  for (uint32_t Tid : Order) {
    ASSERT_GE(Tid, 1u);
    ASSERT_LE(Tid, static_cast<uint32_t>(N));
    EXPECT_FALSE(Seen[Tid]) << "task committed twice";
    Seen[Tid] = true;
  }
}

TEST(SimRuntimeTest, EmptyTaskListIsANoop) {
  World W;
  WriteSetDetector D;
  SimConfig C;
  SimRuntime R(W.Reg, D, C);
  SimOutcome O = R.run({});
  EXPECT_EQ(O.ParallelTime, 0.0);
  EXPECT_EQ(O.SequentialTime, 0.0);
  EXPECT_EQ(R.stats().Commits.load(), 0u);
}

TEST(SimRuntimeTest, TasksWithEmptyLogsCommitImmediately) {
  World W;
  WriteSetDetector D;
  SimConfig C;
  C.NumCores = 2;
  SimRuntime R(W.Reg, D, C);
  std::vector<TaskFn> Tasks(5, [](TxContext &Tx) { Tx.localWork(1.0); });
  SimOutcome O = R.run(Tasks);
  EXPECT_EQ(R.stats().Commits.load(), 5u);
  EXPECT_EQ(R.stats().Retries.load(), 0u);
  EXPECT_GT(O.ParallelTime, 0.0);
}

TEST(SimRuntimeTest, CostModelKnobsShiftTheBalance) {
  // Raising the sequential per-op cost (i.e. lowering the relative
  // instrumentation overhead) must increase the measured speedup.
  auto SpeedupWith = [](double SeqPerOp) {
    World W;
    WriteSetDetector D;
    SimConfig C;
    C.NumCores = 8;
    C.Costs.SeqPerOp = SeqPerOp;
    SimRuntime R(W.Reg, D, C);
    std::vector<TaskFn> Tasks;
    for (int I = 0; I != 32; ++I)
      Tasks.push_back([&W, I](TxContext &Tx) {
        Tx.localWork(5.0);
        Tx.write(Location(W.Arr, I), Value::of(I));
      });
    return R.run(Tasks).speedup();
  };
  EXPECT_LT(SpeedupWith(0.1), SpeedupWith(0.8));
}

TEST(SimRuntimeTest, OrderedRunWithConflictsStillCommitsInOrder) {
  World W;
  WriteSetDetector D;
  SimConfig C;
  C.NumCores = 4;
  C.Ordered = true;
  SimRuntime R(W.Reg, D, C);
  const int N = 15;
  std::vector<TaskFn> Tasks;
  for (int I = 1; I <= N; ++I)
    Tasks.push_back([&W, I](TxContext &Tx) {
      Value V = Tx.read(Location(W.Work));
      Tx.write(Location(W.Work),
               Value::of((V.isAbsent() ? 0 : V.asInt()) + I));
    });
  R.run(Tasks);
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)),
            Value::of(N * (N + 1) / 2));
  std::vector<uint32_t> Order = R.commitOrder();
  for (size_t I = 0; I != Order.size(); ++I)
    EXPECT_EQ(Order[I], I + 1);
}

// ---------------------------------------------------------------------------
// Audit trace recording (consumed by janus::analysis).
// ---------------------------------------------------------------------------

TEST(SimRuntimeTest, TraceIsOffByDefault) {
  World W;
  WriteSetDetector D;
  SimRuntime R(W.Reg, D, SimConfig{});
  R.run({[&](TxContext &Tx) { Tx.add(Location(W.Work), 1); }});
  EXPECT_FALSE(R.trace().Recorded);
  EXPECT_TRUE(R.trace().Events.empty());
}

TEST(SimRuntimeTest, TraceRecordsAbortThenRetryWithFreshLogs) {
  // Contended read-modify-writes force aborts under the write-set
  // detector. Every attempt — aborted or committed — must appear in the
  // trace with its own log, and each aborted task must eventually
  // commit with a re-executed (re-read) log, not the stale one.
  World W;
  WriteSetDetector D;
  SimConfig C;
  C.NumCores = 4;
  C.RecordTrace = true;
  SimRuntime R(W.Reg, D, C);
  Location L(W.Work);
  std::vector<TaskFn> Tasks(12, [&](TxContext &Tx) {
    Value V = Tx.read(L);
    Tx.write(L, Value::of((V.isAbsent() ? 0 : V.asInt()) + 1));
  });
  R.run(Tasks);

  const AuditTrace &T = R.trace();
  ASSERT_TRUE(T.Recorded);
  EXPECT_GT(T.abortedCount(), 0u);
  EXPECT_EQ(T.committedInOrder().size(), 12u);
  EXPECT_EQ(T.Events.size(), 12u + T.abortedCount());
  EXPECT_EQ(snapshotValue(T.Final, L), Value::of(int64_t(12)));

  for (const TraceEvent &E : T.Events) {
    ASSERT_TRUE(E.Log != nullptr);
    if (E.Committed)
      continue;
    EXPECT_EQ(E.CommitTime, 0u);
    // The retry that finally commits carries a distinct log object:
    // aborted logs stay valid for post-mortem inspection.
    const TraceEvent *Commit = nullptr;
    for (const TraceEvent &E2 : T.Events)
      if (E2.Committed && E2.Tid == E.Tid)
        Commit = &E2;
    ASSERT_TRUE(Commit != nullptr);
    EXPECT_NE(Commit->Log.get(), E.Log.get());
    EXPECT_GT(Commit->BeginTime, E.BeginTime);
  }
}

TEST(ThreadedEngineTest, TraceCoversEveryTaskExactlyOnce) {
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D,
                   ShardedConfig{.NumThreads = 4, .RecordTrace = true});
  Location L(W.Work);
  std::vector<TaskFn> Tasks(32, [&](TxContext &Tx) { Tx.add(L, 1); });
  R.run(Tasks);

  const AuditTrace &T = R.trace();
  ASSERT_TRUE(T.Recorded);
  auto Committed = T.committedInOrder();
  ASSERT_EQ(Committed.size(), 32u);
  std::vector<bool> Seen(33, false);
  for (const TraceEvent *E : Committed) {
    ASSERT_GE(E->Tid, 1u);
    ASSERT_LE(E->Tid, 32u);
    EXPECT_FALSE(Seen[E->Tid]);
    Seen[E->Tid] = true;
  }
  EXPECT_EQ(snapshotValue(T.Final, L), Value::of(int64_t(32)));
  EXPECT_EQ(snapshotValue(R.sharedState(), L), Value::of(int64_t(32)));
}

TEST(ThreadedEngineTest, TraceResetsBetweenRuns) {
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D,
                   ShardedConfig{.NumThreads = 2, .RecordTrace = true});
  Location L(W.Work);
  std::vector<TaskFn> Tasks(5, [&](TxContext &Tx) { Tx.add(L, 1); });
  R.run(Tasks);
  R.run(Tasks);
  // The trace describes the last run only: 5 commits starting from the
  // first run's final state.
  EXPECT_EQ(R.trace().committedInOrder().size(), 5u);
  EXPECT_EQ(snapshotValue(R.trace().Initial, L), Value::of(int64_t(5)));
  EXPECT_EQ(snapshotValue(R.trace().Final, L), Value::of(int64_t(10)));
}

TEST(ThreadedEngineTest, ConcurrentReclamationNeverDropsVisibleLogs) {
  // Races eager log reclamation against many in-flight readers: tiny
  // history segments force the epoch head across segment boundaries
  // constantly, while write-set conflicts on the shared counter keep
  // transactions aborting and re-reading their conflict windows. The
  // HistoryLog reader asserts the window is dense, so a committed log
  // reclaimed while still visible to a live transaction aborts the
  // test rather than passing silently.
  World W;
  WriteSetDetector D;
  ShardedConfig Cfg;
  Cfg.NumThreads = 8;
  Cfg.ReclaimLogs = true;
  Cfg.HistorySegmentRecords = 4;
  ShardedRuntime R(W.Reg, D, Cfg);
  const int N = 300;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I)
    Tasks.push_back([&W, I](TxContext &Tx) {
      Tx.add(Location(W.Work), 1);
      Tx.write(Location(W.Arr, I % 16), Value::of(int64_t(I)));
    });
  R.run(Tasks);
  R.run(Tasks); // Second run: reclamation continues across runs.

  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)),
            Value::of(int64_t(2 * N)));
  EXPECT_EQ(R.stats().Commits.load(), static_cast<uint64_t>(2 * N));
  // Every task committed exactly once per run.
  std::vector<int> PerTid(N + 1, 0);
  for (uint32_t Tid : R.commitOrder())
    ++PerTid[Tid];
  for (int I = 1; I <= N; ++I)
    EXPECT_EQ(PerTid[I], 2);
  // With every transaction finished, the final commit reclaimed the
  // whole window behind itself.
  EXPECT_LE(R.historySize(), 8u);
}
