//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the location-sharded commit pipeline (stm::ShardedRuntime)
/// and the auditor's per-shard begin refinement.
///
/// The load-bearing properties: the dense global clock gives the same
/// Theorem 4.1 commit-order semantics as a single shard (ordered
/// mode commits in task order, cross-shard commits included); per-shard
/// detection admits exactly what global detection would; epoch
/// recycling under reclamation stays safe under thread churn (run this
/// binary under TSan); and a recorded sharded trace passes the full
/// hindsight audit — with the per-location begin refinement keeping
/// shard-staggered begin points from surfacing as false races.
///
//===----------------------------------------------------------------------===//

#include "janus/analysis/Auditor.h"
#include "janus/analysis/HappensBefore.h"
#include "janus/stm/Detector.h"
#include "janus/stm/ShardedRuntime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>

using namespace janus;
using namespace janus::stm;
using symbolic::LocOp;

namespace {

/// Builds a sharded runtime over \p Reg with the common test knobs.
ShardedConfig shardedConfig(unsigned Threads, unsigned Shards) {
  ShardedConfig Cfg;
  Cfg.NumThreads = Threads;
  Cfg.NumShards = Shards;
  Cfg.ReclaimLogs = true;
  return Cfg;
}

/// First slot index >= \p From of \p Obj whose location lands in shard
/// \p Shard under \p NumShards.
int slotInShard(ObjectId Obj, uint32_t Shard, uint32_t NumShards,
                int From = 0) {
  for (int I = From;; ++I)
    if (shardIndexOf(Location(Obj, I), NumShards) == Shard)
      return I;
}

} // namespace

TEST(ShardedRuntimeTest, ShardCountIsNormalizedToPowerOfTwo) {
  ObjectRegistry Reg;
  WriteSetDetector D;
  EXPECT_EQ(ShardedRuntime(Reg, D, shardedConfig(1, 5)).numShards(), 8u);
  EXPECT_EQ(ShardedRuntime(Reg, D, shardedConfig(1, 0)).numShards(), 1u);
  EXPECT_EQ(ShardedRuntime(Reg, D, shardedConfig(1, 16)).numShards(), 16u);
  EXPECT_EQ(ShardedRuntime(Reg, D, shardedConfig(1, 1000)).numShards(),
            ShardedRuntime::MaxShards);
}

TEST(ShardedRuntimeTest, FinalStateMatchesSequentialExpectation) {
  ObjectRegistry Reg;
  ObjectId Counter = Reg.registerObject("counter");
  ObjectId Slots = Reg.registerObject("slots", "slots.elem");
  WriteSetDetector D;
  ShardedRuntime R(Reg, D, shardedConfig(4, 8));

  const int N = 64;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I)
    Tasks.push_back([Counter, Slots, I](TxContext &Tx) {
      Tx.add(Location(Counter), 1);
      Tx.write(Location(Slots, I), Value::of(int64_t(I)));
    });
  R.run(Tasks);

  Snapshot S = R.sharedState();
  EXPECT_EQ(snapshotValue(S, Location(Counter)).asInt(), N);
  for (int I = 0; I != N; ++I)
    EXPECT_EQ(snapshotValue(S, Location(Slots, I)).asInt(), I);
  EXPECT_EQ(R.stats().Commits.load(), static_cast<uint64_t>(N));
}

TEST(ShardedRuntimeTest, OrderedModeCommitsCrossShardInTaskOrder) {
  ObjectRegistry Reg;
  ObjectId A = Reg.registerObject("a", "a.elem");
  ObjectId B = Reg.registerObject("b", "b.elem");
  ObjectId Last = Reg.registerObject("last");
  WriteSetDetector D;
  ShardedConfig Cfg = shardedConfig(4, 8);
  Cfg.Ordered = true;
  ShardedRuntime R(Reg, D, Cfg);

  // Every task commits across several shards (two disjoint array
  // writes plus a fully contended write); ordered mode must still
  // commit them in task order, so the contended location ends up with
  // the *last* task's value — the sequential outcome.
  const int N = 32;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I)
    Tasks.push_back([A, B, Last, I](TxContext &Tx) {
      Tx.write(Location(A, I), Value::of(int64_t(I)));
      Tx.write(Location(B, I + 1000), Value::of(int64_t(-I)));
      Tx.write(Location(Last), Value::of(int64_t(I)));
    });
  R.run(Tasks);

  std::vector<uint32_t> Expected(N);
  std::iota(Expected.begin(), Expected.end(), 1u);
  EXPECT_EQ(R.commitOrder(), Expected);
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(Last)).asInt(), N - 1);
  EXPECT_GT(R.stats().CrossShardCommits.load(), 0u);
}

TEST(ShardedRuntimeTest, EmptyTasksTakeTheAllocationFreeFastPath) {
  ObjectRegistry Reg;
  WriteSetDetector D;
  ShardedRuntime R(Reg, D, shardedConfig(4, 8));

  const int N = 100;
  R.run(std::vector<TaskFn>(N, [](TxContext &) {}));
  EXPECT_EQ(R.stats().Commits.load(), static_cast<uint64_t>(N));
  EXPECT_EQ(R.stats().EmptyCommits.load(), static_cast<uint64_t>(N));
  EXPECT_EQ(R.stats().Retries.load(), 0u);
  EXPECT_EQ(R.commitOrder().size(), static_cast<size_t>(N));
}

TEST(ShardedRuntimeTest, MixedCommitKindsKeepTheGlobalClockDense) {
  ObjectRegistry Reg;
  ObjectId Slots = Reg.registerObject("slots", "slots.elem");
  WriteSetDetector D;
  ShardedRuntime R(Reg, D, shardedConfig(4, 4));

  // A blend of empty, single-shard, and cross-shard tasks: the commit
  // order must contain every task exactly once (one dense clock tick
  // per commit, whatever the commit path).
  const int N = 60;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I) {
    if (I % 3 == 0)
      Tasks.push_back([](TxContext &) {});
    else if (I % 3 == 1)
      Tasks.push_back([Slots, I](TxContext &Tx) {
        Tx.write(Location(Slots, I), Value::of(int64_t(I)));
      });
    else
      Tasks.push_back([Slots, I](TxContext &Tx) {
        Tx.write(Location(Slots, I), Value::of(int64_t(I)));
        Tx.write(Location(Slots, I + 500), Value::of(int64_t(I)));
      });
  }
  R.run(Tasks);

  std::vector<uint32_t> Order = R.commitOrder();
  ASSERT_EQ(Order.size(), static_cast<size_t>(N));
  std::sort(Order.begin(), Order.end());
  for (int I = 0; I != N; ++I)
    EXPECT_EQ(Order[I], static_cast<uint32_t>(I + 1));
}

TEST(ShardedRuntimeTest, SingleThreadSpeculationNeverRetries) {
  ObjectRegistry Reg;
  ObjectId Counter = Reg.registerObject("counter");
  WriteSetDetector D;
  ShardedRuntime R(Reg, D, shardedConfig(1, 8));

  const int N = 50;
  std::vector<TaskFn> Tasks(N, [Counter](TxContext &Tx) {
    Tx.add(Location(Counter), 1);
  });
  R.run(Tasks);
  EXPECT_EQ(R.stats().Retries.load(), 0u);
  EXPECT_EQ(R.stats().ValidationFailures.load(), 0u);
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(Counter)).asInt(), N);
}

TEST(ShardedRuntimeTest, InitialStateIsRoutedAcrossShards) {
  ObjectRegistry Reg;
  ObjectId Slots = Reg.registerObject("slots", "slots.elem");
  WriteSetDetector D;
  ShardedRuntime R(Reg, D, shardedConfig(2, 8));

  Snapshot Init;
  for (int I = 0; I != 40; ++I)
    Init = Init.set(Location(Slots, I), Value::of(int64_t(100 + I)));
  R.setInitialState(Init);

  // Read-modify-write through the sharded store: every increment must
  // see the configured initial value of its (shard-routed) slot.
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != 40; ++I)
    Tasks.push_back([Slots, I](TxContext &Tx) {
      Value V = Tx.read(Location(Slots, I));
      Tx.write(Location(Slots, I), Value::of(V.asInt() + 1));
    });
  R.run(Tasks);

  Snapshot S = R.sharedState();
  for (int I = 0; I != 40; ++I)
    EXPECT_EQ(snapshotValue(S, Location(Slots, I)).asInt(), 101 + I);
}

// Multi-shard reclamation stress: small history segments, reclamation
// on, contended adds plus scattered writes across every shard, several
// back-to-back runs on one runtime. Under TSan this exercises the
// hazard-validated epoch recycling (pool reuse, per-shard floors).
TEST(ShardedRuntimeTest, ReclamationStressKeepsStateConsistent) {
  ObjectRegistry Reg;
  ObjectId Counter = Reg.registerObject("counter");
  ObjectId Slots = Reg.registerObject("slots", "slots.elem");
  WriteSetDetector D;
  ShardedConfig Cfg = shardedConfig(4, 16);
  Cfg.HistorySegmentRecords = 4;
  ShardedRuntime R(Reg, D, Cfg);

  const int N = 128, Rounds = 3;
  for (int Round = 0; Round != Rounds; ++Round) {
    std::vector<TaskFn> Tasks;
    for (int I = 0; I != N; ++I)
      Tasks.push_back([Counter, Slots, I](TxContext &Tx) {
        Tx.add(Location(Counter), 1);
        Tx.write(Location(Slots, I % 31), Value::of(int64_t(I)));
        Tx.write(Location(Slots, 100 + (I * 7) % 53),
                 Value::of(int64_t(I)));
      });
    R.run(Tasks);
  }
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(Counter)).asInt(),
            N * Rounds);
  // Reclamation must have trimmed the per-shard histories well below
  // the total number of committed records.
  EXPECT_LT(R.historySize(), static_cast<size_t>(N));
}

TEST(ShardedRuntimeTest, RecordedShardedRunPassesTheFullAudit) {
  ObjectRegistry Reg;
  ObjectId Counter = Reg.registerObject("counter");
  ObjectId Slots = Reg.registerObject("slots", "slots.elem");
  WriteSetDetector D;
  ShardedConfig Cfg = shardedConfig(4, 8);
  Cfg.RecordTrace = true;
  ShardedRuntime R(Reg, D, Cfg);

  const int N = 80;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I) {
    if (I % 4 == 0)
      Tasks.push_back([Counter](TxContext &Tx) {
        Tx.add(Location(Counter), 1);
      });
    else
      Tasks.push_back([Slots, I](TxContext &Tx) {
        Tx.write(Location(Slots, I), Value::of(int64_t(I)));
        Tx.write(Location(Slots, I + 300), Value::of(int64_t(2 * I)));
      });
  }
  R.run(Tasks);

  ASSERT_TRUE(R.trace().Recorded);
  EXPECT_EQ(R.trace().Shards, R.numShards());
  analysis::AuditReport Report = analysis::audit(R.trace(), Tasks, Reg);
  EXPECT_TRUE(Report.Serializability.Checked);
  EXPECT_TRUE(Report.Races.Checked);
  EXPECT_TRUE(Report.clean()) << Report.summary();
}

TEST(ShardedRuntimeTest, OrderedShardedRunPassesTheFullAudit) {
  ObjectRegistry Reg;
  ObjectId Slots = Reg.registerObject("slots", "slots.elem");
  ObjectId Last = Reg.registerObject("last");
  WriteSetDetector D;
  ShardedConfig Cfg = shardedConfig(4, 8);
  Cfg.Ordered = true;
  Cfg.RecordTrace = true;
  ShardedRuntime R(Reg, D, Cfg);

  const int N = 40;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I)
    Tasks.push_back([Slots, Last, I](TxContext &Tx) {
      Tx.write(Location(Slots, I), Value::of(int64_t(I)));
      Tx.write(Location(Last), Value::of(int64_t(I)));
    });
  R.run(Tasks);

  analysis::AuditReport Report = analysis::audit(R.trace(), Tasks, Reg);
  EXPECT_TRUE(Report.clean()) << Report.summary();
}

// The regression the auditor refinement exists for: under the sharded
// engine a transaction's begin point differs per shard, so a commit
// that is *globally* concurrent with a later transaction may already
// have been observed by it at the owning shard's acquisition stamp.
// Without the per-location refinement the happens-before audit would
// flag the pair's non-commuting writes as a harmful race.
TEST(HappensBeforeShardedTest, ShardBeginsSuppressObservedPredecessors) {
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject("obj", "obj.elem");
  const uint32_t NumShards = 4;
  const int Slot = slotInShard(Obj, 2, NumShards);
  const Location Loc(Obj, Slot);
  // A second shard the later transaction acquired *early*, making its
  // global BeginTime predate the first transaction's commit.
  const uint32_t OtherShard = 1;
  ASSERT_NE(shardIndexOf(Loc, NumShards), OtherShard);

  auto WriteLog = [&](int64_t V) {
    return std::make_shared<const TxLog>(
        TxLog{{Loc, LocOp::write(Value::of(V))}});
  };

  AuditTrace Trace;
  Trace.Recorded = true;
  Trace.Shards = NumShards;
  // Tx 1: begins at 1, commits Loc := 5 at time 2.
  Trace.Events.push_back(TraceEvent{1, 1, 2, true, WriteLog(5), Snapshot(),
                                    CommitMode::Speculative,
                                    {{shardIndexOf(Loc, NumShards), 1},
                                     {OtherShard, 1}}});
  // Tx 2: acquired OtherShard at stamp 1 (global begin 1, so globally
  // concurrent with tx 1), but acquired Loc's shard at stamp 2 — tx
  // 1's commit was already in its entry slice there. Writes Loc := 7.
  Snapshot Tx2Entry = Snapshot().set(Loc, Value::of(int64_t(5)));
  Trace.Events.push_back(TraceEvent{2, 1, 3, true, WriteLog(7),
                                    std::move(Tx2Entry),
                                    CommitMode::Speculative,
                                    {{OtherShard, 1},
                                     {shardIndexOf(Loc, NumShards), 2}}});
  Trace.Final = Snapshot().set(Loc, Value::of(int64_t(7)));

  analysis::HappensBeforeReport Refined =
      analysis::checkHappensBefore(Trace, Reg);
  EXPECT_EQ(Refined.harmfulCount(), 0u)
      << "observed predecessor misreported as a race";

  // Teeth: the same trace without shard stamps (as an unsharded
  // engine would record it) is a genuine unordered non-commuting
  // write pair, and must be flagged.
  AuditTrace Unsharded = Trace;
  Unsharded.Shards = 1;
  for (TraceEvent &E : Unsharded.Events)
    E.ShardBegins.clear();
  analysis::HappensBeforeReport Flat =
      analysis::checkHappensBefore(Unsharded, Reg);
  EXPECT_EQ(Flat.harmfulCount(), 1u);
}

// Regression guard for the single-shard engine: empty commits take the
// allocation-free fast path and are counted.
TEST(ShardedRuntimeTest, EmptyCommitsAreCountedOnTheFastPath) {
  ObjectRegistry Reg;
  WriteSetDetector D;
  ShardedRuntime R(Reg, D, shardedConfig(4, 1));
  const int N = 100;
  R.run(std::vector<TaskFn>(N, [](TxContext &) {}));
  EXPECT_EQ(R.stats().Commits.load(), static_cast<uint64_t>(N));
  EXPECT_EQ(R.stats().EmptyCommits.load(), static_cast<uint64_t>(N));
  EXPECT_EQ(R.commitOrder().size(), static_cast<size_t>(N));
}

// Torn-commit probe: a cross-shard commit must publish to every touched
// shard atomically, even while a chaos plan stalls the two-phase lock
// acquisition mid-acquire (acquiredelay widens the window in which a
// broken publication would be observable), force-aborts first attempts
// and injects a transient throw. Writer tasks write the same value to
// both halves of a shard-spanning pair; probe tasks read both halves
// and commit the difference — any committed nonzero difference is a
// torn observation that escaped detection, i.e. partial publication.
TEST(ShardedRuntimeTest, TornCommitProbeUnderMidAcquireFaults) {
  ObjectRegistry Reg;
  ObjectId Pairs = Reg.registerObject("pairs", "pairs.elem");
  ObjectId Seen = Reg.registerObject("seen", "seen.elem");
  WriteSetDetector D;
  ShardedConfig Cfg = shardedConfig(4, 8);
  Cfg.RecordTrace = true;
  {
    std::string Err;
    std::optional<resilience::FaultPlan> Plan = resilience::FaultPlan::parse(
        "abort@*.1;acquiredelay@*.2=300;delay@*.3=3;throw@5.2", &Err);
    ASSERT_TRUE(Plan.has_value()) << Err;
    Cfg.Faults = std::move(*Plan);
  }
  ShardedRuntime R(Reg, D, Cfg);
  const uint32_t NumShards = R.numShards();

  // Each pair spans two distinct shards; slots are disjoint across
  // pairs (slotInShard scans forward from a per-pair floor).
  const int NumPairs = 8;
  std::vector<int> SlotA(NumPairs), SlotB(NumPairs);
  Snapshot Init;
  for (int P = 0; P != NumPairs; ++P) {
    uint32_t SA = static_cast<uint32_t>(P) % NumShards;
    uint32_t SB = (SA + NumShards / 2) % NumShards;
    SlotA[P] = slotInShard(Pairs, SA, NumShards, P * 1000);
    SlotB[P] = slotInShard(Pairs, SB, NumShards, P * 1000 + 500);
    Init = Init.set(Location(Pairs, SlotA[P]), Value::of(int64_t(P)));
    Init = Init.set(Location(Pairs, SlotB[P]), Value::of(int64_t(P)));
  }
  R.setInitialState(Init);

  // Interleave writers (both halves := same fresh value) with probes
  // (commit the observed difference into a private slot).
  const int N = 48;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I) {
    const int P = I % NumPairs;
    const Location A(Pairs, SlotA[P]), B(Pairs, SlotB[P]);
    if (I % 2 == 0)
      Tasks.push_back([A, B, I](TxContext &Tx) {
        Tx.write(A, Value::of(int64_t(100 + I)));
        Tx.write(B, Value::of(int64_t(100 + I)));
      });
    else
      Tasks.push_back([A, B, Seen, I](TxContext &Tx) {
        int64_t VA = Tx.read(A).asInt();
        int64_t VB = Tx.read(B).asInt();
        Tx.write(Location(Seen, I), Value::of(VA - VB));
      });
  }
  R.run(Tasks);

  // The chaos plan actually fired, and cross-shard commits happened.
  EXPECT_GT(R.stats().FaultsInjected.load(), 0u);
  EXPECT_GT(R.stats().CrossShardCommits.load(), 0u);

  // No partial publication: every pair's halves agree in the final
  // state, and no probe ever committed a torn observation.
  Snapshot S = R.sharedState();
  for (int P = 0; P != NumPairs; ++P)
    EXPECT_EQ(snapshotValue(S, Location(Pairs, SlotA[P])).asInt(),
              snapshotValue(S, Location(Pairs, SlotB[P])).asInt())
        << "pair " << P << " published torn";
  for (int I = 1; I < N; I += 2)
    EXPECT_EQ(snapshotValue(S, Location(Seen, I)).asInt(), 0)
        << "probe " << I << " committed a torn read";

  // The dense clock survived the fault mix, and the recorded trace
  // passes the full hindsight audit.
  EXPECT_EQ(R.commitOrder().size(), static_cast<size_t>(N));
  analysis::AuditReport Report = analysis::audit(R.trace(), Tasks, Reg);
  EXPECT_TRUE(Report.clean()) << Report.summary();
}

TEST(ShardedRuntimeTest, EightShardsAndOneShardAgreeOnFinalState) {
  const int N = 48;
  auto MakeTasks = [](ObjectId Counter, ObjectId Slots) {
    std::vector<TaskFn> Tasks;
    for (int I = 0; I != N; ++I)
      Tasks.push_back([Counter, Slots, I](TxContext &Tx) {
        Tx.add(Location(Counter), 2);
        Tx.write(Location(Slots, I % 17), Value::of(int64_t(I % 17)));
      });
    return Tasks;
  };

  ObjectRegistry RegA;
  ObjectId CounterA = RegA.registerObject("counter");
  ObjectId SlotsA = RegA.registerObject("slots", "slots.elem");
  WriteSetDetector DA;
  ShardedRuntime Sharded(RegA, DA, shardedConfig(4, 8));
  Sharded.run(MakeTasks(CounterA, SlotsA));

  ObjectRegistry RegB;
  ObjectId CounterB = RegB.registerObject("counter");
  ObjectId SlotsB = RegB.registerObject("slots", "slots.elem");
  WriteSetDetector DB;
  ShardedRuntime OneShard(RegB, DB, shardedConfig(4, 1));
  OneShard.run(MakeTasks(CounterB, SlotsB));

  EXPECT_EQ(snapshotValue(Sharded.sharedState(), Location(CounterA)).asInt(),
            snapshotValue(OneShard.sharedState(), Location(CounterB))
                .asInt());
  for (int I = 0; I != 17; ++I)
    EXPECT_EQ(
        snapshotValue(Sharded.sharedState(), Location(SlotsA, I)).asInt(),
        snapshotValue(OneShard.sharedState(), Location(SlotsB, I)).asInt());
}
