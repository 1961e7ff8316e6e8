//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the tooling layer: pattern classification (the Table 5
/// analysis), conflict explanations, online-training memoization, and
/// the commit-order serializability oracle on both runtimes.
///
//===----------------------------------------------------------------------===//

#include "janus/conflict/Explain.h"
#include "janus/conflict/SequenceDetector.h"
#include "janus/core/Janus.h"
#include "janus/stm/SimRuntime.h"
#include "janus/stm/ShardedRuntime.h"
#include "janus/support/Rng.h"
#include "janus/training/PatternReport.h"
#include "janus/training/Trainer.h"
#include "janus/workloads/Workload.h"

#include <gtest/gtest.h>

using namespace janus;
using namespace janus::symbolic;
using namespace janus::training;
using stm::LogEntry;
using stm::Snapshot;
using stm::TaskFn;
using stm::TxContext;
using stm::TxLog;

// ---------------------------------------------------------------------------
// Pattern classification.
// ---------------------------------------------------------------------------

TEST(PatternClassifierTest, Identity) {
  EXPECT_TRUE(exhibitsIdentity({LocOp::add(5), LocOp::add(-5)}));
  EXPECT_TRUE(exhibitsIdentity({LocOp::read(Value::of(2)),
                                LocOp::write(Value::of(3)),
                                LocOp::read(Value::of(3)),
                                LocOp::write(Value::of(2))}));
  EXPECT_FALSE(exhibitsIdentity({LocOp::add(5)}));
  EXPECT_FALSE(exhibitsIdentity({LocOp::write(Value::of(1))}));
  // Write-then-erase restores the empty state.
  EXPECT_TRUE(exhibitsIdentity(
      {LocOp::write(Value::of(9)), LocOp::write(Value::absent())}));
}

TEST(PatternClassifierTest, Reduction) {
  EXPECT_TRUE(exhibitsReduction({LocOp::add(1)}));
  EXPECT_TRUE(exhibitsReduction({LocOp::add(1), LocOp::add(7)}));
  EXPECT_FALSE(exhibitsReduction({LocOp::add(1), LocOp::read()}));
  EXPECT_FALSE(exhibitsReduction({}));
}

TEST(PatternClassifierTest, SharedAsLocal) {
  EXPECT_TRUE(exhibitsSharedAsLocal(
      {LocOp::write(Value::of(1)), LocOp::read(Value::of(1))}));
  EXPECT_FALSE(exhibitsSharedAsLocal({LocOp::write(Value::of(1))}));
  EXPECT_FALSE(exhibitsSharedAsLocal(
      {LocOp::read(Value::of(0)), LocOp::write(Value::of(1))}));
}

TEST(PatternClassifierTest, ReadOnly) {
  EXPECT_TRUE(isReadOnly({LocOp::read()}));
  EXPECT_FALSE(isReadOnly({LocOp::read(), LocOp::add(1)}));
  EXPECT_FALSE(isReadOnly({}));
}

TEST(PatternReportTest, ClassifiesAMixedRun) {
  ObjectRegistry Reg;
  ObjectId Counter = Reg.registerObject("counter");
  ObjectId MaxVal = Reg.registerObject("maxVal");

  std::map<Location, std::vector<TaskSubsequence>> Subs;
  // Counter: three tasks, pure adds (reduction).
  for (uint32_t T = 1; T <= 3; ++T)
    Subs[Location(Counter)].push_back(
        TaskSubsequence{T, {LocOp::add(static_cast<int64_t>(T))}});
  // MaxVal: two readers, one writer (spurious reads).
  Subs[Location(MaxVal)].push_back(
      TaskSubsequence{1, {LocOp::read(Value::of(1))}});
  Subs[Location(MaxVal)].push_back(
      TaskSubsequence{2, {LocOp::read(Value::of(1))}});
  Subs[Location(MaxVal)].push_back(
      TaskSubsequence{3, {LocOp::write(Value::of(5))}});

  PatternReport Report = PatternReport::analyze(Subs, Reg);
  const ObjectPatternStats *C = Report.objectByName("counter");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->Hits.at(Pattern::Reduction), 3u);
  const ObjectPatternStats *M = Report.objectByName("maxVal");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Hits.at(Pattern::SpuriousReads), 2u);
  // Prevalent list is non-empty and ranked.
  EXPECT_FALSE(C->prevalent().empty());
  EXPECT_EQ(C->prevalent().front(), Pattern::Reduction);
  EXPECT_NE(Report.summary().find("Reduction"), std::string::npos);
}

TEST(PatternReportTest, SingleTaskLocationsIgnored) {
  ObjectRegistry Reg;
  ObjectId Priv = Reg.registerObject("private");
  std::map<Location, std::vector<TaskSubsequence>> Subs;
  Subs[Location(Priv)].push_back(
      TaskSubsequence{1, {LocOp::write(Value::of(1))}});
  PatternReport Report = PatternReport::analyze(Subs, Reg);
  EXPECT_EQ(Report.objectByName("private"), nullptr);
  EXPECT_EQ(Report.summary(), "(none)");
}

TEST(PatternReportTest, MergeAccumulates) {
  ObjectRegistry Reg;
  ObjectId C = Reg.registerObject("c");
  std::map<Location, std::vector<TaskSubsequence>> Subs;
  for (uint32_t T = 1; T <= 2; ++T)
    Subs[Location(C)].push_back(TaskSubsequence{T, {LocOp::add(1)}});
  PatternReport A = PatternReport::analyze(Subs, Reg);
  PatternReport B = PatternReport::analyze(Subs, Reg);
  A.mergeWith(B);
  EXPECT_EQ(A.objectByName("c")->Subsequences, 4u);
  EXPECT_EQ(A.objectByName("c")->Hits.at(Pattern::Reduction), 4u);
}

TEST(PatternReportTest, WorkloadPatternsDetected) {
  // The Table 5 check: each workload's detected patterns include its
  // expected ones.
  using namespace janus::workloads;
  for (auto &W : allWorkloads()) {
    core::JanusConfig Cfg;
    core::Janus J(Cfg);
    W->setup(J);
    for (const PayloadSpec &P : W->trainingPayloads(3))
      J.train(W->makeTasks(P));
    std::string Detected = J.patternReport().summary();
    // Split the expected list and check containment.
    std::string Expected = W->patterns();
    size_t Pos = 0;
    while (Pos < Expected.size()) {
      size_t Comma = Expected.find(", ", Pos);
      std::string Name = Expected.substr(
          Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
      EXPECT_NE(Detected.find(Name), std::string::npos)
          << W->name() << ": expected pattern '" << Name
          << "' not in detected '" << Detected << "'";
      if (Comma == std::string::npos)
        break;
      Pos = Comma + 2;
    }
  }
}

// ---------------------------------------------------------------------------
// Conflict explanations.
// ---------------------------------------------------------------------------

namespace {

struct ExplainWorld {
  ObjectRegistry Reg;
  ObjectId Work;
  ExplainWorld() { Work = Reg.registerObject("work"); }
};

stm::TxLogRef logOf(std::initializer_list<LogEntry> Entries) {
  return std::make_shared<const TxLog>(Entries);
}

} // namespace

TEST(ExplainTest, NoConflictOnEmptyHistory) {
  ExplainWorld W;
  TxLog Mine{{Location(W.Work), LocOp::write(Value::of(1))}};
  auto E = conflict::explainConflict(Snapshot(), Mine, {}, W.Reg);
  EXPECT_FALSE(E.Conflicting);
  EXPECT_EQ(E.toString(), "no conflict");
}

TEST(ExplainTest, ExplainsCommuteViolation) {
  ExplainWorld W;
  TxLog Mine{{Location(W.Work), LocOp::write(Value::of(5))}};
  auto Theirs = logOf({{Location(W.Work), LocOp::write(Value::of(7))}});
  auto E = conflict::explainConflict(Snapshot(), Mine, {Theirs}, W.Reg);
  ASSERT_TRUE(E.Conflicting);
  EXPECT_EQ(E.LocationName, "work");
  EXPECT_NE(E.Reason.find("COMMUTE violated"), std::string::npos);
  EXPECT_NE(E.Reason.find("5"), std::string::npos);
  EXPECT_NE(E.Reason.find("7"), std::string::npos);
  EXPECT_NE(E.toString().find("mine: W(5)"), std::string::npos);
}

TEST(ExplainTest, ExplainsSameReadViolation) {
  ExplainWorld W;
  stm::Snapshot S;
  S = S.set(Location(W.Work), Value::of(3));
  TxLog Mine{{Location(W.Work), LocOp::read(Value::of(3))}};
  auto Theirs = logOf({{Location(W.Work), LocOp::write(Value::of(9))}});
  auto E = conflict::explainConflict(S, Mine, {Theirs}, W.Reg);
  ASSERT_TRUE(E.Conflicting);
  EXPECT_NE(E.Reason.find("SAMEREAD violated"), std::string::npos);
  EXPECT_NE(E.Reason.find("3"), std::string::npos);
  EXPECT_NE(E.Reason.find("9"), std::string::npos);
}

TEST(ExplainTest, RespectsRelaxations) {
  ObjectRegistry Reg;
  ObjectId Relaxed = Reg.registerObject(
      "scratch", "", RelaxationSpec{/*TolerateRAW=*/false,
                                    /*TolerateWAW=*/true});
  TxLog Mine{{Location(Relaxed), LocOp::write(Value::of(1))}};
  auto Theirs = logOf({{Location(Relaxed), LocOp::write(Value::of(2))}});
  auto E = conflict::explainConflict(Snapshot(), Mine, {Theirs}, Reg);
  EXPECT_FALSE(E.Conflicting);
}

TEST(ExplainTest, AgreesWithOnlineDetector) {
  // Property: explainConflict's verdict equals conflictOnline's on
  // random pairs.
  ExplainWorld W;
  Rng R(77);
  for (int Iter = 0; Iter != 200; ++Iter) {
    auto RandomLog = [&]() {
      TxLog Log;
      for (int I = 0, E = 1 + static_cast<int>(R.below(3)); I != E; ++I) {
        switch (R.below(3)) {
        case 0:
          Log.push_back({Location(W.Work), LocOp::read()});
          break;
        case 1:
          Log.push_back({Location(W.Work), LocOp::add(R.range(-2, 2))});
          break;
        default:
          Log.push_back(
              {Location(W.Work), LocOp::write(Value::of(R.range(0, 3)))});
          break;
        }
      }
      return Log;
    };
    Snapshot S;
    S = S.set(Location(W.Work), Value::of(R.range(0, 3)));
    TxLog Mine = RandomLog();
    auto Theirs = std::make_shared<const TxLog>(RandomLog());
    auto E = conflict::explainConflict(S, Mine, {Theirs}, W.Reg);
    bool Online = conflict::conflictOnline(
        stm::snapshotValue(S, Location(W.Work)),
        conflict::decompose(Mine)[Location(W.Work)],
        conflict::decomposeAll({Theirs})[Location(W.Work)]);
    EXPECT_EQ(E.Conflicting, Online) << "iteration " << Iter;
  }
}

// ---------------------------------------------------------------------------
// Online-training memoization.
// ---------------------------------------------------------------------------

TEST(MemoizationTest, MissesBecomeHits) {
  ObjectRegistry Reg;
  ObjectId Work = Reg.registerObject("work");
  auto Cache = std::make_shared<conflict::CommutativityCache>();
  conflict::SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  Cfg.MemoizeOnline = true;
  conflict::SequenceDetector D(Cache, Cfg);

  TxLog Mine{{Location(Work), LocOp::add(4)}};
  auto Theirs = logOf({{Location(Work), LocOp::add(9)}});
  EXPECT_EQ(Cache->size(), 0u);
  EXPECT_FALSE(D.detectConflicts(Snapshot(), Mine, {Theirs}, Reg));
  EXPECT_EQ(D.stats().CacheMisses.load(), 1u);
  EXPECT_EQ(Cache->size(), 1u); // Memoized.
  // The same query now hits (fresh operand values, same signatures).
  TxLog Mine2{{Location(Work), LocOp::add(-2)}};
  auto Theirs2 = logOf({{Location(Work), LocOp::add(5)}});
  EXPECT_FALSE(D.detectConflicts(Snapshot(), Mine2, {Theirs2}, Reg));
  EXPECT_EQ(D.stats().CacheMisses.load(), 1u);
  EXPECT_EQ(D.stats().CacheHits.load(), 1u);
}

TEST(MemoizationTest, MemoizedVerdictsRemainSound) {
  // Equal-writes memoization: the cached condition must distinguish
  // equal from unequal values on later queries.
  ObjectRegistry Reg;
  ObjectId Pix = Reg.registerObject("pixel");
  auto Cache = std::make_shared<conflict::CommutativityCache>();
  conflict::SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  Cfg.MemoizeOnline = true;
  conflict::SequenceDetector D(Cache, Cfg);

  auto Check = [&](const char *A, const char *B) {
    TxLog Mine{{Location(Pix), LocOp::write(Value::of(A))}};
    auto Theirs = logOf({{Location(Pix), LocOp::write(Value::of(B))}});
    return D.detectConflicts(Snapshot(), Mine, {Theirs}, Reg);
  };
  EXPECT_FALSE(Check("red", "red")); // Miss, memoized.
  EXPECT_EQ(Cache->size(), 1u);
  EXPECT_TRUE(Check("red", "blue"));  // Hit: condition false.
  EXPECT_FALSE(Check("blue", "blue")); // Hit: condition true.
  EXPECT_EQ(D.stats().CacheMisses.load(), 1u);
}

// ---------------------------------------------------------------------------
// Commit-order serializability oracle.
// ---------------------------------------------------------------------------

namespace {

/// Re-executes \p Tasks sequentially in \p Order from \p Initial.
Snapshot replayInOrder(const ObjectRegistry &Reg, Snapshot Initial,
                       const std::vector<TaskFn> &Tasks,
                       const std::vector<uint32_t> &Order) {
  Snapshot State = std::move(Initial);
  for (uint32_t Tid : Order) {
    TxContext Tx(State, Tid, Reg);
    Tasks[Tid - 1](Tx);
    for (const LogEntry &E : Tx.log())
      State = stm::applyToSnapshot(State, E.Loc, E.Op);
  }
  return State;
}

std::vector<TaskFn> randomTasks(ObjectId A, ObjectId B, Rng &R, int Count) {
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != Count; ++I) {
    int Kind = static_cast<int>(R.below(3));
    int64_t V = R.range(0, 5);
    Tasks.push_back([A, B, Kind, V](TxContext &Tx) {
      switch (Kind) {
      case 0: {
        Value Cur = Tx.read(Location(A));
        Tx.write(Location(A),
                 Value::of((Cur.isInt() ? Cur.asInt() : 0) + V));
        break;
      }
      case 1:
        Tx.add(Location(B), V);
        break;
      default:
        Tx.read(Location(B));
        Tx.write(Location(A), Value::of(V));
        break;
      }
    });
  }
  return Tasks;
}

} // namespace

class SerializabilityOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializabilityOracle, SimFinalStateEqualsCommitOrderReplay) {
  Rng R(GetParam());
  for (bool Ordered : {false, true}) {
    ObjectRegistry Reg;
    ObjectId A = Reg.registerObject("a"), B = Reg.registerObject("b");
    std::vector<TaskFn> Tasks = randomTasks(A, B, R, 25);

    stm::WriteSetDetector D;
    stm::SimConfig Cfg;
    Cfg.NumCores = 4;
    Cfg.Ordered = Ordered;
    stm::SimRuntime Runtime(Reg, D, Cfg);
    Runtime.run(Tasks);

    std::vector<uint32_t> Order = Runtime.commitOrder();
    ASSERT_EQ(Order.size(), Tasks.size());
    if (Ordered) {
      for (size_t I = 0; I != Order.size(); ++I)
        ASSERT_EQ(Order[I], I + 1) << "ordered run must commit in order";
    }

    Snapshot Replayed = replayInOrder(Reg, Snapshot(), Tasks, Order);
    EXPECT_TRUE(Runtime.sharedState() == Replayed)
        << "ordered=" << Ordered;
  }
}

TEST_P(SerializabilityOracle, ThreadedFinalStateEqualsCommitOrderReplay) {
  Rng R(GetParam() + 1000);
  ObjectRegistry Reg;
  ObjectId A = Reg.registerObject("a"), B = Reg.registerObject("b");
  std::vector<TaskFn> Tasks = randomTasks(A, B, R, 30);

  stm::WriteSetDetector D;
  stm::ShardedRuntime Runtime(Reg, D, stm::ShardedConfig{.NumThreads = 4});
  Runtime.run(Tasks);

  std::vector<uint32_t> Order = Runtime.commitOrder();
  ASSERT_EQ(Order.size(), Tasks.size());
  Snapshot Replayed = replayInOrder(Reg, Snapshot(), Tasks, Order);
  EXPECT_TRUE(Runtime.sharedState() == Replayed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializabilityOracle,
                         ::testing::Values(51, 52, 53, 54));
