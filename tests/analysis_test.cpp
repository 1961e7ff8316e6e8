//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the hindsight auditor (janus::analysis): vector clocks,
/// the commit-order serializability replay, the happens-before race
/// audit, escape detection and the combined audit() facade.
///
/// The central negative test wires a deliberately broken detector that
/// admits everything ("always commutes") into the runtime and checks
/// that the auditor convicts it — the machine-checkable contrapositive
/// of Theorem 4.1.
///
//===----------------------------------------------------------------------===//

#include "janus/analysis/Auditor.h"
#include "janus/adt/TxCounter.h"
#include "janus/stm/Detector.h"
#include "janus/stm/SimRuntime.h"
#include "janus/stm/ShardedRuntime.h"

#include <gtest/gtest.h>

using namespace janus;
using namespace janus::analysis;
using namespace janus::stm;
using symbolic::LocOp;

namespace {

/// The unsound detector of the negative tests: admits every schedule.
/// Valid (empty history never conflicts) but maximally unsound.
class AlwaysCommutesDetector : public ConflictDetector {
public:
  bool detectConflicts(const Snapshot &, const TxLog &,
                       const std::vector<TxLogRef> &,
                       const ObjectRegistry &) override {
    return false;
  }
  std::string name() const override { return "always-commutes"; }
};

/// N contended read-modify-write increments of one location — the
/// classic lost-update workload; any unsound admission loses updates.
std::vector<TaskFn> incrementTasks(const Location &L, int N) {
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I)
    Tasks.push_back([L](TxContext &Tx) {
      Value V = Tx.read(L);
      Tx.write(L, Value::of((V.isAbsent() ? 0 : V.asInt()) + 1));
    });
  return Tasks;
}

/// Runs \p Tasks on the 8-core simulator with \p D, recording a trace.
AuditTrace simTrace(const ObjectRegistry &Reg, ConflictDetector &D,
                    const std::vector<TaskFn> &Tasks,
                    Snapshot Initial = Snapshot()) {
  SimConfig C;
  C.NumCores = 8;
  C.RecordTrace = true;
  SimRuntime R(Reg, D, C);
  R.setInitialState(std::move(Initial));
  R.run(Tasks);
  return R.trace();
}

} // namespace

// ---------------------------------------------------------------------------
// Vector clocks.
// ---------------------------------------------------------------------------

TEST(VectorClockTest, RaiseJoinAndDomination) {
  VectorClock A, B;
  A.raise(1, 3);
  B.raise(2, 5);
  EXPECT_EQ(A.get(1), 3u);
  EXPECT_EQ(A.get(2), 0u);
  EXPECT_TRUE(concurrent(A, B));
  B.join(A);
  EXPECT_EQ(B.get(1), 3u);
  EXPECT_EQ(B.get(2), 5u);
  EXPECT_TRUE(A.dominatedBy(B));
  EXPECT_TRUE(happensBefore(A, B));
  EXPECT_FALSE(happensBefore(B, A));
}

TEST(VectorClockTest, EqualClocksAreOrderedNeitherWay) {
  VectorClock A;
  A.raise(7, 2);
  VectorClock B = A;
  EXPECT_FALSE(happensBefore(A, B));
  EXPECT_FALSE(happensBefore(B, A));
  EXPECT_FALSE(concurrent(A, B)); // Equal, not concurrent.
}

TEST(VectorClockTest, JoinIsComponentwiseMax) {
  VectorClock A, B;
  A.raise(1, 4);
  A.raise(2, 1);
  B.raise(2, 9);
  A.join(B);
  EXPECT_EQ(A.get(1), 4u);
  EXPECT_EQ(A.get(2), 9u);
}

// ---------------------------------------------------------------------------
// Serializability replay.
// ---------------------------------------------------------------------------

TEST(SerializabilityTest, UnrecordedTraceIsNotChecked) {
  ObjectRegistry Reg;
  AuditTrace Trace; // Recorded = false.
  SerializabilityReport R = checkSerializability(Trace, {}, Reg);
  EXPECT_FALSE(R.Checked);
  EXPECT_EQ(R.violationCount(), 0u);
}

TEST(SerializabilityTest, EmptyRunIsClean) {
  ObjectRegistry Reg;
  AuditTrace Trace;
  Trace.Recorded = true;
  SerializabilityReport R = checkSerializability(Trace, {}, Reg);
  EXPECT_TRUE(R.Checked);
  EXPECT_EQ(R.TxReplayed, 0u);
  EXPECT_EQ(R.violationCount(), 0u);
}

TEST(SerializabilityTest, SoundRunReplaysClean) {
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject("x");
  WriteSetDetector D;
  std::vector<TaskFn> Tasks = incrementTasks(Location(Obj), 30);
  AuditTrace Trace = simTrace(Reg, D, Tasks);
  ASSERT_TRUE(Trace.Recorded);
  SerializabilityReport R = checkSerializability(Trace, Tasks, Reg);
  EXPECT_EQ(R.TxReplayed, 30u);
  EXPECT_EQ(R.violationCount(), 0u);
  EXPECT_EQ(R.relaxedCount(), 0u);
}

TEST(SerializabilityTest, BrokenDetectorIsConvicted) {
  // The tentpole negative test: an always-commutes detector loses
  // updates on the contended increment workload, and the commit-order
  // replay must expose the divergence as a serializability violation.
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject("x");
  AlwaysCommutesDetector Broken;
  std::vector<TaskFn> Tasks = incrementTasks(Location(Obj), 40);
  AuditTrace Trace = simTrace(Reg, Broken, Tasks);
  SerializabilityReport R = checkSerializability(Trace, Tasks, Reg);
  EXPECT_GE(R.violationCount(), 1u);
  ASSERT_FALSE(R.Divergences.empty());
  EXPECT_FALSE(R.Divergences[0].Relaxed);
  EXPECT_EQ(R.Divergences[0].LocName, "x");
}

TEST(SerializabilityTest, RelaxedObjectSanctionsDivergence) {
  // Same lost-update anomaly, but the object declares tolerate-RAW:
  // every writer read the relaxed location, so the divergence is
  // classified as relaxation-sanctioned, not a violation.
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject(
      "x", "", RelaxationSpec{/*TolerateRAW=*/true, /*TolerateWAW=*/false});
  AlwaysCommutesDetector Broken;
  std::vector<TaskFn> Tasks = incrementTasks(Location(Obj), 40);
  AuditTrace Trace = simTrace(Reg, Broken, Tasks);
  SerializabilityReport R = checkSerializability(Trace, Tasks, Reg);
  EXPECT_EQ(R.violationCount(), 0u);
  EXPECT_GE(R.relaxedCount(), 1u);
}

TEST(SerializabilityTest, ScheduleIssuesAreReported) {
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject("x");
  auto Log = std::make_shared<const TxLog>(
      TxLog{{Location(Obj), LocOp::write(Value::of(1))}});
  AuditTrace Trace;
  Trace.Recorded = true;
  // Task 1 commits twice; task 2 never; tid 9 is unknown.
  Trace.Events.push_back(TraceEvent{1, 0, 1, true, Log, Snapshot(), CommitMode::Speculative, {}});
  Trace.Events.push_back(TraceEvent{1, 1, 2, true, Log, Snapshot(), CommitMode::Speculative, {}});
  Trace.Events.push_back(TraceEvent{9, 2, 3, true, Log, Snapshot(), CommitMode::Speculative, {}});
  std::vector<TaskFn> Tasks(2, [&](TxContext &Tx) {
    Tx.write(Location(Obj), Value::of(1));
  });
  Trace.Final = Snapshot().set(Location(Obj), Value::of(1));
  SerializabilityReport R = checkSerializability(Trace, Tasks, Reg);
  EXPECT_EQ(R.ScheduleIssues.size(), 3u);
  EXPECT_GE(R.violationCount(), 3u);
}

// ---------------------------------------------------------------------------
// Happens-before race audit.
// ---------------------------------------------------------------------------

TEST(HappensBeforeTest, SoundRunHasNoHarmfulRaces) {
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject("x");
  WriteSetDetector D;
  std::vector<TaskFn> Tasks = incrementTasks(Location(Obj), 30);
  AuditTrace Trace = simTrace(Reg, D, Tasks);
  HappensBeforeReport R = checkHappensBefore(Trace, Reg);
  EXPECT_TRUE(R.Checked);
  EXPECT_EQ(R.CommittedTx, 30u);
  EXPECT_EQ(R.harmfulCount(), 0u);
}

TEST(HappensBeforeTest, SequentialRunHasNoConcurrentPairs) {
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject("x");
  WriteSetDetector D;
  SimConfig C;
  C.NumCores = 1;
  C.RecordTrace = true;
  SimRuntime R(Reg, D, C);
  R.run(incrementTasks(Location(Obj), 10));
  HappensBeforeReport HB = checkHappensBefore(R.trace(), Reg);
  EXPECT_EQ(HB.ConcurrentPairs, 0u);
  EXPECT_TRUE(HB.Races.empty());
}

TEST(HappensBeforeTest, BrokenDetectorAdmitsHarmfulRaces) {
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject("x");
  AlwaysCommutesDetector Broken;
  std::vector<TaskFn> Tasks = incrementTasks(Location(Obj), 40);
  AuditTrace Trace = simTrace(Reg, Broken, Tasks);
  HappensBeforeReport R = checkHappensBefore(Trace, Reg);
  EXPECT_GT(R.ConcurrentPairs, 0u);
  EXPECT_GE(R.harmfulCount(), 1u);
}

TEST(HappensBeforeTest, RelaxedIncrementsAreSanctionedNotHarmful) {
  // Increment logs symbolize as write(read + 1): under the semantic
  // interpretation two increments commute, so on a tolerate-RAW object
  // the exact-COMMUTE failures downgrade to relaxation-sanctioned.
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject(
      "x", "", RelaxationSpec{/*TolerateRAW=*/true, /*TolerateWAW=*/false});
  AlwaysCommutesDetector Broken;
  std::vector<TaskFn> Tasks = incrementTasks(Location(Obj), 40);
  // Seed the counter: a write after a read of Absent does not symbolize
  // as read+1, and only the semantic form is sanctionable.
  AuditTrace Trace = simTrace(Reg, Broken, Tasks,
                              Snapshot().set(Location(Obj), Value::of(0)));
  HappensBeforeReport R = checkHappensBefore(Trace, Reg);
  EXPECT_EQ(R.harmfulCount(), 0u);
  EXPECT_GE(R.relaxedCount(), 1u);
}

TEST(HappensBeforeTest, CommutingAddsAreBenign) {
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject("x");
  WriteSetDetector D; // Sound but conservative; adds retry, then land.
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != 20; ++I)
    Tasks.push_back(
        [L = Location(Obj)](TxContext &Tx) { Tx.add(L, 1); });
  AuditTrace Trace = simTrace(Reg, D, Tasks);
  HappensBeforeReport R = checkHappensBefore(Trace, Reg);
  EXPECT_EQ(R.harmfulCount(), 0u);
}

// ---------------------------------------------------------------------------
// Escape detection.
// ---------------------------------------------------------------------------

#if JANUS_ESCAPE_CHECKS
TEST(EscapeTest, AccessAfterAttemptEndIsFlagged) {
  resetEscapes();
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject("x");
  RunStats Stats;
  TxContext Tx(Snapshot(), 7, Reg, &Stats);
  Tx.read(Location(Obj));
  Tx.endAttempt();
  EXPECT_EQ(escapeCount(), 0u);
  Tx.read(Location(Obj)); // Escaped access: context leaked past commit.
  EXPECT_EQ(escapeCount(), 1u);
  EXPECT_EQ(Stats.EscapedAccesses.load(), 1u);
  ASSERT_EQ(escapeEvents().size(), 1u);
  EXPECT_EQ(escapeEvents()[0].Tid, 7u);
  resetEscapes();
}

TEST(EscapeTest, AdtGuardAttributesTheMethod) {
  resetEscapes();
  ObjectRegistry Reg;
  adt::TxCounter C = adt::TxCounter::create(Reg, "hits");
  TxContext Tx(Snapshot(), 3, Reg);
  C.add(Tx, 1);
  Tx.endAttempt();
  C.add(Tx, 1); // ADT handle used outside the active attempt.
  ASSERT_EQ(escapeEvents().size(), 1u);
  EXPECT_EQ(escapeEvents()[0].Where, "TxCounter::add");
  resetEscapes();
}

TEST(EscapeTest, AuditFoldsEscapesIntoViolations) {
  resetEscapes();
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject("x");
  TxContext Tx(Snapshot(), 1, Reg);
  Tx.endAttempt();
  Tx.write(Location(Obj), Value::of(1));
  AuditTrace Trace;
  AuditReport Report = audit(Trace, {}, Reg);
  EXPECT_EQ(Report.Escapes, 1u);
  EXPECT_EQ(Report.violationCount(), 1u);
  EXPECT_FALSE(Report.clean());
  resetEscapes();
}
#endif // JANUS_ESCAPE_CHECKS

// ---------------------------------------------------------------------------
// The audit() facade.
// ---------------------------------------------------------------------------

TEST(AuditorTest, CleanRunProducesCleanReport) {
  resetEscapes();
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject("x");
  WriteSetDetector D;
  std::vector<TaskFn> Tasks = incrementTasks(Location(Obj), 25);
  AuditTrace Trace = simTrace(Reg, D, Tasks);
  AuditReport Report = audit(Trace, Tasks, Reg);
  EXPECT_TRUE(Report.clean());
  EXPECT_NE(Report.summary().find("audit: CLEAN"), std::string::npos);
}

TEST(AuditorTest, BrokenDetectorFailsTheAudit) {
  resetEscapes();
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject("x");
  AlwaysCommutesDetector Broken;
  std::vector<TaskFn> Tasks = incrementTasks(Location(Obj), 40);
  AuditTrace Trace = simTrace(Reg, Broken, Tasks);
  AuditReport Report = audit(Trace, Tasks, Reg);
  EXPECT_FALSE(Report.clean());
  EXPECT_GE(Report.violationCount(), 1u);
  EXPECT_NE(Report.summary().find("audit: FAILED"), std::string::npos);
}

TEST(AuditorTest, ThreadedTraceAuditsClean) {
  resetEscapes();
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject("x");
  WriteSetDetector D;
  ShardedRuntime R(Reg, D, ShardedConfig{.NumThreads = 4, .RecordTrace = true});
  std::vector<TaskFn> Tasks = incrementTasks(Location(Obj), 40);
  R.run(Tasks);
  AuditReport Report = audit(R.trace(), Tasks, Reg);
  EXPECT_TRUE(Report.clean()) << Report.summary();
  EXPECT_EQ(Report.Serializability.TxReplayed, 40u);
}

TEST(AuditorTest, ConfigDisablesChecks) {
  ObjectRegistry Reg;
  AuditTrace Trace;
  Trace.Recorded = true;
  AuditConfig Cfg;
  Cfg.CheckSerializability = false;
  Cfg.CheckRaces = false;
  Cfg.CheckEscapes = false;
  AuditReport Report = audit(Trace, {}, Reg, Cfg);
  EXPECT_FALSE(Report.Serializability.Checked);
  EXPECT_FALSE(Report.Races.Checked);
  EXPECT_EQ(Report.Escapes, 0u);
}

// ---------------------------------------------------------------------------
// Audit trace bookkeeping.
// ---------------------------------------------------------------------------

TEST(AuditTraceTest, CommitsSortedAbortsCounted) {
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject("x");
  WriteSetDetector D;
  std::vector<TaskFn> Tasks = incrementTasks(Location(Obj), 30);
  AuditTrace Trace = simTrace(Reg, D, Tasks);
  auto Committed = Trace.committedInOrder();
  ASSERT_EQ(Committed.size(), 30u);
  for (size_t I = 1; I != Committed.size(); ++I)
    EXPECT_LT(Committed[I - 1]->CommitTime, Committed[I]->CommitTime);
  // Contended RMW on 8 cores must have aborted at least once.
  EXPECT_GT(Trace.abortedCount(), 0u);
  EXPECT_EQ(Trace.Events.size(), 30u + Trace.abortedCount());
}
