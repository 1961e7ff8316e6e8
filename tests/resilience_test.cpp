//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for janus::resilience and its integration into both engines:
/// fault-plan parsing, the contention-manager escalation ladder
/// (backoff → serial fallback → failure), exception-safe transactions,
/// retry-storm bounding, deterministic fault injection, adaptive
/// detector degradation, and audit-cleanliness of degraded runs.
///
//===----------------------------------------------------------------------===//

#include "janus/analysis/Auditor.h"
#include "janus/conflict/SequenceDetector.h"
#include "janus/resilience/ContentionManager.h"
#include "janus/resilience/FaultPlan.h"
#include "janus/stm/Detector.h"
#include "janus/stm/SimRuntime.h"
#include "janus/stm/ShardedRuntime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>

using namespace janus;
using namespace janus::resilience;
using namespace janus::stm;
using symbolic::LocOp;

namespace {

/// Common fixture state: a registry with a couple of scalar objects.
struct World {
  ObjectRegistry Reg;
  ObjectId Work, Flag;
  World() {
    Work = Reg.registerObject("work");
    Flag = Reg.registerObject("flag");
  }
};

/// N read-modify-write increments of \p L — the classic lost-update
/// workload: every pair of tasks conflicts under write-set detection.
std::vector<TaskFn> incrementTasks(Location L, int N) {
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I)
    Tasks.push_back([L](TxContext &Tx) {
      Value V = Tx.read(L);
      int64_t Cur = V.isAbsent() ? 0 : V.asInt();
      Tx.write(L, Value::of(Cur + 1));
    });
  return Tasks;
}

FaultPlan mustParse(const std::string &Spec) {
  std::string Err;
  std::optional<FaultPlan> P = FaultPlan::parse(Spec, &Err);
  EXPECT_TRUE(P.has_value()) << Spec << ": " << Err;
  return P ? *P : FaultPlan();
}

} // namespace

// ---------------------------------------------------------------------------
// FaultPlan parsing.
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ParsesEveryClauseKind) {
  FaultPlan P = mustParse("abort@3.1;throw@2.1;delay@1.2=50;satbudget=4");
  EXPECT_FALSE(P.empty());
  EXPECT_EQ(P.actions().size(), 4u);
  EXPECT_TRUE(P.forceAbort(3, 1));
  EXPECT_FALSE(P.forceAbort(3, 2));
  EXPECT_FALSE(P.forceAbort(1, 1));
  EXPECT_TRUE(P.throwTask(2, 1));
  EXPECT_FALSE(P.throwTask(2, 2));
  EXPECT_EQ(P.commitDelay(1, 2), 50u);
  EXPECT_EQ(P.commitDelay(1, 1), 0u);
  ASSERT_TRUE(P.satConflictBudget().has_value());
  EXPECT_EQ(*P.satConflictBudget(), 4u);
}

TEST(FaultPlanTest, WildcardsMatchEveryCoordinate) {
  FaultPlan P = mustParse("abort@*.1;throw@2.*;delay@*.*=7");
  // Task wildcard: first attempt of every task aborts.
  EXPECT_TRUE(P.forceAbort(1, 1));
  EXPECT_TRUE(P.forceAbort(999, 1));
  EXPECT_FALSE(P.forceAbort(1, 2));
  // Attempt wildcard: every attempt of task 2 throws.
  EXPECT_TRUE(P.throwTask(2, 1));
  EXPECT_TRUE(P.throwTask(2, 17));
  EXPECT_FALSE(P.throwTask(3, 1));
  // Double wildcard: every commit is delayed.
  EXPECT_EQ(P.commitDelay(5, 9), 7u);
}

TEST(FaultPlanTest, RoundTripsThroughToString) {
  FaultPlan P = mustParse("abort@*.1;throw@2.1;delay@*.2=50;satbudget=4");
  FaultPlan Q = mustParse(P.toString());
  ASSERT_EQ(Q.actions().size(), P.actions().size());
  EXPECT_TRUE(Q.forceAbort(7, 1));
  EXPECT_TRUE(Q.throwTask(2, 1));
  EXPECT_EQ(Q.commitDelay(3, 2), 50u);
  ASSERT_TRUE(Q.satConflictBudget().has_value());
  EXPECT_EQ(*Q.satConflictBudget(), 4u);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  std::string Err;
  EXPECT_FALSE(FaultPlan::parse("bogus@1.1", &Err).has_value());
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(FaultPlan::parse("abort@x.1").has_value());
  EXPECT_FALSE(FaultPlan::parse("abort@1", &Err).has_value());
  EXPECT_FALSE(FaultPlan::parse("delay@1.1", &Err).has_value());
  EXPECT_FALSE(FaultPlan::parse("satbudget", &Err).has_value());
}

TEST(FaultPlanTest, FromEnvReadsJanusFaults) {
  ::setenv("JANUS_FAULTS", "abort@1.1;satbudget=7", 1);
  FaultPlan P = FaultPlan::fromEnv();
  EXPECT_TRUE(P.forceAbort(1, 1));
  ASSERT_TRUE(P.satConflictBudget().has_value());
  EXPECT_EQ(*P.satConflictBudget(), 7u);
  ::unsetenv("JANUS_FAULTS");
  EXPECT_TRUE(FaultPlan::fromEnv().empty());
}

// ---------------------------------------------------------------------------
// ContentionManager policy.
// ---------------------------------------------------------------------------

TEST(ContentionManagerTest, BackoffGrowsExponentiallyAndCaps) {
  ResilienceConfig C;
  C.SpeculativeRetryBudget = 0; // Never escalate: isolate backoff.
  C.BackoffBaseMicros = 2;
  C.BackoffCapMicros = 512;
  ContentionManager CM(C, 1);
  uint64_t Prev = 0;
  for (int I = 0; I != 20; ++I) {
    ContentionManager::Decision D = CM.onAbort(1, 0);
    ASSERT_EQ(D.Act, ContentionManager::Action::Retry);
    // Jitter lives in [step/2, step] so successive steps never shrink
    // below half the previous full step, and never exceed the cap.
    EXPECT_LE(D.BackoffMicros, 512u);
    EXPECT_GE(D.BackoffMicros, Prev / 2);
    Prev = D.BackoffMicros;
  }
  // Past attempt 9 the step is pinned at the cap.
  EXPECT_GE(Prev, 256u);
}

TEST(ContentionManagerTest, BackoffIsDeterministic) {
  ResilienceConfig C;
  C.SpeculativeRetryBudget = 0;
  ContentionManager A(C, 4), B(C, 4);
  for (int I = 0; I != 10; ++I) {
    EXPECT_EQ(A.onAbort(2, 1).BackoffMicros, B.onAbort(2, 1).BackoffMicros);
    EXPECT_EQ(A.onAbort(3, 0).BackoffMicros, B.onAbort(3, 0).BackoffMicros);
  }
}

TEST(ContentionManagerTest, EscalatesToSerialAfterRetryBudget) {
  ResilienceConfig C;
  C.SpeculativeRetryBudget = 3;
  ContentionManager CM(C, 2);
  EXPECT_EQ(CM.onAbort(1, 0).Act, ContentionManager::Action::Retry);
  EXPECT_EQ(CM.onAbort(1, 0).Act, ContentionManager::Action::Retry);
  EXPECT_EQ(CM.onAbort(1, 0).Act, ContentionManager::Action::Serial);
  // Other tasks age independently.
  EXPECT_EQ(CM.onAbort(2, 0).Act, ContentionManager::Action::Retry);
  EXPECT_EQ(CM.attempts(1), 3u);
}

TEST(ContentionManagerTest, ZeroBudgetNeverEscalates) {
  ResilienceConfig C;
  C.SpeculativeRetryBudget = 0; // The paper's retry-forever behaviour.
  ContentionManager CM(C, 1);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(CM.onAbort(1, 0).Act, ContentionManager::Action::Retry);
}

TEST(ContentionManagerTest, ExceptionBudgetThenFail) {
  ResilienceConfig C;
  C.ExceptionRetryBudget = 2;
  ContentionManager CM(C, 1);
  EXPECT_EQ(CM.onException(1, 0).Act, ContentionManager::Action::Retry);
  EXPECT_EQ(CM.onException(1, 0).Act, ContentionManager::Action::Retry);
  EXPECT_EQ(CM.onException(1, 0).Act, ContentionManager::Action::Fail);

  ResilienceConfig Zero;
  Zero.ExceptionRetryBudget = 0; // Fail on the first throw.
  ContentionManager CM0(Zero, 1);
  EXPECT_EQ(CM0.onException(1, 0).Act, ContentionManager::Action::Fail);
}

// ---------------------------------------------------------------------------
// Exception-safe transactions (threaded engine).
// ---------------------------------------------------------------------------

TEST(ThreadedResilienceTest, ThrowingTaskCommitsOnSecondAttempt) {
  World W;
  WriteSetDetector D;
  ShardedConfig C;
  C.NumThreads = 1;
  ShardedRuntime R(W.Reg, D, C);
  std::atomic<int> Calls{0};
  R.run({[&](TxContext &Tx) {
    if (Calls.fetch_add(1) == 0)
      throw std::runtime_error("transient glitch");
    Tx.write(Location(W.Work), Value::of(42));
  }});
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(42));
  EXPECT_EQ(R.stats().Commits.load(), 1u);
  EXPECT_EQ(R.stats().TaskExceptions.load(), 1u);
  // Thrown attempts are not conflict retries.
  EXPECT_EQ(R.stats().Retries.load(), 0u);
  EXPECT_TRUE(R.failures().empty());
}

TEST(ThreadedResilienceTest, PermanentThrowSurfacesStructuredFailure) {
  World W;
  WriteSetDetector D;
  ShardedConfig C;
  C.NumThreads = 2;
  C.Ordered = true;
  C.Resilience.ExceptionRetryBudget = 1;
  ShardedRuntime R(W.Reg, D, C);
  R.run({[&W](TxContext &Tx) { Tx.add(Location(W.Work), 1); },
         [](TxContext &) -> void { throw std::runtime_error("boom"); },
         [&W](TxContext &Tx) { Tx.add(Location(W.Work), 3); }});
  // The failed task's slot committed an empty placeholder, so its
  // ordered successor still ran; its effects are absent.
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(4));
  EXPECT_EQ(R.stats().Commits.load(), 3u);
  EXPECT_EQ(R.stats().TaskFailures.load(), 1u);
  ASSERT_EQ(R.failures().size(), 1u);
  const TaskFailure &F = R.failures()[0];
  EXPECT_EQ(F.Tid, 2u);
  EXPECT_EQ(F.Attempts, 2u); // Budget 1 ⇒ original + one retry.
  EXPECT_NE(F.Reason.find("boom"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Retry storms and serial escalation.
// ---------------------------------------------------------------------------

TEST(ThreadedResilienceTest, RetryStormIsBoundedByEscalation) {
  // 64 read-modify-write tasks on one cell across 8 threads: maximal
  // contention under write-set detection. With a retry budget every
  // task either commits speculatively or escalates to the serial
  // fallback — total aborts are bounded and nothing livelocks.
  World W;
  WriteSetDetector D;
  ShardedConfig C;
  C.NumThreads = 8;
  C.Resilience.SpeculativeRetryBudget = 4;
  C.Resilience.BackoffBaseMicros = 1;
  C.Resilience.BackoffCapMicros = 8;
  ShardedRuntime R(W.Reg, D, C);
  const int N = 64;
  R.run(incrementTasks(Location(W.Work), N));
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(N));
  EXPECT_EQ(R.stats().Commits.load(), static_cast<uint64_t>(N));
  // Each task aborts at most SpeculativeRetryBudget times before the
  // serial rung guarantees its commit.
  EXPECT_LE(R.stats().Retries.load(), static_cast<uint64_t>(N) * 4);
  EXPECT_TRUE(R.failures().empty());
  EXPECT_EQ(R.stats().TaskFailures.load(), 0u);
}

TEST(ThreadedResilienceTest, ForcedStarvationEscalatesToSerialFallback) {
  // Force-abort every attempt of task 2: it can never commit
  // speculatively, so the budget must route it through the serial
  // fallback — which ignores forced aborts (it is irrevocable).
  World W;
  WriteSetDetector D;
  ShardedConfig C;
  C.NumThreads = 2;
  C.Ordered = true;
  C.Resilience.SpeculativeRetryBudget = 2;
  C.Faults = mustParse("abort@2.*");
  ShardedRuntime R(W.Reg, D, C);
  const int N = 4;
  std::vector<TaskFn> Tasks;
  for (int I = 1; I <= N; ++I)
    Tasks.push_back([&W, I](TxContext &Tx) {
      Tx.write(Location(W.Flag), Value::of(I));
      Tx.add(Location(W.Work), I);
    });
  R.run(Tasks);
  // Ordered semantics survive the fallback (Theorem 4.1).
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Flag)), Value::of(N));
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)),
            Value::of(N * (N + 1) / 2));
  EXPECT_EQ(R.stats().Commits.load(), static_cast<uint64_t>(N));
  EXPECT_EQ(R.stats().SerialFallbacks.load(), 1u);
  EXPECT_EQ(R.stats().FaultsInjected.load(), 2u); // Two forced aborts.
  EXPECT_TRUE(R.failures().empty());
}

TEST(SimResilienceTest, ForcedStarvationEscalatesToSerialFallback) {
  World W;
  WriteSetDetector D;
  SimConfig C;
  C.NumCores = 4;
  C.Ordered = true;
  C.Resilience.SpeculativeRetryBudget = 2;
  C.Faults = mustParse("abort@1.*");
  SimRuntime R(W.Reg, D, C);
  SimOutcome O = R.run(incrementTasks(Location(W.Work), 6));
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(6));
  EXPECT_EQ(R.stats().Commits.load(), 6u);
  EXPECT_GE(R.stats().SerialFallbacks.load(), 1u);
  EXPECT_TRUE(O.Failures.empty());
}

// ---------------------------------------------------------------------------
// Deterministic fault injection.
// ---------------------------------------------------------------------------

TEST(SimResilienceTest, InjectedRunsAreBitReproducible) {
  // The simulator under a fault plan must be exactly as deterministic
  // as without one: identical schedules, statistics, failures, virtual
  // times and final states across runs.
  const std::string Spec = "abort@*.1;throw@2.1;delay@*.2=3";
  auto RunOnce = [&](uint64_t &Retries, uint64_t &Exceptions,
                     uint64_t &Serial, uint64_t &Injected, uint64_t &Commits,
                     double &Par, Value &Final) {
    World W;
    WriteSetDetector D;
    SimConfig C;
    C.NumCores = 4;
    C.Ordered = true;
    C.Faults = mustParse(Spec);
    SimRuntime R(W.Reg, D, C);
    SimOutcome O = R.run(incrementTasks(Location(W.Work), 12));
    Retries = R.stats().Retries.load();
    Exceptions = R.stats().TaskExceptions.load();
    Serial = R.stats().SerialFallbacks.load();
    Injected = R.stats().FaultsInjected.load();
    Commits = R.stats().Commits.load();
    Par = O.ParallelTime;
    Final = snapshotValue(R.sharedState(), Location(W.Work));
  };
  uint64_t R1, E1, S1, I1, C1, R2, E2, S2, I2, C2;
  double P1, P2;
  Value F1, F2;
  RunOnce(R1, E1, S1, I1, C1, P1, F1);
  RunOnce(R2, E2, S2, I2, C2, P2, F2);
  EXPECT_EQ(R1, R2);
  EXPECT_EQ(E1, E2);
  EXPECT_EQ(S1, S2);
  EXPECT_EQ(I1, I2);
  EXPECT_EQ(C1, C2);
  EXPECT_EQ(P1, P2);
  EXPECT_EQ(F1, F2);
  // The injected exception was consumed: task 2 recovered on retry.
  EXPECT_EQ(E1, 1u);
  EXPECT_EQ(C1, 12u);
  EXPECT_EQ(F1, Value::of(12));
}

TEST(ThreadedResilienceTest, InjectedFaultCountsAreSchedulingIndependent) {
  // Fault coordinates are (task, attempt) — stable across thread
  // interleavings. On a single worker the whole injected execution is
  // deterministic; two runs must agree on every resilience counter.
  const std::string Spec = "abort@*.1;abort@1.2;throw@2.1";
  auto RunOnce = [&](uint64_t &Retries, uint64_t &Exceptions,
                     uint64_t &Injected, uint64_t &Commits, Value &Final) {
    World W;
    WriteSetDetector D;
    ShardedConfig C;
    C.NumThreads = 1;
    C.Faults = mustParse(Spec);
    ShardedRuntime R(W.Reg, D, C);
    R.run(incrementTasks(Location(W.Work), 8));
    Retries = R.stats().Retries.load();
    Exceptions = R.stats().TaskExceptions.load();
    Injected = R.stats().FaultsInjected.load();
    Commits = R.stats().Commits.load();
    Final = snapshotValue(R.sharedState(), Location(W.Work));
  };
  uint64_t R1, E1, I1, C1, R2, E2, I2, C2;
  Value F1, F2;
  RunOnce(R1, E1, I1, C1, F1);
  RunOnce(R2, E2, I2, C2, F2);
  EXPECT_EQ(R1, R2);
  EXPECT_EQ(E1, E2);
  EXPECT_EQ(I1, I2);
  EXPECT_EQ(C1, C2);
  EXPECT_EQ(F1, F2);
  // 8 first-attempt aborts + task 1's second-attempt abort; task 2's
  // first attempt throws instead of aborting (throw preempts abort).
  EXPECT_EQ(C1, 8u);
  EXPECT_EQ(E1, 1u);
  EXPECT_EQ(F1, Value::of(8));
}

// ---------------------------------------------------------------------------
// Adaptive detector degradation.
// ---------------------------------------------------------------------------

TEST(DetectorDegradationTest, OpBudgetFallsBackToWriteSet) {
  World W;
  Location L(W.Work);
  auto Cache = std::make_shared<conflict::CommutativityCache>();
  conflict::SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  Cfg.OnlineOpBudget = 1; // Any pair with > 1 total ops degrades.
  conflict::SequenceDetector Det(Cache, Cfg);
  Snapshot Entry;
  Entry = Entry.set(L, Value::of(0));
  // Two adds commute under sequence reasoning (see the test below),
  // but the degraded write-set fallback conservatively reports a
  // conflict without ever reaching the online evaluator.
  TxLog Mine{{L, LocOp::add(1)}};
  auto Theirs = std::make_shared<const TxLog>(TxLog{{L, LocOp::add(2)}});
  EXPECT_TRUE(Det.detectConflicts(Entry, Mine, {Theirs}, W.Reg));
  EXPECT_GE(Det.stats().DegradedQueries.load(), 1u);
}

TEST(DetectorDegradationTest, UnlimitedBudgetNeverDegrades) {
  World W;
  Location L(W.Work);
  auto Cache = std::make_shared<conflict::CommutativityCache>();
  conflict::SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  conflict::SequenceDetector Det(Cache, Cfg);
  Snapshot Entry;
  Entry = Entry.set(L, Value::of(0));
  TxLog Mine{{L, LocOp::add(1)}};
  auto Theirs = std::make_shared<const TxLog>(TxLog{{L, LocOp::add(2)}});
  // Online evaluation proves the adds commute; no degradation.
  EXPECT_FALSE(Det.detectConflicts(Entry, Mine, {Theirs}, W.Reg));
  EXPECT_EQ(Det.stats().DegradedQueries.load(), 0u);
}

// ---------------------------------------------------------------------------
// Degraded runs still audit clean.
// ---------------------------------------------------------------------------

TEST(AuditResilienceTest, SerialFallbackRunAuditsClean) {
  // Every task is forced through two aborts and (budget 2) escalates to
  // the serial rung; the recorded trace must still replay serializably.
  World W;
  WriteSetDetector D;
  ShardedConfig C;
  C.NumThreads = 4;
  C.RecordTrace = true;
  C.Resilience.SpeculativeRetryBudget = 2;
  C.Faults = mustParse("abort@*.*");
  ShardedRuntime R(W.Reg, D, C);
  const int N = 20;
  std::vector<TaskFn> Tasks = incrementTasks(Location(W.Work), N);
  R.run(Tasks);
  EXPECT_EQ(R.stats().SerialFallbacks.load(), static_cast<uint64_t>(N));
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(N));
  analysis::AuditReport Report = analysis::audit(R.trace(), Tasks, W.Reg);
  EXPECT_TRUE(Report.clean()) << Report.summary();
  EXPECT_EQ(Report.Serializability.TxReplayed, static_cast<uint64_t>(N));
}

TEST(AuditResilienceTest, PlaceholderCommitAuditsClean) {
  // A permanently failing task leaves an empty placeholder commit; the
  // auditor must skip its body (replaying it would throw) and accept
  // the final state that excludes its effects.
  World W;
  WriteSetDetector D;
  SimConfig C;
  C.NumCores = 2;
  C.Ordered = true;
  C.RecordTrace = true;
  C.Resilience.ExceptionRetryBudget = 1;
  C.Faults = mustParse("throw@2.*");
  SimRuntime R(W.Reg, D, C);
  std::vector<TaskFn> Tasks = incrementTasks(Location(W.Work), 5);
  SimOutcome O = R.run(Tasks);
  ASSERT_EQ(O.Failures.size(), 1u);
  EXPECT_EQ(O.Failures[0].Tid, 2u);
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(4));
  analysis::AuditReport Report = analysis::audit(R.trace(), Tasks, W.Reg);
  EXPECT_TRUE(Report.clean()) << Report.summary();
}
