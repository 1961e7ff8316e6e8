//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for janus::serve — the long-running, overload-safe submission
/// service — and its foundations: the MPSC submission queue, the
/// cooperative cancellation tokens, the (client, submission) chaos
/// coordinates, and the engine-level deadline plumbing.
///
/// The load-bearing invariant throughout: every submission receives
/// exactly one terminal reply (committed / failed / deadline /
/// overloaded / cancelled), whatever the service is going through —
/// overload, chaos injection, deadline storms, or a drain hard stop.
///
//===----------------------------------------------------------------------===//

#include "janus/serve/Frontend.h"
#include "janus/serve/Serve.h"
#include "janus/serve/SubmissionQueue.h"
#include "janus/stm/Detector.h"
#include "janus/stm/ShardedRuntime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

using namespace janus;
using namespace janus::serve;
using namespace janus::core;
using resilience::CancelReason;
using resilience::CancelToken;
using resilience::CancellationTable;

namespace {

/// A Janus instance on the threaded engine with write-set detection (no
/// training needed) and one counter object; the task pool increments it.
struct ServiceWorld {
  Janus J;
  Location Counter;
  std::vector<stm::TaskFn> Pool;

  explicit ServiceWorld(unsigned Threads = 2) : J(makeConfig(Threads)) {
    Counter = Location(J.registry().registerObject("counter"));
    Location C = Counter;
    Pool.push_back([C](stm::TxContext &Tx) { Tx.add(C, 1); });
  }

  static JanusConfig makeConfig(unsigned Threads) {
    JanusConfig Cfg;
    Cfg.Engine = EngineKind::Threaded;
    Cfg.Detector = DetectorKind::WriteSet;
    Cfg.Threads = Threads;
    return Cfg;
  }

  int64_t counterValue() const {
    Value V = J.valueAt(Counter);
    return V.isInt() ? V.asInt() : 0; // Absent until first commit.
  }
};

/// Reply collector: thread-safe sink recording every terminal reply.
struct ReplyLog {
  std::mutex M;
  std::vector<Reply> All;

  std::function<void(const Reply &)> sink() {
    return [this](const Reply &R) {
      std::lock_guard<std::mutex> G(M);
      All.push_back(R);
    };
  }

  size_t count(ReplyStatus S) {
    std::lock_guard<std::mutex> G(M);
    size_t N = 0;
    for (const Reply &R : All)
      N += R.Status == S ? 1 : 0;
    return N;
  }

  /// True when every (client, subid) appears exactly once.
  bool exactlyOnce() {
    std::lock_guard<std::mutex> G(M);
    std::set<std::pair<uint64_t, uint64_t>> Seen;
    for (const Reply &R : All)
      if (!Seen.insert({R.Client, R.SubId}).second)
        return false;
    return true;
  }
};

} // namespace

// ---------------------------------------------------------------------------
// MPSC submission queue.
// ---------------------------------------------------------------------------

TEST(MpscQueueTest, FifoSingleProducer) {
  MpscQueue<int> Q;
  EXPECT_EQ(Q.sizeApprox(), 0u);
  for (int I = 0; I != 100; ++I)
    Q.push(int(I));
  EXPECT_EQ(Q.sizeApprox(), 100u);
  int V = -1;
  for (int I = 0; I != 100; ++I) {
    ASSERT_TRUE(Q.pop(V));
    EXPECT_EQ(V, I);
  }
  EXPECT_FALSE(Q.pop(V));
  EXPECT_EQ(Q.sizeApprox(), 0u);
}

TEST(MpscQueueTest, ConcurrentProducersLoseNothing) {
  MpscQueue<uint64_t> Q;
  const int Producers = 4, PerProducer = 5000;
  std::vector<std::thread> Ts;
  for (int P = 0; P != Producers; ++P)
    Ts.emplace_back([&Q, P] {
      for (int I = 0; I != PerProducer; ++I)
        Q.push(uint64_t(P) * PerProducer + I);
    });

  // Consume concurrently with production; per-producer order must hold.
  std::vector<uint64_t> NextExpected(Producers, 0);
  size_t Got = 0;
  while (Got != size_t(Producers) * PerProducer) {
    uint64_t V;
    if (!Q.pop(V)) {
      std::this_thread::yield();
      continue;
    }
    ++Got;
    uint64_t P = V / PerProducer, I = V % PerProducer;
    EXPECT_EQ(I, NextExpected[P]) << "producer " << P << " reordered";
    NextExpected[P] = I + 1;
  }
  for (std::thread &T : Ts)
    T.join();
  uint64_t V;
  EXPECT_FALSE(Q.pop(V));
}

// ---------------------------------------------------------------------------
// Cancellation tokens.
// ---------------------------------------------------------------------------

TEST(CancellationTest, DeadlineExpiryAndFirstCancelWins) {
  CancelToken T;
  EXPECT_EQ(T.status(), CancelReason::None);
  T.setDeadlineUs(CancelToken::nowUs() - 1); // Already past.
  EXPECT_EQ(T.status(), CancelReason::Deadline);

  CancelToken U;
  U.cancel(CancelReason::Deadline);
  U.cancel(CancelReason::Shutdown); // Late reason must not overwrite.
  EXPECT_EQ(U.status(), CancelReason::Deadline);
}

TEST(CancellationTest, GlobalShutdownDominatesPerTaskTokens) {
  CancellationTable Table(3);
  EXPECT_EQ(Table.status(2), CancelReason::None);
  Table.task(2)->setDeadlineUs(CancelToken::nowUs() - 1);
  EXPECT_EQ(Table.status(2), CancelReason::Deadline);
  EXPECT_EQ(Table.status(1), CancelReason::None);
  Table.global().cancel(CancelReason::Shutdown);
  EXPECT_EQ(Table.status(1), CancelReason::Shutdown);
  EXPECT_EQ(Table.status(2), CancelReason::Shutdown);
  // Out-of-range ids see only the global token.
  EXPECT_EQ(Table.status(99), CancelReason::Shutdown);
  EXPECT_EQ(Table.task(99), nullptr);
}

// ---------------------------------------------------------------------------
// Client-coordinate chaos clauses.
// ---------------------------------------------------------------------------

TEST(FaultPlanClientCoordsTest, ParsesRoundTripsAndStaysEngineInvisible) {
  std::string Err;
  std::optional<resilience::FaultPlan> P = resilience::FaultPlan::parse(
      "shed@*:7;throw@3:1;acquiredelay@*.1=200", &Err);
  ASSERT_TRUE(P.has_value()) << Err;

  // Admission-time queries.
  EXPECT_TRUE(P->shedSubmission(4, 7));
  EXPECT_TRUE(P->shedSubmission(1, 7));
  EXPECT_FALSE(P->shedSubmission(4, 8));
  using FK = resilience::FaultAction::Kind;
  EXPECT_NE(P->clientMatch(FK::ThrowTask, 3, 1), nullptr);
  EXPECT_EQ(P->clientMatch(FK::ThrowTask, 3, 2), nullptr);
  EXPECT_EQ(P->clientMatch(FK::ThrowTask, 2, 1), nullptr);

  // Engine isolation: a client-coordinate throw must never fire as a
  // task-coordinate throw, even at numerically identical coordinates.
  EXPECT_FALSE(P->throwTask(3, 1));
  EXPECT_EQ(P->acquireDelay(5, 1), 200u); // Task coords still work.

  // Round trip through the grammar.
  std::optional<resilience::FaultPlan> Q =
      resilience::FaultPlan::parse(P->toString(), &Err);
  ASSERT_TRUE(Q.has_value()) << P->toString() << ": " << Err;
  EXPECT_EQ(Q->toString(), P->toString());

  // Malformed coordinate mixes are rejected.
  EXPECT_FALSE(resilience::FaultPlan::parse("shed@1.2", &Err).has_value());
  EXPECT_FALSE(
      resilience::FaultPlan::parse("acquiredelay@1:2=5", &Err).has_value());
}

// ---------------------------------------------------------------------------
// Service behaviour.
// ---------------------------------------------------------------------------

TEST(ServiceTest, EverySubmissionCommitsAndGetsOneReply) {
  ServiceWorld World;
  ServeConfig SC;
  SC.BatchMax = 8;
  Service S(World.J, World.Pool, SC);
  ReplyLog Log;
  S.setReplySink(Log.sink());

  const int N = 40;
  for (int I = 0; I != N; ++I)
    EXPECT_TRUE(S.submit(/*Client=*/1 + (I % 3), /*SubId=*/I, 0));
  S.requestStop();
  S.serve();

  ServeReport R = S.report();
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.Received, uint64_t(N));
  EXPECT_EQ(R.Committed, uint64_t(N));
  EXPECT_EQ(R.Replies, uint64_t(N));
  EXPECT_TRUE(R.DrainedInTime);
  EXPECT_TRUE(Log.exactlyOnce());
  EXPECT_EQ(Log.count(ReplyStatus::Committed), size_t(N));
  EXPECT_EQ(World.counterValue(), N);
}

TEST(ServiceTest, ExpiredDeadlinesGetDeadlineReplies) {
  ServiceWorld World;
  Service S(World.J, World.Pool, ServeConfig{});
  ReplyLog Log;
  S.setReplySink(Log.sink());

  // 1µs deadlines, long expired by the time the scheduler dequeues.
  for (int I = 0; I != 10; ++I)
    S.submit(1, I, 0, /*DeadlineRelUs=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  S.requestStop();
  S.serve();

  ServeReport R = S.report();
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.DeadlineFailures, 10u);
  EXPECT_EQ(Log.count(ReplyStatus::Deadline), 10u);
  EXPECT_EQ(World.counterValue(), 0);
}

TEST(ServiceTest, QueueAndLaneCapsShedOverloaded) {
  ServiceWorld World;
  ServeConfig SC;
  SC.QueueCap = 8;
  SC.LaneCap = 64;
  Service S(World.J, World.Pool, SC);
  ReplyLog Log;
  S.setReplySink(Log.sink());

  // Flood before the scheduler runs: everything past the queue cap is
  // shed with a structured Overloaded reply, immediately.
  const int N = 50;
  int Admitted = 0;
  for (int I = 0; I != N; ++I)
    Admitted += S.submit(1, I, 0) ? 1 : 0;
  EXPECT_LE(Admitted, 9); // sizeApprox may lag by one mid-push.
  ServeReport Mid = S.report();
  EXPECT_EQ(Mid.Sheds, uint64_t(N - Admitted));
  EXPECT_EQ(Log.count(ReplyStatus::Overloaded), size_t(N - Admitted));

  S.requestStop();
  S.serve();
  ServeReport R = S.report();
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.Replies, uint64_t(N));
  EXPECT_TRUE(Log.exactlyOnce());

  // Per-client lane cap, independently of the global queue.
  ServiceWorld World2;
  ServeConfig SC2;
  SC2.QueueCap = 1024;
  SC2.LaneCap = 4;
  Service S2(World2.J, World2.Pool, SC2);
  ReplyLog Log2;
  S2.setReplySink(Log2.sink());
  for (int I = 0; I != 10; ++I)
    S2.submit(7, I, 0);
  EXPECT_EQ(S2.report().Sheds, 6u);
  S2.requestStop();
  S2.serve();
  EXPECT_TRUE(S2.report().clean());
}

TEST(ServiceTest, ChaosPlanShedsDeterministically) {
  ServiceWorld World;
  {
    std::string Err;
    std::optional<resilience::FaultPlan> Plan =
        resilience::FaultPlan::parse("shed@1:2", &Err);
    ASSERT_TRUE(Plan.has_value()) << Err;
    World.J.setFaults(std::move(*Plan));
  }
  Service S(World.J, World.Pool, ServeConfig{});
  ReplyLog Log;
  S.setReplySink(Log.sink());

  // Client 1's second submission is shed by the plan; client 2's is not.
  EXPECT_TRUE(S.submit(1, 100, 0));
  EXPECT_FALSE(S.submit(1, 101, 0));
  EXPECT_TRUE(S.submit(2, 200, 0));
  EXPECT_TRUE(S.submit(2, 201, 0));
  S.requestStop();
  S.serve();

  ServeReport R = S.report();
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.Sheds, 1u);
  EXPECT_EQ(R.Committed, 3u);
  EXPECT_EQ(Log.count(ReplyStatus::Overloaded), 1u);
}

TEST(ServiceTest, DrainHardDeadlineCancelsTheBacklog) {
  ServiceWorld World;
  // A slow task pool so the backlog outlives the (immediate) hard stop.
  Location C = World.Counter;
  World.Pool.clear();
  World.Pool.push_back([C](stm::TxContext &Tx) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Tx.add(C, 1);
  });
  ServeConfig SC;
  SC.BatchMax = 2;
  SC.DrainHardUs = 1000; // 1ms: expires while the backlog is deep.
  SC.WatchdogPeriodUs = 500;
  Service S(World.J, World.Pool, SC);
  ReplyLog Log;
  S.setReplySink(Log.sink());

  const int N = 60;
  for (int I = 0; I != N; ++I)
    S.submit(1 + (I % 2), I, 0);
  S.requestStop();
  S.serve();

  ServeReport R = S.report();
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.Replies, uint64_t(N));
  EXPECT_FALSE(R.DrainedInTime);
  EXPECT_GT(R.DrainedInflight, 0u);
  EXPECT_EQ(Log.count(ReplyStatus::Cancelled), size_t(R.DrainedInflight));
  EXPECT_TRUE(Log.exactlyOnce());
}

TEST(ServiceTest, WatchdogEscalatesOnStalledProgress) {
  ServiceWorld World;
  // One long-running task: no commit ticks while it runs, so the
  // watchdog must walk the escalation ladder.
  Location C = World.Counter;
  World.Pool.clear();
  World.Pool.push_back([C](stm::TxContext &Tx) {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    Tx.add(C, 1);
  });
  ServeConfig SC;
  SC.WatchdogPeriodUs = 2000;
  SC.StallEscalateUs = 10000;
  Service S(World.J, World.Pool, SC);
  ReplyLog Log;
  S.setReplySink(Log.sink());

  S.submit(1, 0, 0);
  S.requestStop();
  S.serve();

  ServeReport R = S.report();
  EXPECT_TRUE(R.clean());
  EXPECT_GE(R.WatchdogEscalations, 1u);
  EXPECT_EQ(R.Committed, 1u);
  // Progress after the batch decays the level back down (never stuck
  // at forced-serial with a healthy engine).
  EXPECT_LE(S.pressure().EscalationLevel.load(), 2u);
}

// The headline invariant under fire: concurrent producers, chaos plan
// injecting aborts, throws, delays and sheds, deadlines on some
// submissions — exactly one terminal reply each, and the service stays
// up through all of it.
TEST(ServiceTest, ExactlyOneReplyPerSubmissionUnderChaos) {
  ServiceWorld World(/*Threads=*/4);
  {
    std::string Err;
    std::optional<resilience::FaultPlan> Plan = resilience::FaultPlan::parse(
        "abort@*.1;delay@*.2=2;shed@*:5;throw@2:3", &Err);
    ASSERT_TRUE(Plan.has_value()) << Err;
    World.J.setFaults(std::move(*Plan));
  }
  ServeConfig SC;
  SC.BatchMax = 16;
  SC.DrainHardUs = 10000000; // Generous: the drain must finish clean.
  Service S(World.J, World.Pool, SC);
  ReplyLog Log;
  S.setReplySink(Log.sink());

  const int Producers = 3, PerProducer = 120;
  std::vector<std::thread> Ts;
  for (int P = 0; P != Producers; ++P)
    Ts.emplace_back([&S, P] {
      for (int I = 0; I != PerProducer; ++I) {
        // Every 7th submission carries a tight-but-feasible deadline.
        S.submit(uint64_t(P + 1), uint64_t(I),
                 /*TaskIndex=*/uint32_t(I),
                 /*DeadlineRelUs=*/(I % 7 == 0) ? 50000 : 0);
        if (I % 16 == 0)
          std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });

  std::thread Runner([&S] { S.serve(); });
  for (std::thread &T : Ts)
    T.join();
  S.requestStop();
  Runner.join();

  ServeReport R = S.report();
  EXPECT_TRUE(R.clean()) << "received=" << R.Received
                         << " replies=" << R.Replies;
  EXPECT_EQ(R.Received, uint64_t(Producers * PerProducer));
  EXPECT_GT(R.Sheds, 0u);     // shed@*:5 fired per client.
  EXPECT_GT(R.Committed, 0u);
  EXPECT_TRUE(Log.exactlyOnce());
  // Terminal statuses partition the replies.
  EXPECT_EQ(Log.count(ReplyStatus::Committed) +
                Log.count(ReplyStatus::Failed) +
                Log.count(ReplyStatus::Deadline) +
                Log.count(ReplyStatus::Overloaded) +
                Log.count(ReplyStatus::Cancelled),
            size_t(R.Replies));
}

// ---------------------------------------------------------------------------
// Engine-level deadline plumbing (below the service).
// ---------------------------------------------------------------------------

TEST(ThreadedCancellationTest, ExpiredDeadlineFailsTaskKeepingClockDense) {
  ObjectRegistry Reg;
  ObjectId Counter = Reg.registerObject("counter");
  stm::WriteSetDetector D;
  stm::ShardedConfig Cfg;
  Cfg.NumThreads = 2;
  CancellationTable Table(4);
  Table.task(2)->setDeadlineUs(CancelToken::nowUs() - 1); // Pre-expired.
  Cfg.Cancel = &Table;
  stm::ShardedRuntime R(Reg, D, Cfg);

  std::vector<stm::TaskFn> Tasks(4, [Counter](stm::TxContext &Tx) {
    Tx.add(Location(Counter), 1);
  });
  R.run(Tasks);

  // Task 2 fails with a Deadline kind; the other three commit real
  // effects; the placeholder keeps the clock dense (4 commit ticks).
  ASSERT_EQ(R.failures().size(), 1u);
  EXPECT_EQ(R.failures()[0].Tid, 2u);
  EXPECT_EQ(R.failures()[0].FailKind,
            resilience::TaskFailure::Kind::Deadline);
  EXPECT_EQ(R.stats().CancelledTasks.load(), 1u);
  EXPECT_EQ(R.stats().Commits.load(), 4u);
  EXPECT_EQ(R.commitOrder().size(), 4u);
  EXPECT_EQ(stm::snapshotValue(R.sharedState(), Location(Counter)).asInt(),
            3);
}
