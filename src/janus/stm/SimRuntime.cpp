#include "janus/stm/SimRuntime.h"

#include <map>
#include <optional>
#include <queue>

using namespace janus;
using namespace janus::stm;

SimRuntime::SimRuntime(const ObjectRegistry &Reg, ConflictDetector &Detector,
                       SimConfig Config)
    : Reg(Reg), Detector(Detector), Config(Config) {
  JANUS_ASSERT(Config.NumCores >= 1, "need at least one core");
}

SimRuntime::Attempt SimRuntime::execute(const std::vector<TaskFn> &Tasks,
                                        Lifecycle &LC, Lifecycle::Attempt Id) {
  Attempt A;
  A.Id = Id;
  A.Entry = Shared;
  TxContext Tx(Shared, Id.Tid, Reg, &Stats);
  A.Threw = !LC.runBody(Tasks[Id.Tid - 1], Tx, Id, A.ThrowMsg);
  Tx.endAttempt();
  // A thrown attempt's partial log is discarded — exception safety
  // means no effect of the doomed body can ever reach the shared state.
  // Otherwise the log is frozen: moved out and indexed by location once.
  A.Log = A.Threw ? emptyTxLog()
                  : std::make_shared<const TxLog>(Tx.takeLog());
  A.ExecCost = Config.Costs.BeginCost + Tx.virtualCost() +
               Config.Costs.PerLogOp * static_cast<double>(A.Log->size());
  return A;
}

double SimRuntime::sequentialBaseline(const std::vector<TaskFn> &Tasks) {
  Snapshot State = Shared;
  double Time = 0.0;
  for (size_t I = 0, E = Tasks.size(); I != E; ++I) {
    TxContext Tx(State, static_cast<uint32_t>(I + 1), Reg);
    bool Threw = false;
    try {
      Tasks[I](Tx);
    } catch (...) {
      // The baseline only provides the speedup denominator; a task
      // that throws contributes the work it did before failing and
      // no state change (matching the parallel engine, where a
      // failed task's effects never reach the shared state).
      Threw = true;
    }
    Tx.endAttempt();
    Time += Tx.virtualCost() +
            Config.Costs.SeqPerOp * static_cast<double>(Tx.log().size());
    if (Threw)
      continue;
    for (const LogEntry &E2 : Tx.log())
      State = applyToSnapshot(State, E2.Loc, E2.Op);
  }
  return Time;
}

SimOutcome SimRuntime::run(const std::vector<TaskFn> &Tasks) {
  if (Config.Replay)
    return runReplay(Tasks);
  Stats.Tasks += Tasks.size();
  SimOutcome Outcome;
  Outcome.SequentialTime = sequentialBaseline(Tasks);

  // ---- Parallel simulation. ------------------------------------------
  History.clear();
  CommitOrder.clear();
  CommitSeq = 0;
  Lifecycle LC(Config, Stats, Tasks.size(), /*Writers=*/1);
  if (Config.RecordTrace) {
    Trace.Recorded = true;
    Trace.Initial = Shared;
    Trace.Events.clear();
  }
  double LockFreeAt = 0.0;
  uint32_t NextOrderedTid = 1;

  struct CoreTask {
    size_t TaskIdx = 0;
    /// The in-flight attempt. Its mode says how the task will commit:
    /// lifecycle escalations turn it Serial (irrevocable, no
    /// detection) or Placeholder (failed task, empty log).
    Attempt Att;
    bool Busy = false;
  };
  std::vector<CoreTask> Cores(Config.NumCores);

  // Completion events: (time, tiebreak, core). Processed in time order;
  // the tiebreak keeps the schedule deterministic.
  using Event = std::tuple<double, uint64_t, unsigned>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> Events;
  uint64_t EventSeq = 0;

  // Parked ordered-mode transactions: Tid -> (core, ready time).
  std::map<uint32_t, std::pair<unsigned, double>> Parked;

  size_t NextTask = 0;
  double MakeSpan = 0.0;

  // Starts attempt No of the core's task at virtual time Time, with its
  // body span (virtual timestamps keep a simulated trace bit-identical
  // across runs) and completion event — or, when the task's token
  // fired, fails it and schedules its placeholder commit instead.
  auto StartAttempt = [&](unsigned Core, uint32_t No, double Time) {
    CoreTask &CT = Cores[Core];
    const uint32_t Tid = static_cast<uint32_t>(CT.TaskIdx + 1);
    const resilience::CancelReason CR = LC.cancelled(Tid);
    if (CR != resilience::CancelReason::None) {
      CT.Att = Attempt{};
      CT.Att.Id = LC.cancel(Core, Tid, No - 1, CR, CommitSeq);
      CT.Att.Id.StartTs = Time;
      CT.Att.Log = emptyTxLog();
      Events.emplace(Time, EventSeq++, Core);
      return;
    }
    CT.Att = execute(Tasks, LC, LC.begin(Core, Tid, No, CommitSeq));
    CT.Att.Id.StartTs = Time;
    if (obs::Observer *O = obs::janusObs(CT.Att.Id.Obs))
      O->span(Core, "body", Tid, No, Time, CT.Att.ExecCost);
    Events.emplace(Time + CT.Att.ExecCost, EventSeq++, Core);
  };

  auto StartTask = [&](unsigned Core, double Time) {
    if (NextTask >= Tasks.size())
      return;
    Cores[Core].TaskIdx = NextTask++;
    Cores[Core].Busy = true;
    StartAttempt(Core, 1, Time);
  };

  // An attempt that did not commit, at virtual time At: the lifecycle
  // decides. A retry re-executes on the same core after its backoff,
  // charged as virtual time; \returns false when the task escalated
  // instead (serial or placeholder commit).
  auto Retried = [&](unsigned Core, obs::AbortReason Why, double At) {
    Attempt &Att = Cores[Core].Att;
    Lifecycle::Next N =
        LC.abort(Att.Id, Why, AttemptState{&Att.Log, nullptr, 0, &Att.Entry},
                 At, CommitSeq, Att.ThrowMsg);
    if (N.Act == Lifecycle::Next::Step::Retry) {
      const double Backoff = static_cast<double>(N.BackoffMicros);
      LC.backoff(Att.Id, At, Backoff, N.BackoffMicros);
      StartAttempt(Core, Att.Id.No + 1, At + Backoff);
      return true;
    }
    Att.Id = N.Then;
    if (N.Act == Lifecycle::Next::Step::Placeholder)
      Att.Log = emptyTxLog();
    return false;
  };

  for (unsigned C = 0; C != Config.NumCores; ++C)
    StartTask(C, 0.0);

  while (!Events.empty()) {
    auto [Time, Seq, Core] = Events.top();
    Events.pop();
    (void)Seq;
    CoreTask &CT = Cores[Core];
    JANUS_ASSERT(CT.Busy, "event for idle core");
    Attempt &Att = CT.Att;
    const uint32_t Tid = Att.Id.Tid;

    // A speculative attempt ends without committing when its body
    // threw, the plan force-aborts it, or its token fired — all before
    // any turn-taking (a retrying task must not occupy its commit
    // turn) and before detection, exactly as on the threaded engine.
    if (Att.Id.Mode == CommitMode::Speculative) {
      std::optional<obs::AbortReason> Why;
      if (Att.Threw)
        Why = obs::AbortReason::Exception;
      else if (LC.forceAbort(Att.Id))
        Why = obs::AbortReason::Injected;
      else if (LC.cancelled(Tid) != resilience::CancelReason::None)
        Why = obs::AbortReason::Cancelled;
      if (Why && Retried(Core, *Why, Time))
        continue;
    }

    // Ordered mode: wait for this transaction's turn.
    if (Config.Ordered && Tid != NextOrderedTid) {
      JANUS_ASSERT(Tid > NextOrderedTid, "predecessor turn already passed");
      Parked.emplace(Tid, std::make_pair(Core, Time));
      continue;
    }

    double CommitAt = std::max(Time, LockFreeAt);

    if (Att.Id.Mode == CommitMode::Speculative) {
      // Detection cost: proportional to the operations examined,
      // identical for both detectors (§7.1).
      size_t Examined = Att.Log->size();
      std::vector<TxLogRef> Window;
      for (size_t I = Att.Id.BeginClock; I != History.size(); ++I) {
        Window.push_back(History[I].Log);
        Examined += History[I].Log->size();
      }
      double DetectCost =
          Config.Costs.DetectPerOp * static_cast<double>(Examined);
      CommitAt = std::max(Time + DetectCost, LockFreeAt);

      ++Stats.ConflictChecks;
      bool Conflict = Detector.detectConflicts(Att.Entry, *Att.Log, Window, Reg);
      if (obs::Observer *O = obs::janusObs(Att.Id.Obs)) {
        O->detectLatency().record(DetectCost);
        O->span(Core, "detect", Tid, Att.Id.No, Time, DetectCost, "window",
                static_cast<double>(Window.size()));
      }
      // The conflict's detect-end clock is the current commit count —
      // the upper bound of the window this attempt conflicted with.
      if (Conflict && Retried(Core, obs::AbortReason::Conflict, CommitAt))
        continue;
    }

    if (Att.Id.Mode == CommitMode::Serial) {
      // Irrevocable serial fallback: re-execute against the *current*
      // state and commit without detection. The event loop is
      // sequential, so nothing can commit between this execution and
      // its commit — inherently pessimistic, cannot abort; and in
      // ordered mode this point is only reached on the task's turn.
      Att = execute(Tasks, LC, Att.Id);
      Att.Id.StartTs = Time;
      CommitAt = std::max(Time + Att.ExecCost, LockFreeAt);
      if (Att.Threw) // Fails the task; the log is already empty.
        LC.serialThrew(Att.Id, Att.ThrowMsg, CommitSeq);
    }

    // Fault injection: delay an execution's commit by virtual units,
    // widening the window in which later attempts must detect against
    // this one.
    if (Att.Id.Mode != CommitMode::Placeholder)
      if (uint64_t Delay = LC.commitDelay(Att.Id))
        CommitAt += static_cast<double>(Delay);

    // Commit: replay the log on global memory while holding the write
    // lock; commits serialize on LockFreeAt.
    ++CommitSeq;
    CommitOrder.push_back(Tid);
    for (const LogEntry &E : *Att.Log)
      Shared = applyToSnapshot(Shared, E.Loc, E.Op);
    History.push_back(Committed{CommitSeq, Att.Log});
    double CommitEnd =
        CommitAt +
        Config.Costs.CommitPerOp * static_cast<double>(Att.Log->size());
    // Commit latency = begin-to-publication of the winning attempt, in
    // virtual units on this engine.
    LC.commit(Att.Id, CommitSeq,
              AttemptState{&Att.Log, nullptr, 0, &Att.Entry}, CommitAt,
              CommitEnd);
    LockFreeAt = CommitEnd;
    MakeSpan = std::max(MakeSpan, CommitEnd);
    Cores[Core].Busy = false;

    if (Config.Ordered) {
      ++NextOrderedTid;
      auto It = Parked.find(NextOrderedTid);
      if (It != Parked.end()) {
        // The successor finished executing earlier; it may attempt its
        // commit as soon as this commit completes.
        Events.emplace(std::max(It->second.second, CommitEnd), EventSeq++,
                       It->second.first);
        Parked.erase(It);
      }
    }

    StartTask(Core, CommitEnd);
  }

  JANUS_ASSERT(Parked.empty(), "ordered run left parked transactions");
  JANUS_ASSERT(NextTask == Tasks.size(), "tasks left unscheduled");
  Outcome.Failures = LC.finish(Trace);
  if (Config.RecordTrace)
    Trace.Final = Shared;
  Outcome.ParallelTime = MakeSpan;
  return Outcome;
}

SimOutcome SimRuntime::runReplay(const std::vector<TaskFn> &Tasks) {
  const ReplaySchedule &Sched = *Config.Replay;
  Stats.Tasks += Tasks.size();
  SimOutcome Outcome;
  Outcome.SequentialTime = sequentialBaseline(Tasks);

  auto Problem = [this](std::string Msg) {
    if (Config.ReplayProblems)
      Config.ReplayProblems->push_back(std::move(Msg));
  };

  History.clear();
  CommitOrder.clear();
  CommitSeq = 0;
  Lifecycle LC(Config, Stats, Tasks.size(), /*Writers=*/1);
  if (Config.RecordTrace) {
    Trace.Recorded = true;
    Trace.Initial = Shared;
    Trace.Events.clear();
    Trace.Shards = Sched.Shards;
  }

  // Persistent snapshots at every commit clock: StateAt[k] is the
  // global state after commit k (StateAt[0] = initial). LogAt[k] is
  // commit k's replayed log. Both are what entry reconstruction below
  // reads; Snapshot copies are O(1), so keeping them all is cheap.
  std::vector<Snapshot> StateAt{Shared};
  std::vector<TxLogRef> LogAt{nullptr};

  double VirtualNow = 0.0;

  // Reconstructs the entry snapshot a recorded attempt observed. For
  // unsharded attempts that is simply the state at its begin clock.
  // A sharded attempt saw each acquired shard at that shard's own
  // acquisition stamp: start from the state at the earliest stamp and
  // re-apply, from each later commit k, exactly the operations whose
  // location routes to a shard acquired at stamp >= k — per-location
  // detection decomposition (§5.3) run in reverse.
  auto EntryFor = [&](const ReplayStep &S, bool *Ok) -> Snapshot {
    *Ok = true;
    if (S.ShardStamps.empty()) {
      if (S.Begin >= StateAt.size()) {
        Problem("task " + std::to_string(S.Tid) + " attempt " +
                std::to_string(S.Attempt) + ": begin clock " +
                std::to_string(S.Begin) + " exceeds replayed commits");
        *Ok = false;
        return StateAt.back();
      }
      return StateAt[S.Begin];
    }
    uint64_t MinStamp = ~uint64_t{0}, MaxStamp = 0;
    for (const auto &[Shard, Stamp] : S.ShardStamps) {
      MinStamp = std::min(MinStamp, Stamp);
      MaxStamp = std::max(MaxStamp, Stamp);
    }
    if (MaxStamp >= StateAt.size()) {
      Problem("task " + std::to_string(S.Tid) + " attempt " +
              std::to_string(S.Attempt) + ": shard stamp " +
              std::to_string(MaxStamp) + " exceeds replayed commits");
      *Ok = false;
      return StateAt.back();
    }
    auto StampOf = [&](uint32_t Shard) -> uint64_t {
      for (const auto &[Sh, Stamp] : S.ShardStamps)
        if (Sh == Shard)
          return Stamp;
      return MinStamp; // Unacquired shard: never read; base state is fine.
    };
    Snapshot E = StateAt[MinStamp];
    for (uint64_t K = MinStamp + 1; K <= MaxStamp; ++K)
      for (const LogEntry &LE : *LogAt[K])
        if (StampOf(shardIndexOf(LE.Loc, Sched.Shards)) >= K)
          E = applyToSnapshot(E, LE.Loc, LE.Op);
    return E;
  };

  // Executes one forced attempt against \p Entry — no fault injection
  // (the recording already decided every outcome), no detection.
  auto ExecuteAt = [&](const ReplayStep &S, const Snapshot &Entry,
                       bool *Threw, std::string *Msg) -> TxLogRef {
    TxContext Tx(Entry, S.Tid, Reg, &Stats);
    *Threw = false;
    try {
      Tasks[S.Tid - 1](Tx);
    } catch (const std::exception &E) {
      *Threw = true;
      *Msg = E.what();
    } catch (...) {
      *Threw = true;
      *Msg = "unknown exception";
    }
    Tx.endAttempt();
    VirtualNow += Config.Costs.BeginCost + Tx.virtualCost() +
                  Config.Costs.PerLogOp * static_cast<double>(Tx.log().size());
    return *Threw ? emptyTxLog()
                  : std::make_shared<const TxLog>(Tx.takeLog());
  };

  for (const ReplayStep &S : Sched.Steps) {
    if (S.Tid == 0 || S.Tid > Tasks.size()) {
      Problem("schedule names task " + std::to_string(S.Tid) +
              " but the workload has " + std::to_string(Tasks.size()));
      continue;
    }
    const double StepTs = VirtualNow;

    if (!S.Committed) {
      // Injected, exception and cancellation aborts are not
      // re-executed: their outcomes were forced from outside the
      // protocol and carry no schedule information. Conflict aborts
      // *are* re-executed at their reconstructed entry — the
      // divergence check needs their logs to confirm the recorded
      // conflict had a real footprint overlap.
      if (S.AbortReason != obs::AbortReason::Conflict)
        continue;
      bool Ok = false, Threw = false;
      std::string Msg;
      Snapshot Entry = EntryFor(S, &Ok);
      TxLogRef Log = ExecuteAt(S, Entry, &Threw, &Msg);
      if (Threw)
        Problem("task " + std::to_string(S.Tid) + " attempt " +
                std::to_string(S.Attempt) +
                " threw while replaying a conflict-aborted attempt: " + Msg);
      Lifecycle::Attempt A = LC.begin(0, S.Tid, S.Attempt, S.Begin);
      if (obs::Observer *O = obs::janusObs(A.Obs))
        O->span(0, "body", S.Tid, S.Attempt, StepTs, VirtualNow - StepTs);
      LC.recordAbort(A, S.AbortReason,
                     AttemptState{&Log, nullptr, 0, &Entry, &S.ShardStamps},
                     VirtualNow, S.End);
      continue;
    }

    // Committed step: the dense clock advances by exactly one.
    const auto Mode = static_cast<CommitMode>(S.Mode);
    if (S.CommitTime != CommitSeq + 1)
      Problem("task " + std::to_string(S.Tid) + ": recorded commit clock " +
              std::to_string(S.CommitTime) + " arrived at replay clock " +
              std::to_string(CommitSeq + 1));
    Lifecycle::Attempt A = LC.begin(0, S.Tid, S.Attempt, S.Begin, Mode);
    A.StartTs = StepTs;
    TxLogRef Log = emptyTxLog();
    Snapshot Entry;
    if (Mode == CommitMode::Placeholder) {
      // The recorded task failed permanently; nothing executes.
      LC.fail(A, "recorded placeholder (task failed when recorded)");
    } else {
      bool Ok = false, Threw = false;
      std::string Msg;
      if (Mode == CommitMode::Serial) {
        // Serial fallback executed under the full commit lock: its
        // entry is exactly the predecessor's published state.
        Entry = StateAt[S.CommitTime - 1 < StateAt.size() ? S.CommitTime - 1
                                                          : StateAt.size() - 1];
        ++Stats.SerialFallbacks;
      } else {
        Entry = EntryFor(S, &Ok);
      }
      Log = ExecuteAt(S, Entry, &Threw, &Msg);
      if (Threw) {
        // Commit an empty log to keep the clock dense; the divergence
        // check surfaces the problem.
        Problem("task " + std::to_string(S.Tid) + " attempt " +
                std::to_string(S.Attempt) +
                " threw while replaying a committed attempt: " + Msg);
        ++Stats.TaskExceptions;
      }
    }

    ++CommitSeq;
    CommitOrder.push_back(S.Tid);
    Snapshot Next = StateAt.back();
    for (const LogEntry &LE : *Log)
      Next = applyToSnapshot(Next, LE.Loc, LE.Op);
    StateAt.push_back(Next);
    LogAt.push_back(Log);
    Shared = std::move(Next);
    History.push_back(Committed{CommitSeq, Log});
    LC.commit(A, CommitSeq,
              AttemptState{&Log, nullptr, 0, &Entry, &S.ShardStamps}, StepTs,
              VirtualNow);
    VirtualNow +=
        Config.Costs.CommitPerOp * static_cast<double>(Log->size());
  }

  if (CommitSeq != Sched.MaxTid)
    Problem("replay committed " + std::to_string(CommitSeq) +
            " transactions; the recording holds " +
            std::to_string(Sched.MaxTid));
  Outcome.Failures = LC.finish(Trace);
  if (Config.RecordTrace)
    Trace.Final = Shared;
  Outcome.ParallelTime = VirtualNow;
  return Outcome;
}
