#include "janus/stm/Lifecycle.h"

#include <algorithm>
#include <bit>

using namespace janus;
using namespace janus::stm;
using resilience::ContentionManager;
using resilience::TaskFailure;

Lifecycle::Lifecycle(const resilience::ResilienceConfig &Resilience,
                     const resilience::FaultPlan &Faults,
                     const resilience::CancellationTable *Cancel,
                     obs::Observer *Obs, obs::Recorder *Rec, bool RecordTrace,
                     RunStats &Stats, size_t NumTasks, unsigned Writers)
    : Faults(Faults), Cancel(Cancel), Obs(obs::janusObs(Obs)),
      Rec(obs::janusRec(Rec)), RecordTrace(RecordTrace), Stats(Stats),
      Board(Resilience.Board), CM(Resilience, NumTasks),
      Buffers(std::max(1u, Writers)) {}

bool Lifecycle::runBody(const TaskFn &Task, TxContext &Tx, const Attempt &A,
                        std::string &Msg) {
  try {
    if (Faults.throwTask(A.Tid, A.No)) {
      ++Stats.FaultsInjected;
      throw resilience::InjectedFault("injected task exception");
    }
    Task(Tx);
    return true;
  } catch (const std::exception &E) {
    Msg = E.what();
  } catch (...) {
    Msg = "unknown exception";
  }
  return false;
}

bool Lifecycle::forceAbort(const Attempt &A) {
  if (!Faults.forceAbort(A.Tid, A.No))
    return false;
  ++Stats.FaultsInjected;
  return true;
}

uint64_t Lifecycle::commitDelay(const Attempt &A) {
  const uint64_t D = Faults.commitDelay(A.Tid, A.No);
  if (D)
    ++Stats.FaultsInjected;
  return D;
}

uint64_t Lifecycle::acquireDelay(const Attempt &A) {
  const uint64_t D = Faults.acquireDelay(A.Tid, A.No);
  if (D)
    ++Stats.FaultsInjected;
  return D;
}

Lifecycle::Attempt Lifecycle::begin(unsigned Lane, uint32_t Tid, uint32_t No,
                                    uint64_t Clock, CommitMode Mode) {
  Attempt A;
  A.Tid = Tid;
  A.No = No;
  A.Lane = Lane;
  A.Mode = Mode;
  A.BeginClock = Clock;
  A.Obs = Obs && Obs->sampled(Tid) ? Obs : nullptr;
  A.Rec = Rec && Rec->sampled(Tid) ? Rec : nullptr;
  if (A.Rec && Mode == CommitMode::Speculative)
    A.Rec->record(writer(Lane), obs::RecKind::Begin, Tid, No, Clock);
  return A;
}

void Lifecycle::emitEnd(const Attempt &A, const AttemptState &S,
                        obs::RecKind Kind, uint64_t Clock, uint32_t Aux,
                        uint64_t CommitTime) {
  if (!RecordTrace && !A.Rec)
    return;
  const unsigned W = writer(A.Lane);
  // Shard acquisitions are part of a speculative attempt's schedule;
  // serial and placeholder executions run under every shard lock.
  obs::Recorder *const R =
      A.Mode == CommitMode::Speculative ? A.Rec : nullptr;
  TraceEvent *E = nullptr;
  if (RecordTrace) {
    E = &Buffers[W].Events.emplace_back();
    E->Tid = A.Tid;
    E->CommitTime = CommitTime;
    E->Committed = Kind == obs::RecKind::Commit;
    E->Mode = A.Mode;
    ++Stats.TraceEvents;
  }
  // A placeholder observed nothing and logged nothing: its record
  // sits just before its commit with an empty entry.
  const bool Placeholder = A.Mode == CommitMode::Placeholder;
  uint64_t Begin =
      A.Mode == CommitMode::Speculative ? A.BeginClock : CommitTime - 1;
  const uint64_t Mask = Placeholder ? 0 : S.Mask;
  if (Mask && (R || E)) {
    // Per-shard begin stamps come from the still-live views; the
    // attempt began at the earliest of them.
    Begin = ~uint64_t{0};
    const bool Single = (Mask & (Mask - 1)) == 0;
    Snapshot Merged;
    for (uint64_t M = Mask; M;) {
      const uint32_t Sh = static_cast<uint32_t>(std::countr_zero(M));
      M &= M - 1;
      const ShardBackend::View &V = S.Views[Sh];
      if (R)
        R->record(W, obs::RecKind::ShardAcquire, A.Tid, A.No, V.Stamp, Sh);
      if (!E)
        continue;
      E->ShardBegins.emplace_back(Sh, V.Stamp);
      Begin = std::min(Begin, V.Stamp);
      if (Single)
        Merged = V.Entry;
      else
        V.Entry.forEach([&Merged](const Location &L, const Value &Val) {
          Merged = Merged.set(L, Val);
        });
    }
    if (E)
      E->Entry = std::move(Merged);
  } else if (E && !Placeholder) {
    if (S.Entry)
      E->Entry = *S.Entry;
    if (S.Stamps)
      E->ShardBegins = *S.Stamps;
  }
  if (E) {
    E->BeginTime = Begin;
    E->Log = Placeholder || !S.Log ? emptyTxLog() : *S.Log;
  }
  if (A.Rec)
    A.Rec->record(W, Kind, A.Tid, A.No, Clock, Aux,
                  Kind == obs::RecKind::Commit ? static_cast<uint8_t>(A.Mode)
                                               : 0);
}

void Lifecycle::recordAbort(const Attempt &A, obs::AbortReason Why,
                            const AttemptState &S, double Ts, uint64_t Clock) {
  if (Why == obs::AbortReason::Exception)
    ++Stats.TaskExceptions;
  else if (Why != obs::AbortReason::Cancelled)
    ++Stats.Retries;
  // A conflict is stamped with the detect-end clock, the upper bound
  // of the window it conflicted with; other aborts with their begin.
  emitEnd(A, S, obs::RecKind::Abort,
          Why == obs::AbortReason::Conflict ? Clock : A.BeginClock,
          static_cast<uint32_t>(Why), /*CommitTime=*/0);
  if (obs::Observer *O = obs::janusObs(A.Obs))
    O->instant(A.Lane, "abort", A.Tid, A.No, Ts, obs::toString(Why));
}

void Lifecycle::escalate(const Attempt &A, ContentionManager::Action Act,
                         uint64_t Clock) {
  if (A.Rec)
    A.Rec->record(writer(A.Lane), obs::RecKind::Escalation, A.Tid, A.No,
                  Clock, static_cast<uint32_t>(Act));
}

Lifecycle::Next Lifecycle::abort(const Attempt &A, obs::AbortReason Why,
                                 const AttemptState &S, double Ts,
                                 uint64_t Clock, const std::string &Msg) {
  recordAbort(A, Why, S, Ts, Clock);
  using Action = ContentionManager::Action;
  Next N;
  if (Why == obs::AbortReason::Cancelled) {
    resilience::CancelReason CR = cancelled(A.Tid);
    if (CR == resilience::CancelReason::None)
      CR = resilience::CancelReason::Shutdown; // Tokens never un-fire.
    N.Act = Next::Step::Placeholder;
    N.Then = cancel(A.Lane, A.Tid, A.No, CR, Clock);
    N.Then.StartTs = Ts;
    return N;
  }
  N.Then = A;
  N.Then.StartTs = Ts;
  const ContentionManager::Decision D = Why == obs::AbortReason::Exception
                                            ? CM.onException(A.Tid, A.Lane)
                                            : CM.onAbort(A.Tid, A.Lane);
  switch (D.Act) {
  case Action::Retry:
    N.BackoffMicros = D.BackoffMicros;
    return N;
  case Action::Serial:
    ++Stats.SerialFallbacks;
    escalate(A, Action::Serial, Clock);
    N.Act = Next::Step::Serial;
    N.Then.Mode = CommitMode::Serial;
    ++N.Then.No;
    return N;
  case Action::Fail:
    escalate(A, Action::Fail, Clock);
    fail(A, Msg);
    N.Act = Next::Step::Placeholder;
    N.Then.Mode = CommitMode::Placeholder;
    return N;
  }
  return N;
}

Lifecycle::Attempt Lifecycle::cancel(unsigned Lane, uint32_t Tid,
                                     uint32_t AttemptsMade,
                                     resilience::CancelReason Why,
                                     uint64_t Clock) {
  Attempt A = begin(Lane, Tid, AttemptsMade, Clock, CommitMode::Placeholder);
  if (A.Rec)
    A.Rec->record(writer(Lane), obs::RecKind::Cancel, Tid, AttemptsMade, Clock,
                  static_cast<uint32_t>(Why));
  fail(A, resilience::toString(Why),
       Why == resilience::CancelReason::Shutdown ? TaskFailure::Kind::Shutdown
                                                 : TaskFailure::Kind::Deadline);
  return A;
}

void Lifecycle::serialThrew(Attempt &A, const std::string &Msg,
                            uint64_t Clock) {
  ++Stats.TaskExceptions;
  escalate(A, ContentionManager::Action::Fail, Clock);
  fail(A, Msg);
  A.Mode = CommitMode::Placeholder;
}

void Lifecycle::fail(const Attempt &A, std::string Reason,
                     TaskFailure::Kind Kind) {
  ++Stats.TaskFailures;
  if (Kind != TaskFailure::Kind::Exception)
    ++Stats.CancelledTasks;
  Buffers[writer(A.Lane)].Failures.push_back(
      TaskFailure{A.Tid, A.No, std::move(Reason), Kind});
}

void Lifecycle::backoff(const Attempt &A, double Ts, double Dur,
                        uint64_t Requested) {
  obs::Observer *O = obs::janusObs(A.Obs);
  if (!O || Requested == 0)
    return;
  O->backoffWait().record(Dur);
  O->span(A.Lane, "backoff", A.Tid, A.No, Ts, Dur, "requested_us",
          static_cast<double>(Requested),
          ContentionManager::toString(ContentionManager::Action::Retry));
}

void Lifecycle::commit(const Attempt &A, uint64_t CommitTime,
                       const AttemptState &S, double Ts, double End) {
  emitEnd(A, S, obs::RecKind::Commit, CommitTime, 0, CommitTime);
  ++Stats.Commits;
  if (Board)
    Board->CommitTicks.fetch_add(1, std::memory_order_relaxed);
  obs::Observer *O = obs::janusObs(A.Obs);
  if (!O)
    return;
  // A serial or placeholder commit's span covers the whole execution
  // under the commit lock; a speculative one covers validate+publish.
  if (A.Mode == CommitMode::Speculative)
    O->span(A.Lane, "commit", A.Tid, A.No, Ts, End - Ts, "clock",
            static_cast<double>(CommitTime));
  else
    O->span(A.Lane, "serial", A.Tid, A.No, A.StartTs, End - A.StartTs,
            "clock", static_cast<double>(CommitTime),
            A.Mode == CommitMode::Placeholder ? "placeholder" : "fallback");
  O->commitLatency().record(End - A.StartTs);
}

std::vector<TaskFailure> Lifecycle::finish(AuditTrace &Trace) {
  std::vector<TaskFailure> Failures;
  for (WriterBuffers &B : Buffers) {
    for (TraceEvent &E : B.Events)
      Trace.Events.push_back(std::move(E));
    B.Events.clear();
    for (TaskFailure &F : B.Failures)
      Failures.push_back(std::move(F));
    B.Failures.clear();
  }
  std::stable_sort(Failures.begin(), Failures.end(),
                   [](const TaskFailure &L, const TaskFailure &R) {
                     return L.Tid < R.Tid;
                   });
  return Failures;
}
