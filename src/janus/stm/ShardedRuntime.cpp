#include "janus/stm/ShardedRuntime.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>

using namespace janus;
using namespace janus::stm;

/// Contention backoff. sleep_for on a zero/tiny duration still costs a
/// syscall, so very short waits spin-yield instead.
static void backoff(uint64_t Micros) {
  if (Micros == 0)
    return;
  if (Micros < 50) {
    auto Until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(Micros);
    while (std::chrono::steady_clock::now() < Until)
      std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(Micros));
}

/// Backoff that honours cooperative cancellation: sleeps in short
/// slices, re-checking the task's token between them, so a deadline or
/// shutdown cannot be stretched by a capped-but-long contention wait.
static void cancellableBackoff(uint64_t Micros,
                               const resilience::CancellationTable *Cancel,
                               uint32_t Tid) {
  if (!Cancel) {
    backoff(Micros);
    return;
  }
  while (Micros > 0 &&
         Cancel->status(Tid) == resilience::CancelReason::None) {
    uint64_t Slice = std::min<uint64_t>(Micros, 500);
    backoff(Slice);
    Micros -= Slice;
  }
}

/// The shared empty log: empty-commit fast paths and placeholders all
/// reference one immutable instance instead of allocating per commit.
static TxLogRef emptyTxLog() {
  static const TxLogRef Empty = std::make_shared<const TxLog>();
  return Empty;
}

/// Rounds the requested shard count up to a power of two in
/// [1, MaxShards] (shard routing masks the location hash).
static uint32_t normalizeShardCount(unsigned Requested) {
  uint32_t N = Requested ? static_cast<uint32_t>(Requested) : 1;
  N = std::min(N, ShardedRuntime::MaxShards);
  uint32_t P = 1;
  while (P < N)
    P <<= 1;
  return P;
}

ShardedRuntime::ShardedRuntime(const ObjectRegistry &Reg,
                               ConflictDetector &Detector,
                               ShardedConfig Config)
    : Reg(Reg), Detector(Detector), Config(Config),
      NumShards(normalizeShardCount(Config.NumShards)), Shards(NumShards),
      Workers(std::max(1u, Config.NumThreads)) {
  JANUS_ASSERT(Config.NumThreads >= 1, "need at least one thread");
  const uint32_t SegRecords =
      Config.HistorySegmentRecords ? Config.HistorySegmentRecords : 1;
  for (uint32_t S = 0; S != NumShards; ++S) {
    Shard &Sh = Shards[S];
    // Per-shard history is keyed by the shard's dense version space:
    // version 0 is "nothing committed here yet".
    Sh.History = std::make_unique<HistoryLog>(/*InitialTime=*/0, SegRecords);
    Sh.Oldest = new ShardState{/*GlobalTime=*/1, /*Version=*/0, Snapshot{},
                               Sh.History->tail(), nullptr};
    Sh.Published.store(Sh.Oldest, std::memory_order_release);
  }
  for (WorkerSlot &W : Workers) {
    W.Views.resize(NumShards);
    W.Attempt.resize(NumShards);
  }
  Trace.Shards = NumShards;
  if (obs::Observer *O = obs::janusObs(Config.Obs)) {
    // Pre-create the per-shard instruments (registry creation takes a
    // mutex; lookups here keep it off the commit path).
    ShardCommitCounters.reserve(NumShards);
    ShardAbortCounters.reserve(NumShards);
    for (uint32_t S = 0; S != NumShards; ++S) {
      const std::string Prefix = "stm.shard." + std::to_string(S);
      ShardCommitCounters.push_back(
          &O->metrics().counter(Prefix + ".commits"));
      ShardAbortCounters.push_back(&O->metrics().counter(Prefix + ".aborts"));
    }
  }
}

ShardedRuntime::~ShardedRuntime() {
  for (Shard &Sh : Shards) {
    ShardState *S = Sh.Oldest;
    while (S) {
      ShardState *N = S->Newer;
      delete S;
      S = N;
    }
    for (ShardState *P : Sh.Pool)
      delete P;
  }
}

void ShardedRuntime::setInitialState(Snapshot S) {
  // Split the store by location routing, then swap every shard's slice
  // under all shard mutexes. This is meant for configuration *before*
  // running: a swap preserves each shard's version, so an attempt in
  // flight across the swap could conflate the old and new slices. With
  // one shard the split is the identity and the snapshot is taken as
  // is (an O(1) persistent copy, not a key-by-key rebuild).
  std::vector<Snapshot> Parts(NumShards);
  if (NumShards == 1)
    Parts[0] = std::move(S);
  else
    S.forEach([this, &Parts](const Location &L, const Value &V) {
      uint32_t Idx = shardIndexOf(L, NumShards);
      Parts[Idx] = Parts[Idx].set(L, V);
    });
  for (uint32_t I = 0; I != NumShards; ++I)
    Shards[I].CommitMutex.lock();
  for (uint32_t I = 0; I != NumShards; ++I) {
    Shard &Sh = Shards[I];
    ShardState *Cur = Sh.Published.load(std::memory_order_relaxed);
    ShardState *Next = allocState(Sh);
    Next->GlobalTime = Cur->GlobalTime;
    Next->Version = Cur->Version;
    Next->State = std::move(Parts[I]);
    Next->HistoryTail = Cur->HistoryTail;
    Next->Newer = nullptr;
    Cur->Newer = Next;
    Sh.Published.store(Next, std::memory_order_seq_cst);
    recycleShardStates(I);
  }
  for (uint32_t I = NumShards; I--;)
    Shards[I].CommitMutex.unlock();
}

Snapshot ShardedRuntime::sharedState() const {
  // A cross-shard-consistent cut needs every shard's commit point held
  // at once: a cross-shard commit publishes its shards while holding
  // all their mutexes, so it is either entirely visible here or not at
  // all. Shard key sets are disjoint, so the merge starts from shard
  // 0's slice as is and adds the others (nothing to add with one
  // shard).
  for (uint32_t I = 0; I != NumShards; ++I)
    Shards[I].CommitMutex.lock();
  Snapshot Out = Shards[0].Published.load(std::memory_order_relaxed)->State;
  for (uint32_t I = 1; I != NumShards; ++I) {
    const ShardState *P = Shards[I].Published.load(std::memory_order_relaxed);
    P->State.forEach([&Out](const Location &L, const Value &V) {
      Out = Out.set(L, V);
    });
  }
  for (uint32_t I = NumShards; I--;)
    Shards[I].CommitMutex.unlock();
  return Out;
}

size_t ShardedRuntime::historySize() const {
  size_t Total = 0;
  for (uint32_t I = 0; I != NumShards; ++I) {
    std::lock_guard<std::mutex> Guard(Shards[I].CommitMutex);
    const ShardState *P = Shards[I].Published.load(std::memory_order_relaxed);
    Total += static_cast<size_t>(P->Version - Shards[I].History->headTime());
  }
  return Total;
}

std::vector<uint32_t> ShardedRuntime::commitOrder() const {
  // Per-worker (stamp, tid) buffers merged by the dense global clock.
  // Call after run() has returned (the buffers are worker-private).
  std::vector<std::pair<uint64_t, uint32_t>> All;
  for (const WorkerSlot &W : Workers)
    All.insert(All.end(), W.CommitLog.begin(), W.CommitLog.end());
  std::sort(All.begin(), All.end());
  std::vector<uint32_t> Out;
  Out.reserve(All.size());
  for (const auto &[Stamp, Tid] : All)
    Out.push_back(Tid);
  return Out;
}

void ShardedRuntime::acquireShard(uint32_t S, WorkerSlot &Worker) {
  Shard &Sh = Shards[S];
  std::atomic<ShardState *> &Hz = Worker.Hazards[S];
  // Validated hazard publication. The committer publishes its
  // successor (seq_cst store) and only then scans the hazard slots
  // (seq_cst loads); we store the hazard (seq_cst) and then re-load
  // Published (seq_cst). In the seq_cst total order either the
  // committer's scan sees our slot — and keeps the state — or our
  // re-load sees the newer publication and we retry. Either way we
  // never dereference a recycled state. (The slot may transiently
  // name a stale pointer; committers compare hazards against live
  // chain members only and never dereference slot values.)
  ShardState *P = nullptr;
  do {
    P = Sh.Published.load(std::memory_order_seq_cst);
    Hz.store(P, std::memory_order_seq_cst);
  } while (Sh.Published.load(std::memory_order_seq_cst) != P);
  ShardBackend::View &V = Worker.Views[S];
  V.Entry = P->State; // O(1) persistent copy of the shard slice.
  V.Private = V.Entry;
  V.Stamp = P->GlobalTime;
  V.Acquired = true;
  AttemptShard &A = Worker.Attempt[S];
  A.Now = P;
  A.EntryVersion = P->Version;
  A.Window.emplace(P->HistoryTail, P->Version);
  A.OpsC.clear();
  A.Projection.clear();
  A.ProjRef.reset();
  A.Detected = P->Version;
  A.ReplayedVersion = 0;
  A.Replayed = Snapshot{};
}

void ShardedRuntime::releaseAttempt(WorkerSlot &Worker, uint64_t Mask) {
  for (uint64_t M = Mask; M;) {
    const uint32_t S = static_cast<uint32_t>(std::countr_zero(M));
    M &= M - 1;
    // The seq_cst clear is what recycling synchronizes with: a
    // committer that observes it may rewrite the state we just used.
    Worker.Hazards[S].store(nullptr, std::memory_order_seq_cst);
    ShardBackend::View &V = Worker.Views[S];
    V.Entry = Snapshot{};
    V.Private = Snapshot{};
    V.Stamp = 0;
    V.Acquired = false;
    AttemptShard &A = Worker.Attempt[S];
    A.Now = nullptr;
    A.EntryVersion = 0;
    A.Window.reset();
    A.OpsC.clear();
    A.Projection.clear();
    A.ProjRef.reset();
    A.Detected = 0;
    A.ReplayedVersion = 0;
    A.Replayed = Snapshot{};
  }
}

void ShardedRuntime::recordEvent(WorkerSlot &Worker, uint32_t Tid,
                                 uint64_t Mask, uint64_t FallbackBegin,
                                 uint64_t Commit, bool Committed, TxLogRef Log,
                                 CommitMode Mode) {
  if (!Config.RecordTrace)
    return;
  TraceEvent E;
  E.Tid = Tid;
  E.CommitTime = Commit;
  E.Committed = Committed;
  E.Log = std::move(Log);
  E.Mode = Mode;
  uint64_t Begin = FallbackBegin;
  if (Mask) {
    Begin = ~uint64_t{0};
    const bool Single = (Mask & (Mask - 1)) == 0;
    Snapshot Merged;
    for (uint64_t M = Mask; M;) {
      const uint32_t S = static_cast<uint32_t>(std::countr_zero(M));
      M &= M - 1;
      const ShardBackend::View &V = Worker.Views[S];
      E.ShardBegins.emplace_back(S, V.Stamp);
      Begin = std::min(Begin, V.Stamp);
      if (Single)
        Merged = V.Entry;
      else
        V.Entry.forEach([&Merged](const Location &L, const Value &Val) {
          Merged = Merged.set(L, Val);
        });
    }
    E.Entry = std::move(Merged);
  }
  E.BeginTime = Begin;
  Worker.Events.push_back(std::move(E));
  ++Stats.TraceEvents;
}

void ShardedRuntime::waitForTurn(uint32_t Tid, WorkerSlot &Worker) {
  if (!Config.Ordered)
    return;
  // Task Tid's turn comes when the global Clock reaches OrderBase + Tid
  // (every preceding task committed exactly one tick — speculative,
  // serial, empty or placeholder alike).
  uint64_t Target = OrderBase.load(std::memory_order_acquire) + Tid;
  std::unique_lock<std::mutex> Guard(OrderMutex);
  if (Clock.load(std::memory_order_acquire) < Target) {
    OrderWaiters[Target] = &Worker.TurnCv;
    Worker.TurnCv.wait(Guard, [this, Target]() {
      return Clock.load(std::memory_order_acquire) >= Target;
    });
    OrderWaiters.erase(Target);
  }
}

void ShardedRuntime::notifySuccessor(uint64_t CommitTime) {
  if (!Config.Ordered)
    return;
  std::lock_guard<std::mutex> Guard(OrderMutex);
  auto It = OrderWaiters.find(CommitTime);
  if (It != OrderWaiters.end())
    It->second->notify_one();
}

ShardedRuntime::ShardState *ShardedRuntime::allocState(Shard &Sh) {
  if (!Sh.Pool.empty()) {
    ShardState *S = Sh.Pool.back();
    Sh.Pool.pop_back();
    return S;
  }
  return new ShardState();
}

void ShardedRuntime::recycleShardStates(uint32_t S) {
  Shard &Sh = Shards[S];
  // JANUS_LINT_ALLOW(snapshot-hazard-scope): every caller holds
  // Sh.CommitMutex, which guards this shard's free path.
  ShardState *Cur = Sh.Published.load(std::memory_order_relaxed);
  // Recycle the unreferenced chain prefix. Hazard slots are compared
  // by address against live chain members only — a slot transiently
  // naming an already-recycled pointer can at worst alias a live
  // state and delay its recycling, never resurrect a dead one.
  while (Sh.Oldest != Cur) {
    ShardState *Candidate = Sh.Oldest;
    bool Hazarded = false;
    for (WorkerSlot &W : Workers) {
      if (W.Hazards[S].load(std::memory_order_seq_cst) == Candidate) {
        Hazarded = true;
        break;
      }
    }
    if (Hazarded)
      break;
    Sh.Oldest = Candidate->Newer;
    // Drop the slice and segment references now; reading the cleared
    // hazard above happens-after the owner's last use, so this write
    // cannot race it.
    Candidate->State = Snapshot{};
    Candidate->HistoryTail.reset();
    Candidate->Newer = nullptr;
    Sh.Pool.push_back(Candidate);
  }
  // The oldest surviving state bounds every in-flight window: a
  // reader acquired at version >= Oldest->Version and queries only
  // records above its own acquisition version.
  if (Config.ReclaimLogs)
    Sh.History->reclaimUpTo(Sh.Oldest->Version);
}

ShardedRuntime::AttemptResult
ShardedRuntime::runTask(const TaskFn &Task, uint32_t Tid, uint32_t Attempt,
                        unsigned Lane, WorkerSlot &Worker,
                        std::string *ThrowMsg) {
  obs::Observer *const O = obs::janusObs(Config.Obs);
  const bool Sampled = O && O->sampled(Tid);
  const double AttemptTs = Sampled ? O->nowUs() : 0.0;
  // CREATETRANSACTION is distributed: no shard is touched until the
  // body's first access routes there (TxContext::stateFor →
  // acquireShard). The clock here only anchors the trace record of a
  // transaction that ends up touching no shard at all.
  const uint64_t ClockAtBegin = Clock.load(std::memory_order_acquire);

  AttemptBackend Backend(*this, Worker);
  TxContext Tx(Backend, Tid, Reg, &Stats);
  const double BodyTs = Sampled ? O->nowUs() : 0.0;
  bool Threw = false;
  try {
    if (Config.Faults.throwTask(Tid, Attempt)) {
      ++Stats.FaultsInjected;
      throw resilience::InjectedFault("injected task exception");
    }
    Task(Tx);
  } catch (const std::exception &E) {
    Threw = true;
    if (ThrowMsg)
      *ThrowMsg = E.what();
  } catch (...) {
    Threw = true;
    if (ThrowMsg)
      *ThrowMsg = "unknown exception";
  }
  Tx.endAttempt();
  const uint64_t Mask = Tx.accessedShards();
  // Flight recorder: one begin + one shard-acquire per touched shard +
  // the terminal event, emitted together at the attempt's end while the
  // views (and their acquisition stamps) are still live — the same
  // harvest recordEvent performs for the audit trace.
  obs::Recorder *const Rec = obs::janusRec(Config.Rec);
  const bool RecOn = Rec && Rec->sampled(Tid);
  auto RecAttempt = [&](obs::RecKind Kind, uint64_t TermClock, uint32_t Aux,
                        uint8_t TermMode) {
    if (!RecOn)
      return;
    Rec->record(Lane, obs::RecKind::Begin, Tid, Attempt, ClockAtBegin);
    for (uint64_t M = Mask; M;) {
      const uint32_t S = static_cast<uint32_t>(std::countr_zero(M));
      M &= M - 1;
      Rec->record(Lane, obs::RecKind::ShardAcquire, Tid, Attempt,
                  Worker.Views[S].Stamp, S);
    }
    Rec->record(Lane, Kind, Tid, Attempt, TermClock, Aux, TermMode);
  };
  if (Sampled) {
    O->span(Lane, "begin", Tid, Attempt, AttemptTs, BodyTs - AttemptTs,
            "clock", static_cast<double>(ClockAtBegin));
    O->span(Lane, "body", Tid, Attempt, BodyTs, O->nowUs() - BodyTs, "shards",
            static_cast<double>(std::popcount(Mask)));
  }
  if (Threw) {
    ++Stats.TaskExceptions;
    if (Sampled)
      O->instant(Lane, "abort", Tid, Attempt, O->nowUs(), "exception");
    RecAttempt(obs::RecKind::Abort, ClockAtBegin, obs::RecAbortException, 0);
    recordEvent(Worker, Tid, Mask, ClockAtBegin, 0, /*Committed=*/false,
                emptyTxLog());
    releaseAttempt(Worker, Mask);
    return AttemptResult::Thrown;
  }
  TxLogRef Log =
      Tx.log().empty() ? emptyTxLog()
                       : std::make_shared<const TxLog>(Tx.log());

  if (Config.Faults.forceAbort(Tid, Attempt)) {
    ++Stats.FaultsInjected;
    if (Sampled)
      O->instant(Lane, "abort", Tid, Attempt, O->nowUs(), "injected");
    RecAttempt(obs::RecKind::Abort, ClockAtBegin, obs::RecAbortInjected, 0);
    recordEvent(Worker, Tid, Mask, ClockAtBegin, 0, /*Committed=*/false,
                std::move(Log));
    releaseAttempt(Worker, Mask);
    return AttemptResult::Aborted;
  }

  // Cooperative cancellation, before the ordered wait: a doomed
  // attempt must not occupy its commit turn. The worker loop turns
  // this into a placeholder-committed TaskFailure.
  if (Config.Cancel &&
      Config.Cancel->status(Tid) != resilience::CancelReason::None) {
    if (Sampled)
      O->instant(Lane, "abort", Tid, Attempt, O->nowUs(), "cancelled");
    RecAttempt(obs::RecKind::Abort, ClockAtBegin, obs::RecAbortCancelled, 0);
    recordEvent(Worker, Tid, Mask, ClockAtBegin, 0, /*Committed=*/false,
                std::move(Log));
    releaseAttempt(Worker, Mask);
    return AttemptResult::Cancelled;
  }

  // Ordered mode: wait for all preceding tasks to commit.
  waitForTurn(Tid, Worker);

  if (uint64_t Delay = Config.Faults.commitDelay(Tid, Attempt)) {
    ++Stats.FaultsInjected;
    backoff(Delay);
  }

  // Empty fast path: a transaction that touched no shard validates
  // vacuously and publishes nothing — its commit is one atomic tick
  // of the global clock, keeping the total order (and ordered-mode
  // turn arithmetic) dense. Allocation-free: the log reference above
  // is the shared empty log.
  if (Mask == 0) {
    const double CommitTs = Sampled ? O->nowUs() : 0.0;
    const uint64_t CommitTime =
        Clock.fetch_add(1, std::memory_order_seq_cst) + 1;
    ++Stats.EmptyCommits;
    Worker.CommitLog.emplace_back(CommitTime, Tid);
    if (Sampled) {
      double End = O->nowUs();
      O->span(Lane, "commit", Tid, Attempt, CommitTs, End - CommitTs, "clock",
              static_cast<double>(CommitTime));
      O->commitLatency().record(End - AttemptTs);
    }
    RecAttempt(obs::RecKind::Commit, CommitTime, 0,
               static_cast<uint8_t>(CommitMode::Speculative));
    recordEvent(Worker, Tid, 0, ClockAtBegin, CommitTime, /*Committed=*/true,
                std::move(Log));
    notifySuccessor(CommitTime);
    return AttemptResult::Committed;
  }

  const bool Single = (Mask & (Mask - 1)) == 0;
  // Touched shards in ascending index order — the global lock order
  // for the two-phase acquire.
  std::array<uint32_t, MaxShards> Touched;
  uint32_t NumTouched = 0;
  for (uint64_t M = Mask; M;) {
    Touched[NumTouched++] = static_cast<uint32_t>(std::countr_zero(M));
    M &= M - 1;
  }
  if (!Single) {
    // Project the log once per attempt: each shard's history (and its
    // detection window for other transactions) carries exactly that
    // shard's operations, in the transaction's program order.
    for (const LogEntry &E : *Log)
      Worker.Attempt[shardIndexOf(E.Loc, NumShards)].Projection.push_back(E);
    for (uint32_t I = 0; I != NumTouched; ++I) {
      AttemptShard &A = Worker.Attempt[Touched[I]];
      A.ProjRef = std::make_shared<const TxLog>(A.Projection);
    }
  }

  while (true) {
    // DETECTCONFLICTS per touched shard, each against its own entry
    // snapshot and its own incremental window — sound because
    // detection decomposes per location (§5.3) and a location's
    // committed ops live exactly in its shard's history.
    bool Conflict = false;
    uint32_t ConflictShard = 0;
    for (uint32_t I = 0; I != NumTouched && !Conflict; ++I) {
      const uint32_t S = Touched[I];
      Shard &Sh = Shards[S];
      AttemptShard &A = Worker.Attempt[S];
      // Refresh the shard's published state (validated hazard
      // publication, as in acquireShard). The hazard moves forward to
      // the refreshed state; the entry state stays safe to *use*
      // because the attempt holds persistent copies (View::Entry, the
      // window's segment refs) — only the pointer goes stale.
      std::atomic<ShardState *> &Hz = Worker.Hazards[S];
      ShardState *P = nullptr;
      do {
        P = Sh.Published.load(std::memory_order_seq_cst);
        Hz.store(P, std::memory_order_seq_cst);
      } while (Sh.Published.load(std::memory_order_seq_cst) != P);
      A.Now = P;
      const uint64_t NowVer = P->Version;
      if (NowVer == A.Detected)
        continue; // No new commits in this shard since the last round.
      const double DetectTs = Sampled ? O->nowUs() : 0.0;
      A.Window->collectUpTo(NowVer, A.OpsC);
      ++Stats.ConflictChecks;
      const TxLog &Mine = Single ? *Log : A.Projection;
      const bool C =
          Detector.detectConflicts(Worker.Views[S].Entry, Mine, A.OpsC, Reg);
      A.Detected = NowVer;
      if (Sampled) {
        double Dur = O->nowUs() - DetectTs;
        O->detectLatency().record(Dur);
        O->span(Lane, "detect", Tid, Attempt, DetectTs, Dur, "window",
                static_cast<double>(A.OpsC.size()));
      }
      if (C) {
        Conflict = true;
        ConflictShard = S;
      }
    }
    if (Conflict) {
      if (O && !ShardAbortCounters.empty())
        ++*ShardAbortCounters[ConflictShard];
      if (Sampled)
        O->instant(Lane, "abort", Tid, Attempt, O->nowUs(), "conflict");
      // Detect-end clock: the conflicting commit's global stamp is at
      // most the clock read here (it published before detection saw
      // it), so replay's window (begin, detect-end] covers it.
      RecAttempt(obs::RecKind::Abort,
                 Clock.load(std::memory_order_acquire),
                 obs::RecAbortConflict, 0);
      recordEvent(Worker, Tid, Mask, ClockAtBegin, 0, /*Committed=*/false,
                  std::move(Log));
      releaseAttempt(Worker, Mask);
      return AttemptResult::Aborted;
    }

    // REPLAYLOGGEDOPERATIONS per shard, outside every lock. When the
    // shard has not advanced since acquisition, the privatized view
    // already *is* entry-plus-log — an O(1) reuse that keeps the
    // single-shard fast path free of a second replay walk.
    const double ReplayTs = Sampled ? O->nowUs() : 0.0;
    for (uint32_t I = 0; I != NumTouched; ++I) {
      const uint32_t S = Touched[I];
      AttemptShard &A = Worker.Attempt[S];
      const uint64_t NowVer = A.Now->Version;
      if (A.ReplayedVersion == NowVer && NowVer != 0)
        continue; // Still valid from the previous round.
      if (NowVer == A.EntryVersion) {
        A.Replayed = Worker.Views[S].Private;
      } else {
        A.Replayed = A.Now->State;
        const TxLog &Mine = Single ? *Log : A.Projection;
        for (const LogEntry &E : Mine)
          A.Replayed = applyToSnapshot(A.Replayed, E.Loc, E.Op);
      }
      A.ReplayedVersion = NowVer;
    }
    if (Sampled)
      O->span(Lane, "replay", Tid, Attempt, ReplayTs, O->nowUs() - ReplayTs,
              "ops", static_cast<double>(Log->size()));

    // COMMIT: two-phase acquire over exactly the touched shards, in
    // ascending shard order (a global order shared with the serial
    // fallback, so the multi-lock cannot deadlock). Validate all,
    // stamp one global clock tick, publish all, unlock in reverse.
    const double CommitTs = Sampled ? O->nowUs() : 0.0;
    for (uint32_t I = 0; I != NumTouched; ++I) {
      Shards[Touched[I]].CommitMutex.lock();
      // Torn-commit probe (fault injection): stall between successive
      // shard-lock acquisitions — the window in which a broken
      // two-phase protocol would let readers observe a partial
      // publication. The torn-commit test drives concurrent readers
      // through exactly this gap.
      if (I + 1 != NumTouched) {
        if (uint64_t D = Config.Faults.acquireDelay(Tid, Attempt)) {
          ++Stats.FaultsInjected;
          backoff(D);
        }
      }
    }
    bool Valid = true;
    for (uint32_t I = 0; I != NumTouched; ++I) {
      const uint32_t S = Touched[I];
      // Pointer identity is exact here: A.Now is hazard-protected, so
      // it cannot have been recycled and re-published.
      if (Shards[S].Published.load(std::memory_order_relaxed) !=
          Worker.Attempt[S].Now) {
        Valid = false;
        break;
      }
    }
    if (!Valid) {
      for (uint32_t I = NumTouched; I--;)
        Shards[Touched[I]].CommitMutex.unlock();
      ++Stats.ValidationFailures;
      if (Sampled)
        O->instant(Lane, "validate-fail", Tid, Attempt, CommitTs);
      continue;
    }
    const uint64_t CommitTime =
        Clock.fetch_add(1, std::memory_order_seq_cst) + 1;
    for (uint32_t I = 0; I != NumTouched; ++I) {
      const uint32_t S = Touched[I];
      Shard &Sh = Shards[S];
      AttemptShard &A = Worker.Attempt[S];
      const uint64_t Ver = A.Now->Version + 1;
      Sh.History->append(Ver, Single ? Log : A.ProjRef);
      ShardState *Next = allocState(Sh);
      Next->GlobalTime = CommitTime;
      Next->Version = Ver;
      Next->State = std::move(A.Replayed);
      Next->HistoryTail = Sh.History->tail();
      Next->Newer = nullptr;
      A.Now->Newer = Next;
      Sh.Published.store(Next, std::memory_order_seq_cst);
      recycleShardStates(S);
    }
    for (uint32_t I = NumTouched; I--;)
      Shards[Touched[I]].CommitMutex.unlock();
    if (!Single)
      ++Stats.CrossShardCommits;
    Worker.CommitLog.emplace_back(CommitTime, Tid);
    if (O && !ShardCommitCounters.empty())
      for (uint32_t I = 0; I != NumTouched; ++I)
        ++*ShardCommitCounters[Touched[I]];
    if (Sampled) {
      double End = O->nowUs();
      O->span(Lane, "commit", Tid, Attempt, CommitTs, End - CommitTs,
              "shards", static_cast<double>(NumTouched));
      O->commitLatency().record(End - AttemptTs);
    }
    RecAttempt(obs::RecKind::Commit, CommitTime, 0,
               static_cast<uint8_t>(CommitMode::Speculative));
    recordEvent(Worker, Tid, Mask, ClockAtBegin, CommitTime,
                /*Committed=*/true, std::move(Log));
    releaseAttempt(Worker, Mask);
    notifySuccessor(CommitTime);
    return AttemptResult::Committed;
  }
}

void ShardedRuntime::commitSerial(const TaskFn *Task, uint32_t Tid,
                                  unsigned Lane, WorkerSlot &Worker) {
  obs::Observer *const O = obs::janusObs(Config.Obs);
  const bool Sampled = O && O->sampled(Tid);
  const double SerialTs = Sampled ? O->nowUs() : 0.0;

  // Ordered mode: wait for the turn *before* taking any lock — the
  // predecessor's commit needs its shard mutexes.
  waitForTurn(Tid, Worker);

  // Lock *every* shard in ascending order: a strict superset of any
  // speculative committer's lock set in the same global order, so no
  // deadlock — and with all commit points held, execution here is
  // irrevocable (nothing can invalidate it).
  for (uint32_t S = 0; S != NumShards; ++S)
    Shards[S].CommitMutex.lock();

  uint64_t Mask = 0;
  TxLogRef Log;
  CommitMode Mode = Task ? CommitMode::Serial : CommitMode::Placeholder;
  if (Task) {
    AttemptBackend Backend(*this, Worker);
    TxContext Tx(Backend, Tid, Reg, &Stats);
    try {
      (*Task)(Tx);
      Tx.endAttempt();
      Log = std::make_shared<const TxLog>(Tx.log());
    } catch (const std::exception &E) {
      Tx.endAttempt();
      ++Stats.TaskExceptions;
      ++Stats.TaskFailures;
      Worker.Failures.push_back(
          resilience::TaskFailure{Tid, CM->attempts(Tid) + 1, E.what()});
      Mode = CommitMode::Placeholder;
    } catch (...) {
      Tx.endAttempt();
      ++Stats.TaskExceptions;
      ++Stats.TaskFailures;
      Worker.Failures.push_back(resilience::TaskFailure{
          Tid, CM->attempts(Tid) + 1, "unknown exception"});
      Mode = CommitMode::Placeholder;
    }
    Mask = Tx.accessedShards();
  }
  if (!Log || Mode == CommitMode::Placeholder)
    Log = emptyTxLog(); // Placeholder: no effects survive.
  const uint64_t CommitTime = Clock.fetch_add(1, std::memory_order_seq_cst) + 1;
  const uint64_t EffectMask = Mode == CommitMode::Placeholder ? 0 : Mask;
  if (EffectMask) {
    const bool Single = (EffectMask & (EffectMask - 1)) == 0;
    if (!Single)
      for (const LogEntry &E : *Log)
        Worker.Attempt[shardIndexOf(E.Loc, NumShards)].Projection.push_back(E);
    for (uint64_t M = EffectMask; M;) {
      const uint32_t S = static_cast<uint32_t>(std::countr_zero(M));
      M &= M - 1;
      Shard &Sh = Shards[S];
      AttemptShard &A = Worker.Attempt[S];
      // Acquired under the full lock set, so A.Now is current and the
      // privatized view is entry-plus-log of the live state.
      const uint64_t Ver = A.Now->Version + 1;
      TxLogRef ShardLog =
          Single ? Log : std::make_shared<const TxLog>(A.Projection);
      Sh.History->append(Ver, std::move(ShardLog));
      ShardState *Next = allocState(Sh);
      Next->GlobalTime = CommitTime;
      Next->Version = Ver;
      Next->State = Worker.Views[S].Private;
      Next->HistoryTail = Sh.History->tail();
      Next->Newer = nullptr;
      A.Now->Newer = Next;
      Sh.Published.store(Next, std::memory_order_seq_cst);
      recycleShardStates(S);
    }
    if ((EffectMask & (EffectMask - 1)) != 0)
      ++Stats.CrossShardCommits;
  }
  for (uint32_t S = NumShards; S--;)
    Shards[S].CommitMutex.unlock();
  Worker.CommitLog.emplace_back(CommitTime, Tid);
  if (Sampled) {
    double End = O->nowUs();
    O->span(Lane, "serial", Tid, /*Attempt=*/0, SerialTs, End - SerialTs,
            "clock", static_cast<double>(CommitTime),
            Mode == CommitMode::Placeholder ? "placeholder" : "fallback");
    O->commitLatency().record(End - SerialTs);
  }
  // Serial/placeholder commits emit no begin or shard-acquire events —
  // the replayer derives their entry (CommitTime - 1) from the mode.
  if (obs::Recorder *R = obs::janusRec(Config.Rec))
    if (R->sampled(Tid))
      R->record(Lane, obs::RecKind::Commit, Tid, /*Attempt=*/0, CommitTime,
                0, static_cast<uint8_t>(Mode));
  recordEvent(Worker, Tid, EffectMask, CommitTime - 1, CommitTime,
              /*Committed=*/true, std::move(Log), Mode);
  releaseAttempt(Worker, Mask);
  notifySuccessor(CommitTime);
}

void ShardedRuntime::run(const std::vector<TaskFn> &Tasks) {
  Stats.Tasks += Tasks.size();
  CM = std::make_unique<resilience::ContentionManager>(Config.Resilience,
                                                       Tasks.size());
  Failures.clear();
  if (Config.RecordTrace) {
    Trace.Recorded = true;
    Trace.Initial = sharedState();
    Trace.Events.clear();
  }
  OrderBase.store(Clock.load(std::memory_order_acquire) - 1,
                  std::memory_order_release);
  std::atomic<size_t> NextTask{0};

  auto Worker = [this, &Tasks, &NextTask](unsigned Slot) {
    WorkerSlot &W = Workers[Slot];
    obs::Observer *const O = obs::janusObs(Config.Obs);
    auto BackoffTraced = [&](uint32_t Tid, uint32_t Attempt, uint64_t Micros,
                             const char *Note) {
      if (!O || !O->sampled(Tid)) {
        cancellableBackoff(Micros, Config.Cancel, Tid);
        return;
      }
      double Ts = O->nowUs();
      cancellableBackoff(Micros, Config.Cancel, Tid);
      double Dur = O->nowUs() - Ts;
      O->backoffWait().record(Dur);
      O->span(Slot, "backoff", Tid, Attempt, Ts, Dur, "requested_us",
              static_cast<double>(Micros), Note);
    };
    while (true) {
      size_t Idx = NextTask.fetch_add(1, std::memory_order_relaxed);
      if (Idx >= Tasks.size())
        return;
      uint32_t Tid = static_cast<uint32_t>(Idx + 1);
      using Action = resilience::ContentionManager::Action;
      // Fails the task for cancel reason CR: a structured TaskFailure
      // plus an empty placeholder commit, as for exception exhaustion.
      auto FailCancelled = [&](uint32_t Tid2, uint32_t AttemptsMade,
                               resilience::CancelReason CR) {
        ++Stats.TaskFailures;
        ++Stats.CancelledTasks;
        W.Failures.push_back(resilience::TaskFailure{
            Tid2, AttemptsMade, resilience::toString(CR),
            CR == resilience::CancelReason::Shutdown
                ? resilience::TaskFailure::Kind::Shutdown
                : resilience::TaskFailure::Kind::Deadline});
        if (obs::Recorder *R = obs::janusRec(Config.Rec))
          if (R->sampled(Tid2))
            R->record(Slot, obs::RecKind::Cancel, Tid2, AttemptsMade,
                      Clock.load(std::memory_order_acquire),
                      static_cast<uint32_t>(CR));
        commitSerial(nullptr, Tid2, Slot, W);
      };
      for (uint32_t Attempt = 1;; ++Attempt) {
        if (Config.Cancel) {
          resilience::CancelReason CR = Config.Cancel->status(Tid);
          if (CR != resilience::CancelReason::None) {
            FailCancelled(Tid, Attempt - 1, CR);
            break;
          }
        }
        std::string ThrowMsg;
        AttemptResult R = runTask(Tasks[Idx], Tid, Attempt, Slot, W, &ThrowMsg);
        if (R == AttemptResult::Committed)
          break;
        if (R == AttemptResult::Cancelled) {
          resilience::CancelReason CR = Config.Cancel->status(Tid);
          if (CR == resilience::CancelReason::None)
            CR = resilience::CancelReason::Shutdown; // Unreachable guard.
          FailCancelled(Tid, Attempt, CR);
          break;
        }
        if (R == AttemptResult::Aborted) {
          ++Stats.Retries;
          auto D = CM->onAbort(Tid, Slot);
          if (D.Act == Action::Serial) {
            ++Stats.SerialFallbacks;
            if (obs::Recorder *R = obs::janusRec(Config.Rec))
              if (R->sampled(Tid))
                R->record(Slot, obs::RecKind::Escalation, Tid, Attempt,
                          Clock.load(std::memory_order_acquire));
            commitSerial(&Tasks[Idx], Tid, Slot, W);
            break;
          }
          BackoffTraced(Tid, Attempt, D.BackoffMicros,
                        resilience::ContentionManager::toString(D.Act));
          continue;
        }
        // Thrown.
        auto D = CM->onException(Tid, Slot);
        if (D.Act == Action::Fail) {
          ++Stats.TaskFailures;
          W.Failures.push_back(
              resilience::TaskFailure{Tid, CM->attempts(Tid), ThrowMsg});
          commitSerial(nullptr, Tid, Slot, W);
          break;
        }
        BackoffTraced(Tid, Attempt, D.BackoffMicros,
                      resilience::ContentionManager::toString(D.Act));
      }
      ++Stats.Commits;
      if (Config.Resilience.Board)
        Config.Resilience.Board->CommitTicks.fetch_add(
            1, std::memory_order_relaxed);
    }
  };

  unsigned N = std::min<unsigned>(Config.NumThreads,
                                  std::max<size_t>(Tasks.size(), 1));
  if (N <= 1) {
    Worker(0);
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(N);
    for (unsigned I = 0; I != N; ++I)
      Threads.emplace_back(Worker, I);
    for (std::thread &T : Threads)
      T.join();
  }
  if (Config.RecordTrace) {
    for (WorkerSlot &W : Workers) {
      for (TraceEvent &E : W.Events)
        Trace.Events.push_back(std::move(E));
      W.Events.clear();
    }
    Trace.Final = sharedState();
  }
  for (WorkerSlot &W : Workers) {
    for (resilience::TaskFailure &F : W.Failures)
      Failures.push_back(std::move(F));
    W.Failures.clear();
  }
  std::sort(Failures.begin(), Failures.end(),
            [](const resilience::TaskFailure &A,
               const resilience::TaskFailure &B) { return A.Tid < B.Tid; });
}
