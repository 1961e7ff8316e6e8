//===----------------------------------------------------------------------===//
///
/// \file
/// The JANUS parallelization protocol on real threads (paper Figure 7),
/// with location-sharded commit points.
///
/// DOPARALLEL runs the input tasks asynchronously until the pool is
/// drained, retrying each task until it commits. Each attempt runs its
/// body against privatized shard copies, waits for its turn when
/// ordered, runs DETECTCONFLICTS against the commits that landed since
/// it began, replays its log onto the published state outside every
/// lock, and commits by validating that the published state is still
/// the one the replay started from. Theorem 4.1: with a sound and valid
/// detector this terminates, and ordered runs reach the sequential
/// final state while unordered runs reach the final state of their
/// commit order.
///
/// The object space is partitioned into N location-keyed shards (power
/// of two, routed by `shardIndexOf(Location)`; one by default), each
/// owning its own
///
///  - published snapshot slice (the shard's subset of the store),
///  - append-only `HistoryLog` segment chain, keyed by a *dense
///    per-shard version* (one bump per commit that touched the shard),
///  - commit mutex (the shard's commit point).
///
/// With one shard this is the classic single-commit-point engine: one
/// published snapshot, one history, one commit mutex. More shards take
/// the single publication point off the commit path.
///
/// A transaction acquires shards lazily: the first access to a
/// location in shard s hazard-protects s's published state and copies
/// its slice as that shard's entry snapshot (TxContext::ShardBackend).
/// Detection runs per acquired shard against the shard's own history
/// window — sound because conflict detection decomposes per location
/// (paper §5.3), and a location's window records live exactly in its
/// shard's log.
///
/// Commit:
///  - **Empty** transactions (no shared access) touch no shard at all:
///    one global-clock bump, allocation-free.
///  - **Single-shard** transactions (the common case) validate and
///    publish under only their shard's mutex.
///  - **Cross-shard** transactions run a deterministic-order two-phase
///    acquire — lock every touched shard's mutex in ascending shard
///    order (a global order, so no deadlock), validate all, publish
///    all, unlock in reverse.
///
/// Every committed transaction — empty, single-, or cross-shard —
/// stamps one tick of a dense global clock (`Clock.fetch_add(1)`), so
/// the total commit order of Theorem 4.1 and the ordered-mode turn
/// handoff (each committer wakes exactly its successor) do not depend
/// on the shard count, while per-shard histories stay dense in their
/// own version space. The auditor reconstructs the total order from
/// the global stamps and refines per-location begin points from the
/// recorded shard-acquisition stamps (`TraceEvent::ShardBegins`).
///
/// Robustness (janus::resilience): every attempt transition goes
/// through `stm::Lifecycle`, shared with the simulator, so every abort
/// consults a `ContentionManager` — retries back off exponentially with
/// deterministic jitter, and a task starved past its retry budget
/// escalates to an irrevocable serial fallback under every shard lock.
/// A task body that throws aborts cleanly and is retried up to a
/// budget, then surfaces as a structured `TaskFailure` while an empty
/// placeholder commit keeps the clock dense and ordered successors
/// unblocked. A `FaultPlan` can deterministically force aborts, inject
/// exceptions, and delay commits at chosen (task, attempt) coordinates.
///
/// State lifetime is epoch-style, per shard: workers advertise the
/// shard states they begin from in per-(worker, shard) hazard slots
/// (validated store-then-recheck publication, all seq_cst); a
/// committer frees — or rather recycles through a per-shard pool —
/// the chain prefix no hazard references. See ShardedRuntime.cpp for
/// the Dekker-style argument.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_STM_SHARDEDRUNTIME_H
#define JANUS_STM_SHARDEDRUNTIME_H

#include "janus/obs/Obs.h"
#include "janus/obs/Recorder.h"
#include "janus/resilience/Cancellation.h"
#include "janus/resilience/ContentionManager.h"
#include "janus/resilience/FaultPlan.h"
#include "janus/stm/AuditTrace.h"
#include "janus/stm/Detector.h"
#include "janus/stm/HistoryLog.h"
#include "janus/stm/Lifecycle.h"
#include "janus/stm/Stats.h"
#include "janus/stm/TxContext.h"

#include <array>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace janus {
namespace stm {

/// Configuration of a threaded run.
struct ShardedConfig {
  unsigned NumThreads = 4;
  /// Location-keyed shards. Rounded up to a power of two and clamped
  /// to [1, MaxShards]; shard routing is `shardIndexOf(Loc, N)`. One
  /// shard is the single-commit-point engine.
  unsigned NumShards = 1;
  /// In-order execution flag: commit in task order (Figure 7
  /// `ordered`).
  bool Ordered = false;
  /// Reclaim committed logs no active transaction can still query
  /// (the engineering improvement discussed in §7.2).
  bool ReclaimLogs = false;
  /// Record an AuditTrace of every attempt for hindsight auditing.
  bool RecordTrace = false;
  /// Records per committed-history segment (per shard).
  uint32_t HistorySegmentRecords = 64;
  /// Contention-management policy.
  resilience::ResilienceConfig Resilience = {};
  /// Deterministic fault-injection plan (empty = no faults).
  resilience::FaultPlan Faults = {};
  /// Observability sink; nullptr = no instrumentation. Must be
  /// provisioned with at least NumThreads lanes and outlive the
  /// runtime.
  obs::Observer *Obs = nullptr;
  /// Cooperative cancellation (janus::serve deadlines / drain),
  /// consulted at attempt boundaries and inside backoff waits; a
  /// cancelled task fails with a placeholder commit. nullptr = never
  /// cancelled. Not owned; appended last (aggregate initializers).
  const resilience::CancellationTable *Cancel = nullptr;
  /// Flight recorder (janus::obs::Recorder): per-lane begin/abort/
  /// commit/shard-acquire events with dense-clock stamps, replayable
  /// via `janus replay`. Must be provisioned with at least NumThreads
  /// lanes and outlive the runtime. nullptr = no recording. Not
  /// owned; appended last.
  obs::Recorder *Rec = nullptr;
};

/// Runs task sets under optimistic synchronization with per-shard
/// commit points.
class ShardedRuntime {
public:
  /// Hard cap on the shard count: a transaction's accessed-shard set
  /// is a single uint64_t bitmask.
  static constexpr uint32_t MaxShards = 64;

  ShardedRuntime(const ObjectRegistry &Reg, ConflictDetector &Detector,
                 ShardedConfig Config);
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime &) = delete;
  ShardedRuntime &operator=(const ShardedRuntime &) = delete;

  /// Sets the initial configuration of the shared state (split across
  /// the shards by location routing; taken as is with one shard).
  void setInitialState(Snapshot S);

  /// Executes \p Tasks to completion (DOPARALLEL). Task ids are their
  /// 1-based positions. May be called repeatedly; state persists
  /// between calls.
  void run(const std::vector<TaskFn> &Tasks);

  /// \returns the shared state after the last run, merged across
  /// shards under all shard mutexes (a cross-shard-consistent cut;
  /// an O(1) persistent copy with one shard).
  Snapshot sharedState() const;

  const RunStats &stats() const { return Stats; }
  RunStats &stats() { return Stats; }

  /// The effective (clamped, power-of-two) shard count.
  uint32_t numShards() const { return NumShards; }

  /// Committed-history records currently retained, summed over shards.
  size_t historySize() const;

  /// Task ids (1-based) in global commit order over every run so far
  /// (merged from per-worker buffers, sorted by the dense global
  /// clock stamps).
  std::vector<uint32_t> commitOrder() const;

  /// \returns the recorded trace (empty unless RecordTrace was set).
  /// Call only after run() has returned.
  const AuditTrace &trace() const { return Trace; }

  /// Tasks of the last run() that failed — a body kept throwing, a
  /// serial execution threw, or the task was cancelled — sorted by
  /// task id (placeholder-committed).
  const std::vector<resilience::TaskFailure> &failures() const {
    return Failures;
  }

private:
  /// One shard's atomically swapped image: the global clock stamp of
  /// the commit that published it, the shard's dense version, the
  /// shard's snapshot slice, and the history segment a transaction
  /// acquiring here starts its conflict window from. Immutable once
  /// published; chained oldest→newest for epoch recycling.
  struct ShardState {
    uint64_t GlobalTime = 0;
    uint64_t Version = 0;
    Snapshot State;
    HistoryLog::SegmentRef HistoryTail;
    ShardState *Newer = nullptr; ///< Written under the shard's mutex.
  };

  /// One location-keyed shard: its commit point, published state
  /// chain, history log, and recycled-state pool.
  struct alignas(CacheLineSize) Shard {
    /// Mutable: sharedState()/historySize() are logically const but
    /// must hold the commit points for a consistent cut.
    mutable std::mutex CommitMutex;
    std::atomic<ShardState *> Published{nullptr};
    /// Oldest state still allocated; chain head for epoch recycling.
    /// Mutated only under CommitMutex (and the destructor).
    ShardState *Oldest = nullptr;
    /// Per-shard committed history, keyed by the shard's dense
    /// Version (not the sparse global clock — HistoryLog requires
    /// dense keys).
    std::unique_ptr<HistoryLog> History;
    /// Retired ShardStates for reuse; commit-path allocations are
    /// pool hits in steady state. Guarded by CommitMutex.
    std::vector<ShardState *> Pool;
  };

  /// Per-(worker, shard) scratch carried across the validation rounds
  /// of one attempt: the acquired entry state, the latest validated
  /// state, the incremental history window, and the shard projection
  /// of the transaction's log.
  struct AttemptShard {
    /// Latest state this round runs against; hazard-protected, so
    /// pointer identity against Published is exact while it is set.
    ShardState *Now = nullptr;
    /// Shard version at acquisition. Identity of *past* states is
    /// tracked by version, never by pointer: pool recycling can reuse
    /// an address, but a shard's versions are never reused.
    uint64_t EntryVersion = 0;
    std::optional<HistoryLog::Reader> Window;
    std::vector<TxLogRef> OpsC;  ///< Collected shard window.
    /// Shard projection of the attempt's log (only for cross-shard
    /// attempts; single-shard attempts use the full log), built here
    /// and then moved into ProjRef.
    LogEntries Projection;
    TxLogRef ProjRef; ///< Frozen Projection: detection and the history.
    /// Version up to which detection already ran (skip re-detection
    /// when a validation round saw no new commits in this shard).
    uint64_t Detected = 0;
    Snapshot Replayed;        ///< Log applied onto version ReplayedVersion.
    uint64_t ReplayedVersion = 0; ///< 0 = Replayed not yet valid.
  };

  /// Per-worker runtime state, cache-line padded.
  struct alignas(CacheLineSize) WorkerSlot {
    /// Hazard slots, one per shard: the published ShardState this
    /// worker's current attempt begins from in that shard (null =
    /// none). Committers must not recycle a state a slot references.
    std::array<std::atomic<ShardState *>, MaxShards> Hazards{};
    /// Per-shard view slots handed to TxContext (ShardBackend
    /// storage); reset between attempts so attempts allocate nothing.
    std::vector<ShardBackend::View> Views;
    std::vector<AttemptShard> Attempt; ///< Parallel to Views.
    /// Signalled (at most once per turn) when this worker's ordered
    /// turn arrives; see OrderWaiters.
    std::condition_variable TurnCv;
    /// (global commit stamp, task id) pairs; merged and sorted into
    /// the global commit order on demand.
    std::vector<std::pair<uint64_t, uint32_t>> CommitLog;
  };

  /// TxContext's view of one attempt: routes lazy shard acquisition
  /// into the runtime.
  struct AttemptBackend final : ShardBackend {
    AttemptBackend(ShardedRuntime &RT, WorkerSlot &Worker)
        : RT(RT), Worker(Worker) {}
    uint32_t shardCount() const override { return RT.NumShards; }
    View *views() override { return Worker.Views.data(); }
    void acquire(uint32_t S) override { RT.acquireShard(S, Worker); }
    ShardedRuntime &RT;
    WorkerSlot &Worker;
  };

  /// One speculative RUNTASK attempt. \returns nullopt when it
  /// committed, else the lifecycle's next step for the task.
  std::optional<Lifecycle::Next> runTask(const TaskFn &Task, uint32_t Tid,
                                         uint32_t No, unsigned Lane,
                                         WorkerSlot &Worker, Lifecycle &LC);

  /// Irrevocable serial execution of \p Task as attempt \p A, or \p A's
  /// placeholder commit: locks *every* shard mutex (ascending), so it
  /// is a superset of any speculative committer's lock set and cannot
  /// deadlock against one.
  void commitSerial(const TaskFn &Task, Lifecycle::Attempt A,
                    WorkerSlot &Worker, Lifecycle &LC);

  /// Lazy shard acquisition (ShardBackend::acquire): publishes the
  /// hazard, copies the shard slice into the worker's view, and
  /// positions the shard's history window.
  void acquireShard(uint32_t S, WorkerSlot &Worker);

  /// Clears hazards and resets views/attempt scratch for every shard
  /// in \p Mask (end of attempt, any outcome).
  void releaseAttempt(WorkerSlot &Worker, uint64_t Mask);

  /// Ordered-mode turn handoff on the global clock: a waiter parks on
  /// its own condition variable and the committer whose tick makes it
  /// eligible wakes exactly that waiter.
  void waitForTurn(uint32_t Tid, WorkerSlot &Worker);
  void notifySuccessor(uint64_t CommitTime);

  /// Recycles the prefix of shard \p S's state chain that no worker
  /// hazard references, then (if configured) reclaims history records
  /// below the oldest surviving state's version. Caller holds the
  /// shard's CommitMutex, *after* publishing the successor state.
  void recycleShardStates(uint32_t S);

  /// Pops a pooled ShardState (or allocates). Caller holds the
  /// shard's CommitMutex.
  ShardState *allocState(Shard &Sh);

  const ObjectRegistry &Reg;
  ConflictDetector &Detector;
  ShardedConfig Config;
  uint32_t NumShards;

  /// The dense global commit clock: every commit (empty, single- or
  /// cross-shard, serial, placeholder) is exactly one fetch_add. Also
  /// the ordered-mode turn predicate.
  std::atomic<uint64_t> Clock{1};

  std::vector<Shard> Shards;
  std::vector<WorkerSlot> Workers;

  std::mutex OrderMutex; ///< Ordered-mode turn registry.
  std::unordered_map<uint64_t, std::condition_variable *> OrderWaiters;
  std::atomic<uint64_t> OrderBase{0}; ///< Clock at the start of run().

  std::vector<resilience::TaskFailure> Failures;

  /// Per-shard commit/abort counters (janus::obs metrics registry);
  /// empty when observability is off. Pre-created in the constructor
  /// so the hot path never touches the registry mutex.
  std::vector<obs::Counter *> ShardCommitCounters;
  std::vector<obs::Counter *> ShardAbortCounters;

  AuditTrace Trace;
  RunStats Stats;
};

} // namespace stm
} // namespace janus

#endif // JANUS_STM_SHARDEDRUNTIME_H
