//===----------------------------------------------------------------------===//
///
/// \file
/// The attempt lifecycle of the Figure 7 protocol, shared by both
/// engines.
///
/// A task runs as a sequence of attempts. A speculative attempt begins,
/// then commits or aborts; an aborted task is retried after a backoff,
/// escalated to the irrevocable serial fallback, or given up with an
/// empty placeholder commit. `ShardedRuntime` (real threads, shard
/// locks) and `SimRuntime` (a virtual-time event queue) differ only in
/// how they schedule attempts. Each calls this module once per
/// transition, and the module does two jobs:
///
///  - **Decides the next step.** It consults the `FaultPlan` and the
///    `ContentionManager`, bumps the `RunStats` counters and builds the
///    `TaskFailure` of a task that gives up.
///  - **Emits the transition once**, to every consumer that is on: the
///    flight recorder (obs::Recorder), the audit trace (AuditTrace),
///    the obs span or instant, and the obs latency histograms.
///
/// The events each transition writes:
///
///   transition   recorder                        audit trace   obs
///   begin        Begin                           -             -
///   abort        ShardAcquire*, Abort(reason)    aborted       `abort` instant
///   escalate     Escalation(aux = CM action)     -             -
///   cancel       Cancel(aux = CancelReason)      -             -
///   backoff      -                               -             `backoff` span
///   commit       ShardAcquire*, Commit(mode)     committed     `commit` or
///                                                              `serial` span
///
/// ShardAcquire events belong to speculative attempts only. Serial and
/// placeholder executions write no Begin: replay derives their entry
/// from the commit clock.
///
/// Attempt numbers count every execution of a task: a serial execution
/// is attempt aborts + throws + 1, and the fault plan applies to it
/// (`throw@` and `delay@`; it cannot abort). A placeholder commit
/// carries the number of attempts made, which is also its
/// `TaskFailure::Attempts`.
///
/// With the observer, the recorder and `RecordTrace` all off, a
/// transition allocates nothing and reads no clock for events.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_STM_LIFECYCLE_H
#define JANUS_STM_LIFECYCLE_H

#include "janus/obs/Obs.h"
#include "janus/obs/Recorder.h"
#include "janus/resilience/Cancellation.h"
#include "janus/resilience/ContentionManager.h"
#include "janus/resilience/FaultPlan.h"
#include "janus/stm/AuditTrace.h"
#include "janus/stm/Stats.h"
#include "janus/stm/TxContext.h"

#include <string>
#include <utility>
#include <vector>

namespace janus {
namespace stm {

/// What the audit trace records of an attempt that ends. Holds
/// pointers only, so building one costs nothing; the pointees are read
/// during the call that takes it.
struct AttemptState {
  const TxLogRef *Log = nullptr; ///< The attempt's log.
  /// Threaded engine: the shard views, indexed by shard, and the mask
  /// of the ones the attempt acquired.
  const ShardBackend::View *Views = nullptr;
  uint64_t Mask = 0;
  /// Simulator: the whole-space entry snapshot and, on replay, the
  /// recorded shard stamps.
  const Snapshot *Entry = nullptr;
  const std::vector<std::pair<uint32_t, uint64_t>> *Stamps = nullptr;
};

/// The attempt lifecycle of one run(). See the file header.
class Lifecycle {
public:
  /// One attempt's coordinates and emission gates, fixed when it is
  /// created.
  struct Attempt {
    uint32_t Tid = 0;
    uint32_t No = 0;  ///< 1-based attempt number (see the file header).
    unsigned Lane = 0; ///< Executor lane: worker slot or virtual core.
    CommitMode Mode = CommitMode::Speculative;
    uint64_t BeginClock = 0; ///< Dense clock at CREATETRANSACTION.
    /// Obs time the attempt started (base of its commit latency);
    /// set by the engine.
    double StartTs = 0.0;
    /// Set iff the task is sampled; read it through obs::janusObs.
    obs::Observer *Obs = nullptr;
    obs::Recorder *Rec = nullptr; ///< Set iff the task is recorded.

    /// Wall-clock obs time, or 0 when unsampled. The threaded engine's
    /// timestamps; the simulator passes virtual time instead.
    double now() const {
      obs::Observer *O = obs::janusObs(Obs);
      return O ? O->nowUs() : 0.0;
    }
  };

  /// What a task does after an attempt that did not commit.
  struct Next {
    enum class Step : uint8_t {
      Retry,       ///< Re-run speculatively after BackoffMicros.
      Serial,      ///< Run Then irrevocably.
      Placeholder, ///< The task failed: commit Then, an empty log.
    };
    Step Act = Step::Retry;
    uint64_t BackoffMicros = 0;
    Attempt Then; ///< The serial or placeholder attempt.
  };

  /// \p Config is the engine's configuration (ShardedConfig or
  /// SimConfig); the lifecycle reads its RecordTrace, Resilience,
  /// Faults, Cancel, Obs and Rec fields, which must outlive it.
  /// \p Writers is the number of threads that call in concurrently:
  /// the threaded engine's worker slots, or 1 for the simulator, whose
  /// one event loop serves every virtual core. Trace and failure
  /// buffers and recorder lanes are per writer.
  template <class EngineConfig>
  Lifecycle(const EngineConfig &Config, RunStats &Stats, size_t NumTasks,
            unsigned Writers)
      : Lifecycle(Config.Resilience, Config.Faults, Config.Cancel,
                  Config.Obs, Config.Rec, Config.RecordTrace, Stats,
                  NumTasks, Writers) {}

  Lifecycle(const Lifecycle &) = delete;
  Lifecycle &operator=(const Lifecycle &) = delete;

  // --- Fault plan and cancellation. Each injected fault bumps
  // --- RunStats::FaultsInjected.

  /// Runs \p Task's body as attempt \p A, raising the plan's injected
  /// exception in its place at a `throw@` coordinate. \returns false,
  /// with the exception's message in \p Msg, when the body threw.
  bool runBody(const TaskFn &Task, TxContext &Tx, const Attempt &A,
               std::string &Msg);
  /// Whether the plan force-aborts speculative attempt \p A.
  bool forceAbort(const Attempt &A);
  /// The plan's commit delay for \p A (0 = none).
  uint64_t commitDelay(const Attempt &A);
  /// The plan's stall between cross-shard lock acquisitions for \p A.
  uint64_t acquireDelay(const Attempt &A);
  /// Task \p Tid's cancellation state (None without a table).
  resilience::CancelReason cancelled(uint32_t Tid) const {
    return Cancel ? Cancel->status(Tid) : resilience::CancelReason::None;
  }

  // --- Transitions.

  /// Creates attempt \p No of task \p Tid on \p Lane. A speculative
  /// attempt writes its Begin event at \p Clock.
  Attempt begin(unsigned Lane, uint32_t Tid, uint32_t No, uint64_t Clock,
                CommitMode Mode = CommitMode::Speculative);

  /// Speculative attempt \p A ended without committing, for reason
  /// \p Why: emits the abort and decides the next step. \p Ts is the
  /// obs time of the abort; \p Clock is the engine's dense clock now
  /// (the detect-end stamp of a conflict, and the stamp of an
  /// escalation or cancellation); \p Msg is a throw's message.
  Next abort(const Attempt &A, obs::AbortReason Why, const AttemptState &S,
             double Ts, uint64_t Clock, const std::string &Msg = {});

  /// The emission half of abort(), for replay, which decides nothing.
  void recordAbort(const Attempt &A, obs::AbortReason Why,
                   const AttemptState &S, double Ts, uint64_t Clock);

  /// Task \p Tid's token fired after \p AttemptsMade attempts: fails
  /// the task. \returns the placeholder attempt to commit.
  Attempt cancel(unsigned Lane, uint32_t Tid, uint32_t AttemptsMade,
                 resilience::CancelReason Why, uint64_t Clock);

  /// Serial attempt \p A threw: fails the task and turns \p A into its
  /// placeholder.
  void serialThrew(Attempt &A, const std::string &Msg, uint64_t Clock);

  /// Records task \p A.Tid as failed after \p A.No attempts.
  void fail(const Attempt &A, std::string Reason,
            resilience::TaskFailure::Kind Kind =
                resilience::TaskFailure::Kind::Exception);

  /// The engine waited \p Dur of the \p Requested backoff after
  /// attempt \p A, starting at \p Ts.
  void backoff(const Attempt &A, double Ts, double Dur, uint64_t Requested);

  /// Attempt \p A committed at dense clock \p CommitTime; its commit
  /// step ran from obs time \p Ts to \p End.
  void commit(const Attempt &A, uint64_t CommitTime, const AttemptState &S,
              double Ts, double End);

  /// End of run: appends the recorded trace events, writer by writer,
  /// to \p Trace and \returns the failures sorted by task id.
  std::vector<resilience::TaskFailure> finish(AuditTrace &Trace);

private:
  Lifecycle(const resilience::ResilienceConfig &Resilience,
            const resilience::FaultPlan &Faults,
            const resilience::CancellationTable *Cancel, obs::Observer *Obs,
            obs::Recorder *Rec, bool RecordTrace, RunStats &Stats,
            size_t NumTasks, unsigned Writers);

  /// Per-writer buffers, merged by finish().
  struct alignas(CacheLineSize) WriterBuffers {
    std::vector<TraceEvent> Events;
    std::vector<resilience::TaskFailure> Failures;
  };

  unsigned writer(unsigned Lane) const { return Buffers.size() > 1 ? Lane : 0; }

  /// Writes attempt \p A's terminal recorder event (after its shard
  /// acquisitions) and its audit-trace record, walking the shard views
  /// once for both.
  void emitEnd(const Attempt &A, const AttemptState &S, obs::RecKind Kind,
               uint64_t Clock, uint32_t Aux, uint64_t CommitTime);

  /// Writes the Escalation event for \p A's CM action \p Act.
  void escalate(const Attempt &A,
                resilience::ContentionManager::Action Act, uint64_t Clock);

  const resilience::FaultPlan &Faults;
  const resilience::CancellationTable *Cancel;
  obs::Observer *Obs;
  obs::Recorder *Rec;
  bool RecordTrace;
  RunStats &Stats;
  resilience::PressureBoard *Board;
  resilience::ContentionManager CM;
  std::vector<WriterBuffers> Buffers;
};

} // namespace stm
} // namespace janus

#endif // JANUS_STM_LIFECYCLE_H
