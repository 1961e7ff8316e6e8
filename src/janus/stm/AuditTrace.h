//===----------------------------------------------------------------------===//
///
/// \file
/// Execution traces for after-the-fact (hindsight) auditing.
///
/// The runtimes can record, per transaction attempt, the information a
/// verifier needs to re-derive the run's correctness claims from first
/// principles: the begin/commit timestamps that induce the
/// happens-before order, the operation log, and the entry snapshot
/// (an O(1) persistent copy). `janus::analysis` consumes this trace to
/// (a) replay the committed schedule against a reference sequential
/// execution (Theorem 4.1 ground truth) and (b) re-examine every pair
/// of concurrently committed transactions the detector admitted.
///
/// Recording is off by default; the runtimes pay nothing for it unless
/// `RecordTrace` is set in their configuration.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_STM_AUDITTRACE_H
#define JANUS_STM_AUDITTRACE_H

#include "janus/stm/Log.h"
#include "janus/stm/Snapshot.h"
#include "janus/support/Location.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace janus {
namespace stm {

/// How a committed attempt reached its commit point.
enum class CommitMode : uint8_t {
  Speculative, ///< Normal optimistic execution + conflict detection.
  Serial,      ///< Irrevocable serial fallback under the commit lock.
  Placeholder, ///< Empty commit for a permanently failed task; keeps
               ///< the commit clock dense and ordered successors
               ///< unblocked. Carries no operations.
};

/// One transaction attempt as the runtime saw it.
struct TraceEvent {
  uint32_t Tid = 0; ///< 1-based task id.
  /// Clock value at CREATETRANSACTION: the attempt observed exactly the
  /// commits with CommitTime <= BeginTime. Under the sharded engine
  /// this is the *minimum* over ShardBegins — per shard, the attempt
  /// observed exactly the commits with CommitTime <= that shard's
  /// stamp; the auditor refines with ShardBegins when present.
  uint64_t BeginTime = 0;
  /// Clock value assigned at COMMIT; 0 for aborted attempts.
  uint64_t CommitTime = 0;
  bool Committed = false;
  TxLogRef Log;   ///< The attempt's operation log.
  Snapshot Entry; ///< SharedSnapshot at begin (O(1) persistent copy).
  CommitMode Mode = CommitMode::Speculative;
  /// Threaded engine only: (shard index, global clock stamp at that
  /// shard's lazy acquisition), ascending by shard index. A shard's
  /// stamp is the acquisition-time begin point for every location the
  /// attempt touched in that shard. Empty for the simulator and for
  /// empty-log fast-path commits (which acquired no shard).
  std::vector<std::pair<uint32_t, uint64_t>> ShardBegins;

  /// The begin point governing \p Loc's observations: its shard's
  /// acquisition stamp, or BeginTime when the event has no stamps (so
  /// the refinement degenerates to the classic single-clock rule).
  /// \p NumShards is AuditTrace::Shards.
  uint64_t beginTimeFor(const Location &Loc, uint32_t NumShards) const {
    if (ShardBegins.empty())
      return BeginTime;
    uint32_t S = shardIndexOf(Loc, NumShards);
    for (const auto &[Shard, Stamp] : ShardBegins)
      if (Shard == S)
        return Stamp;
    // A location outside every acquired shard was never accessed by
    // this attempt; fall back to the conservative global begin.
    return BeginTime;
  }
};

/// A full recorded run: initial state, every attempt, final state.
struct AuditTrace {
  bool Recorded = false; ///< True once a runtime populated the trace.
  Snapshot Initial;      ///< Shared state when run() started.
  Snapshot Final;        ///< Shared state when run() returned.
  std::vector<TraceEvent> Events; ///< In recording order.
  /// Shard count of the recording engine (power of two); 1 for the
  /// simulator, except when it replays a recording (then the
  /// recording's count). Lets the auditor re-derive each location's
  /// shard, and with it the per-location begin stamp.
  uint32_t Shards = 1;

  /// \returns the committed events sorted by commit time — the schedule
  /// the run claims is serializable.
  std::vector<const TraceEvent *> committedInOrder() const {
    std::vector<const TraceEvent *> Out;
    for (const TraceEvent &E : Events)
      if (E.Committed)
        Out.push_back(&E);
    std::sort(Out.begin(), Out.end(),
              [](const TraceEvent *A, const TraceEvent *B) {
                return A->CommitTime < B->CommitTime;
              });
    return Out;
  }

  /// \returns the number of aborted attempts in the trace.
  size_t abortedCount() const {
    size_t N = 0;
    for (const TraceEvent &E : Events)
      N += E.Committed ? 0 : 1;
    return N;
  }
};

} // namespace stm
} // namespace janus

#endif // JANUS_STM_AUDITTRACE_H
