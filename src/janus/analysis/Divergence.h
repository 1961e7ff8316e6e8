//===----------------------------------------------------------------------===//
///
/// \file
/// Replay divergence detection (`janus replay`).
///
/// A flight-recorder dump (`.jrec`) fixes a production run's schedule:
/// which attempt committed at which dense clock, which aborted on a
/// conflict detected at which clock, and which shard states each
/// attempt entered from. Replay re-executes that schedule in the
/// deterministic simulator; this checker then proves — or refutes —
/// that the re-execution reproduced the recording:
///
///   - the replayed commit clocks are dense 1..N (the replay did not
///     drop or duplicate a commit slot);
///   - the replayed (task, commit clock) sequence is bit-identical to
///     the recorded one (`ReplaySchedule::CommitRef`) — Theorem 4.1's
///     total order, reproduced exactly;
///   - every recorded conflict abort is *possible*: the re-executed
///     attempt's log shares at least one location with the union of
///     the logs committed in its recorded detection window
///     (stamp, detect-end], where each location's window opens at the
///     acquisition stamp of the shard that owns it (the begin clock
///     when the recording has no stamps). Conflict detection
///     decomposes per location (paper §5.3), so a recorded conflict
///     with a provably disjoint
///     footprint cannot have happened against this state history —
///     one-sided evidence that recording and replay disagree, sound
///     under any learned commutativity table (non-commuting implies
///     overlapping, never the converse).
///
/// Any finding means the recording does not describe the re-executed
/// program — a version-skewed binary, a truncated dump, or genuine
/// nondeterminism in a task body. `janus replay` exits non-zero on it.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_ANALYSIS_DIVERGENCE_H
#define JANUS_ANALYSIS_DIVERGENCE_H

#include "janus/stm/AuditTrace.h"
#include "janus/stm/Replay.h"

#include <string>
#include <vector>

namespace janus {
namespace analysis {

/// Outcome of the recording-vs-replay comparison.
struct DivergenceReport {
  /// One human-readable line per divergence; empty = bit-identical.
  std::vector<std::string> Findings;

  bool clean() const { return Findings.empty(); }

  /// Multi-line human-readable report.
  std::string summary() const;
};

/// Compares the replayed trace of \p Sched (recorded with RecordTrace
/// by the simulator's forced-schedule path) against the recording
/// itself. Execution problems surfaced through
/// `SimConfig::ReplayProblems` are the caller's to merge; this checks
/// only the trace-level invariants.
DivergenceReport checkDivergence(const stm::ReplaySchedule &Sched,
                                 const stm::AuditTrace &Replayed);

} // namespace analysis
} // namespace janus

#endif // JANUS_ANALYSIS_DIVERGENCE_H
