//===----------------------------------------------------------------------===//
///
/// \file
/// Forced-schedule reconstruction from flight-recorder streams.
///
/// A `.jrec` dump (obs/Recorder.h) is a flat event stream; replay
/// needs a *schedule*: per attempt, where it began on the dense clock,
/// which shards it acquired at which stamps, and how it ended. This
/// header turns the one into the other — with strict completeness
/// validation, because a deterministic re-execution is only sound when
/// the recording holds *every* attempt of *every* task:
///
///  - every task 1..MaxTid commits exactly once;
///  - the commit clocks are dense (a hole means the ring wrapped or
///    the recorder sampled);
///  - every speculative attempt's Begin event is present.
///
/// Clock values are normalized to the simulator's base: commits 1..N,
/// begins 0-based (the recording engines start their clock at 1; the
/// base is derived, not assumed, so sim-recorded streams replay too).
///
/// `SimRuntime` consumes the schedule via `SimConfig::Replay`: it
/// executes each step against a reconstructed entry snapshot instead
/// of making scheduling decisions of its own, and the post-hoc
/// divergence check (analysis/Divergence.h) compares the result
/// against the recording bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_STM_REPLAY_H
#define JANUS_STM_REPLAY_H

#include "janus/obs/Recorder.h"
#include "janus/stm/AuditTrace.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace janus {
namespace stm {

/// One attempt to re-execute, with normalized clock coordinates.
struct ReplayStep {
  uint32_t Tid = 0;
  uint32_t Attempt = 0;
  bool Committed = false;
  /// Normalized begin clock (0-based): the attempt observed exactly
  /// the commits with normalized CommitTime <= Begin. For serial and
  /// placeholder commits (which execute under the commit lock) this is
  /// CommitTime - 1.
  uint64_t Begin = 0;
  /// Normalized commit clock (1..N); 0 for aborted attempts.
  uint64_t CommitTime = 0;
  /// Conflict aborts only: the normalized clock when detection flagged
  /// the conflict — the upper bound of the window (Begin, End] the
  /// attempt conflicted with.
  uint64_t End = 0;
  /// Aborted attempts: why they aborted.
  obs::AbortReason AbortReason{};
  /// Committed attempts: stm::CommitMode raw value.
  uint8_t Mode = 0;
  /// Recorder sequence number (tie-break for steps sharing a clock).
  uint64_t Seq = 0;
  /// Sharded recordings: (shard, normalized acquisition stamp),
  /// ascending by shard. Empty for unsharded attempts.
  std::vector<std::pair<uint32_t, uint64_t>> ShardStamps;
};

/// The full forced schedule, ordered for single-pass execution: each
/// step sorted by the clock at which its outcome was decided (commit
/// time for commits, detection end for conflict aborts, begin for the
/// rest), ties broken by recorder sequence.
struct ReplaySchedule {
  std::vector<ReplayStep> Steps;
  uint32_t Shards = 1;  ///< Shard count of the recording engine.
  uint32_t MaxTid = 0;  ///< Task count (== number of commits).
  /// The recorded committed (Tid, normalized CommitTime) sequence in
  /// commit order — the bit-for-bit reference for divergence checking.
  std::vector<std::pair<uint32_t, uint64_t>> CommitRef;
};

/// Builds a forced schedule from a recorded event stream. \returns
/// false (with \p Err set) when the stream is incomplete or
/// inconsistent — a wrapped ring, a sampled recorder, a missing begin,
/// or non-dense commit clocks all reject here rather than replaying
/// wrong.
bool buildReplaySchedule(const std::vector<obs::RecEvent> &Events,
                         uint32_t Shards, ReplaySchedule &Out,
                         std::string *Err);

} // namespace stm
} // namespace janus

#endif // JANUS_STM_REPLAY_H
