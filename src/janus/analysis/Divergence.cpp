#include "janus/analysis/Divergence.h"

#include <algorithm>
#include <map>

using namespace janus;
using namespace janus::analysis;

/// The clock from which recorded attempt \p S observed \p Loc: the
/// acquisition stamp of the shard owning it, or the attempt's begin
/// clock when the recording carries no shard stamps.
static uint64_t windowStart(const stm::ReplayStep &S, const Location &Loc,
                            uint32_t Shards) {
  const uint32_t Shard = shardIndexOf(Loc, Shards);
  for (const auto &[Sh, Stamp] : S.ShardStamps)
    if (Sh == Shard)
      return Stamp;
  return S.Begin;
}

std::string DivergenceReport::summary() const {
  if (clean())
    return "replay matches the recording: commit order and dense clock "
           "sequence are bit-identical";
  std::string Out = std::to_string(Findings.size()) + " divergence finding" +
                    (Findings.size() == 1 ? "" : "s") + ":";
  for (const std::string &F : Findings)
    Out += "\n  - " + F;
  return Out;
}

DivergenceReport
janus::analysis::checkDivergence(const stm::ReplaySchedule &Sched,
                                 const stm::AuditTrace &Replayed) {
  DivergenceReport R;
  auto Finding = [&R](std::string Msg) { R.Findings.push_back(std::move(Msg)); };

  if (!Replayed.Recorded) {
    Finding("replay produced no trace (RecordTrace was off); nothing to "
            "compare against the recording");
    return R;
  }

  // The replay path appends trace events in schedule order, so the
  // committed subsequence *is* the replayed commit order and the
  // aborted subsequence parallels the schedule's conflict-abort steps.
  std::vector<const stm::TraceEvent *> Commits, Aborts;
  for (const stm::TraceEvent &E : Replayed.Events)
    (E.Committed ? Commits : Aborts).push_back(&E);

  // Dense replayed clocks 1..N.
  for (size_t I = 0; I != Commits.size(); ++I)
    if (Commits[I]->CommitTime != I + 1)
      Finding("replayed commit #" + std::to_string(I + 1) + " (task " +
              std::to_string(Commits[I]->Tid) + ") carries clock " +
              std::to_string(Commits[I]->CommitTime) +
              "; the dense sequence requires " + std::to_string(I + 1));

  // Bit-for-bit commit order: the recorded (task, clock) reference
  // sequence against the replayed one.
  if (Commits.size() != Sched.CommitRef.size()) {
    Finding("replay committed " + std::to_string(Commits.size()) +
            " transactions; the recording holds " +
            std::to_string(Sched.CommitRef.size()));
  } else {
    for (size_t I = 0; I != Commits.size(); ++I) {
      const auto &[RefTid, RefClock] = Sched.CommitRef[I];
      if (Commits[I]->Tid != RefTid || Commits[I]->CommitTime != RefClock) {
        Finding("commit order diverges at position " + std::to_string(I + 1) +
                ": recorded task " + std::to_string(RefTid) + " @ clock " +
                std::to_string(RefClock) + ", replayed task " +
                std::to_string(Commits[I]->Tid) + " @ clock " +
                std::to_string(Commits[I]->CommitTime));
        break; // One desynchronization cascades; report the first.
      }
    }
  }

  // Conflict-abort consistency. Pair the schedule's conflict-abort
  // steps with the replayed aborted events positionally (the replayer
  // emits them in schedule order, skipping non-conflict aborts).
  std::vector<const stm::ReplayStep *> ConflictSteps;
  for (const stm::ReplayStep &S : Sched.Steps)
    if (!S.Committed && S.AbortReason == obs::RecAbortConflict)
      ConflictSteps.push_back(&S);
  if (ConflictSteps.size() != Aborts.size()) {
    Finding("the recording holds " + std::to_string(ConflictSteps.size()) +
            " conflict aborts; replay re-executed " +
            std::to_string(Aborts.size()));
    return R;
  }
  for (size_t I = 0; I != ConflictSteps.size(); ++I) {
    const stm::ReplayStep &S = *ConflictSteps[I];
    const stm::TraceEvent &E = *Aborts[I];
    if (E.Tid != S.Tid) {
      Finding("conflict abort #" + std::to_string(I + 1) +
              " was recorded for task " + std::to_string(S.Tid) +
              " but replayed as task " + std::to_string(E.Tid));
      continue;
    }
    if (!E.Log || E.Log->empty()) {
      Finding("task " + std::to_string(S.Tid) + " attempt " +
              std::to_string(S.Attempt) +
              " conflict-aborted when recorded, but its replayed attempt "
              "logged no shared access — no conflict is possible");
      continue;
    }
    // Footprint overlap against the logs committed inside the recorded
    // detection window, per location. Detection decomposes per location
    // (§5.3), so disjoint footprints cannot conflict under any
    // commutativity table. A location's window opens at the
    // acquisition stamp of the shard that owns it, not at the attempt's
    // begin clock: a committer bumps the global clock before it
    // publishes its shard state, so an attempt can begin at clock k yet
    // acquire the state from before commit k, and conflict with it.
    std::map<Location, uint64_t> From;
    uint64_t WindowBegin = S.Begin;
    for (const stm::LogEntry &LE : *E.Log) {
      const uint64_t B = windowStart(S, LE.Loc, Sched.Shards);
      From.emplace(LE.Loc, B);
      WindowBegin = std::min(WindowBegin, B);
    }
    const uint64_t WindowEnd = std::min<uint64_t>(S.End, Commits.size());
    bool Overlap = false;
    for (uint64_t K = WindowBegin + 1; K <= WindowEnd && !Overlap; ++K) {
      const stm::TxLogRef &Their = Commits[K - 1]->Log;
      if (!Their)
        continue;
      for (const stm::LogEntry &LE : *Their) {
        auto It = From.find(LE.Loc);
        if (It != From.end() && It->second < K) {
          Overlap = true;
          break;
        }
      }
    }
    if (!Overlap)
      Finding("task " + std::to_string(S.Tid) + " attempt " +
              std::to_string(S.Attempt) +
              " conflict-aborted when recorded, but its replayed footprint "
              "is disjoint from every log committed in its detection "
              "window (" +
              std::to_string(WindowBegin) + ", " + std::to_string(WindowEnd) +
              "] — the recorded conflict cannot reproduce");
  }
  return R;
}
