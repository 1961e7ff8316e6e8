#include "janus/stm/Replay.h"

#include <algorithm>
#include <map>

using namespace janus;
using namespace janus::stm;

namespace {

/// The clock at which a step's outcome was decided — the execution
/// order key for the forced schedule.
uint64_t decisionClock(const ReplayStep &S) {
  if (S.Committed)
    return S.CommitTime;
  return S.AbortReason == obs::AbortReason::Conflict ? S.End : S.Begin;
}

} // namespace

bool janus::stm::buildReplaySchedule(const std::vector<obs::RecEvent> &Events,
                                     uint32_t Shards, ReplaySchedule &Out,
                                     std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = "replay schedule: " + Msg;
    return false;
  };
  if (Events.empty())
    return Fail("recording holds no events");

  struct AttemptInfo {
    bool HasBegin = false;
    uint64_t BeginClock = 0;
    std::vector<std::pair<uint32_t, uint64_t>> Stamps;
  };
  std::map<std::pair<uint32_t, uint32_t>, AttemptInfo> Attempts;
  std::vector<obs::RecEvent> Terminals;
  std::map<uint32_t, const obs::RecEvent *> CommitByTid;
  uint32_t MaxTid = 0;
  uint64_t MinCommit = ~uint64_t{0};

  for (const obs::RecEvent &E : Events) {
    const auto Kind = static_cast<obs::RecKind>(E.Kind);
    switch (Kind) {
    case obs::RecKind::Begin: {
      AttemptInfo &A = Attempts[{E.Tid, E.Attempt}];
      if (A.HasBegin)
        return Fail("duplicate begin for task " + std::to_string(E.Tid) +
                    " attempt " + std::to_string(E.Attempt));
      A.HasBegin = true;
      A.BeginClock = E.Clock;
      MaxTid = std::max(MaxTid, E.Tid);
      break;
    }
    case obs::RecKind::ShardAcquire:
      Attempts[{E.Tid, E.Attempt}].Stamps.emplace_back(E.Aux, E.Clock);
      break;
    case obs::RecKind::Commit:
      Terminals.push_back(E);
      MaxTid = std::max(MaxTid, E.Tid);
      MinCommit = std::min(MinCommit, E.Clock);
      break;
    case obs::RecKind::Abort:
      Terminals.push_back(E);
      MaxTid = std::max(MaxTid, E.Tid);
      break;
    case obs::RecKind::Escalation:
    case obs::RecKind::Cancel:
    case obs::RecKind::ServeTag:
      break; // Annotation events; not part of the schedule.
    }
  }
  if (MaxTid == 0)
    return Fail("recording holds no attempts");

  // Completeness: exactly one commit per task, dense commit clocks. A
  // hole in either means the ring wrapped (or the recorder sampled) —
  // replay requires a complete recording.
  std::vector<uint64_t> CommitClocks;
  for (const obs::RecEvent &E : Terminals) {
    if (static_cast<obs::RecKind>(E.Kind) != obs::RecKind::Commit)
      continue;
    auto [It, Inserted] = CommitByTid.emplace(E.Tid, &E);
    (void)It;
    if (!Inserted)
      return Fail("task " + std::to_string(E.Tid) +
                  " commits more than once");
    CommitClocks.push_back(E.Clock);
  }
  for (uint32_t T = 1; T <= MaxTid; ++T)
    if (!CommitByTid.count(T))
      return Fail("task " + std::to_string(T) +
                  " has no commit event (recording incomplete; replay "
                  "requires a complete recording)");
  std::sort(CommitClocks.begin(), CommitClocks.end());
  for (size_t I = 1; I < CommitClocks.size(); ++I)
    if (CommitClocks[I] != CommitClocks[I - 1] + 1)
      return Fail("commit clocks are not dense at " +
                  std::to_string(CommitClocks[I - 1]) + " -> " +
                  std::to_string(CommitClocks[I]) +
                  " (recording incomplete; replay requires a complete "
                  "recording)");

  const uint64_t ClockBase = MinCommit - 1;
  auto Normalize = [&](uint64_t Clock, const char *What,
                       uint64_t *Norm) -> bool {
    if (Clock < ClockBase)
      return Fail(std::string(What) + " clock " + std::to_string(Clock) +
                  " precedes the derived clock base " +
                  std::to_string(ClockBase));
    *Norm = Clock - ClockBase;
    return true;
  };

  Out.Steps.clear();
  Out.Shards = Shards ? Shards : 1;
  Out.MaxTid = MaxTid;
  Out.CommitRef.clear();

  for (const obs::RecEvent &E : Terminals) {
    ReplayStep S;
    S.Tid = E.Tid;
    S.Attempt = E.Attempt;
    S.Seq = E.Seq;
    const bool IsCommit =
        static_cast<obs::RecKind>(E.Kind) == obs::RecKind::Commit;
    const auto Mode = static_cast<CommitMode>(E.Mode);
    AttemptInfo *A = nullptr;
    auto It = Attempts.find({E.Tid, E.Attempt});
    if (It != Attempts.end())
      A = &It->second;

    if (IsCommit) {
      S.Committed = true;
      S.Mode = E.Mode;
      if (!Normalize(E.Clock, "commit", &S.CommitTime))
        return false;
      if (Mode == CommitMode::Serial || Mode == CommitMode::Placeholder) {
        // Executed (or skipped) under the full commit lock: its entry
        // is the state the predecessor published.
        S.Begin = S.CommitTime - 1;
      } else {
        if (!A || !A->HasBegin)
          return Fail("task " + std::to_string(E.Tid) + " attempt " +
                      std::to_string(E.Attempt) +
                      " committed without a begin event (recording "
                      "incomplete)");
        if (!Normalize(A->BeginClock, "begin", &S.Begin))
          return false;
      }
    } else {
      S.Committed = false;
      S.AbortReason = static_cast<obs::AbortReason>(E.Aux);
      if (!A || !A->HasBegin)
        return Fail("task " + std::to_string(E.Tid) + " attempt " +
                    std::to_string(E.Attempt) +
                    " aborted without a begin event (recording incomplete)");
      if (!Normalize(A->BeginClock, "begin", &S.Begin))
        return false;
      if (S.AbortReason == obs::AbortReason::Conflict) {
        if (!Normalize(E.Clock, "detect-end", &S.End))
          return false;
        if (S.End < S.Begin)
          return Fail("task " + std::to_string(E.Tid) + " attempt " +
                      std::to_string(E.Attempt) +
                      " detected a conflict before its own begin");
      }
    }
    if (A) {
      for (auto &[Shard, Stamp] : A->Stamps) {
        uint64_t Norm = 0;
        if (!Normalize(Stamp, "shard-acquire", &Norm))
          return false;
        if (Shard >= Out.Shards)
          return Fail("shard-acquire names shard " + std::to_string(Shard) +
                      " but the recording has " + std::to_string(Out.Shards) +
                      " shards");
        S.ShardStamps.emplace_back(Shard, Norm);
      }
      std::sort(S.ShardStamps.begin(), S.ShardStamps.end());
    }
    Out.Steps.push_back(std::move(S));
  }

  // Commits sort before aborts at the same decision clock: a conflict
  // abort with End == k conflicted with commit k, so its replay needs
  // the state at clock k to exist first.
  std::sort(Out.Steps.begin(), Out.Steps.end(),
            [](const ReplayStep &L, const ReplayStep &R) {
              const uint64_t KL = decisionClock(L), KR = decisionClock(R);
              if (KL != KR)
                return KL < KR;
              if (L.Committed != R.Committed)
                return L.Committed;
              return L.Seq < R.Seq;
            });

  for (const ReplayStep &S : Out.Steps)
    if (S.Committed)
      Out.CommitRef.emplace_back(S.Tid, S.CommitTime);
  return true;
}
