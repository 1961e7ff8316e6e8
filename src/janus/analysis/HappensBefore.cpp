#include "janus/analysis/HappensBefore.h"

#include "janus/abstraction/AbstractSeq.h"
#include "janus/abstraction/Symbolize.h"
#include "janus/conflict/Decompose.h"
#include "janus/conflict/OnlineConflict.h"
#include "janus/conflict/SequenceDetector.h"
#include "janus/stm/Snapshot.h"

#include <algorithm>

using namespace janus;
using namespace janus::analysis;
using stm::TraceEvent;

namespace {

/// True when the two per-location sequences overlap conflictingly at
/// the write-set level (at least one side mutates). Read-read overlap
/// is not a race.
bool hasWriteInvolvement(const symbolic::LocOpSeq &A,
                         const symbolic::LocOpSeq &B) {
  auto Mutates = [](const symbolic::LocOpSeq &S) {
    return std::any_of(S.begin(), S.end(), [](const symbolic::LocOp &Op) {
      return Op.Kind != symbolic::LocOpKind::Read;
    });
  };
  return Mutates(A) || Mutates(B);
}

/// Re-tests a concretely non-commuting pair under the *semantic*
/// interpretation of the logs: each write is re-derived (symbolically)
/// from the values the transaction actually read, instead of replaying
/// the logged constant. A max-update logged as [R(1), W(2)] becomes
/// [R, W(read+1)], and two such updates commute to entry+2 in either
/// order even though the concrete constants do not. When a relaxed
/// object's pair commutes in this sense, the concrete divergence is
/// purely the stale-value anomaly the tolerate-RAW/WAW annotation
/// sanctions — the same standard the trained detector applied when it
/// admitted the transaction.
bool commutesSemantically(const Value &EntryVal,
                          const symbolic::LocOpSeq &Mine,
                          const symbolic::LocOpSeq &Theirs,
                          symbolic::ChecksSpec Checks) {
  using namespace symbolic;
  abstraction::AbstractResult M = abstraction::abstractSequence(
      abstraction::symbolize(Mine), /*UseKleene=*/false);
  abstraction::AbstractResult T = abstraction::abstractSequence(
      abstraction::symbolize(Theirs), /*UseKleene=*/false);
  SymLocSeq TheirsSeq = T.Seq.expandOnce();
  for (SymLocOp &Op : TheirsSeq)
    if (Op.Kind != LocOpKind::Read)
      Op.Operand = Op.Operand.mapSymbols([](SymId S) {
        return S == EntrySym ? S : S + conflict::TheirParamOffset;
      });
  std::optional<Condition> Cond =
      commutativityCondition(M.Seq.expandOnce(), TheirsSeq, Checks);
  if (!Cond)
    return false;
  Bindings B = M.Binds;
  for (const auto &[Sym, Val] : T.Binds)
    B[Sym + conflict::TheirParamOffset] = Val;
  B[EntrySym] = EntryVal;
  std::optional<bool> Commutes = Cond->evaluate(B);
  return Commutes && *Commutes;
}

} // namespace

HappensBeforeReport
analysis::checkHappensBefore(const stm::AuditTrace &Trace,
                             const ObjectRegistry &Reg) {
  HappensBeforeReport Report;
  if (!Trace.Recorded)
    return Report;
  Report.Checked = true;

  std::vector<const TraceEvent *> Committed = Trace.committedInOrder();
  Report.CommittedTx = Committed.size();

  // --- Vector clocks (Fidge/Mattern, one event per transaction). ------
  // PrefixVC[k] is the join of the clocks of the first k committed
  // transactions; a transaction beginning at B observed exactly the
  // commits with CommitTime <= B, so its clock is the prefix join up to
  // that point plus its own component.
  std::vector<VectorClock> Clocks(Committed.size());
  std::vector<VectorClock> PrefixVC(Committed.size() + 1);
  for (size_t I = 0; I != Committed.size(); ++I) {
    const TraceEvent &E = *Committed[I];
    // Largest k such that Committed[k-1].CommitTime <= E.BeginTime.
    size_t K = static_cast<size_t>(
        std::upper_bound(Committed.begin(), Committed.end(), E.BeginTime,
                         [](uint64_t T, const TraceEvent *Ev) {
                           return T < Ev->CommitTime;
                         }) -
        Committed.begin());
    JANUS_ASSERT(K <= I, "observed a commit that had not happened yet");
    Clocks[I] = PrefixVC[K];
    Clocks[I].raise(E.Tid, 1);
    PrefixVC[I + 1] = PrefixVC[I];
    PrefixVC[I + 1].join(Clocks[I]);
  }

  // --- Race scan. -----------------------------------------------------
  // For each committed transaction, gather its concurrent predecessors
  // (the window the detector admitted it against) and re-examine every
  // shared location.
  conflict::WindowJoin Join;
  for (size_t J = 0; J != Committed.size(); ++J) {
    const TraceEvent &Ej = *Committed[J];
    // Concurrent predecessors form a suffix of [0, J): commits are
    // totally ordered, so once a predecessor's commit is observed by
    // Ej's begin, all earlier ones are too.
    std::vector<size_t> Window;
    for (size_t I = J; I-- > 0;) {
      if (happensBefore(Clocks[I], Clocks[J]))
        break;
      JANUS_ASSERT(concurrent(Clocks[I], Clocks[J]),
                   "later commit ordered before earlier begin");
      Window.push_back(I);
    }
    if (Window.empty())
      continue;
    std::reverse(Window.begin(), Window.end()); // Commit order.
    Report.ConcurrentPairs += Window.size();

    // Concatenated per-location sequences of the window, in commit
    // order — the exact conflict history DETECTCONFLICTS saw at Ej's
    // final (admitting) check.
    std::vector<stm::TxLogRef> WindowLogs;
    WindowLogs.reserve(Window.size());
    for (size_t I : Window)
      WindowLogs.push_back(Committed[I]->Log);
    Join.join(*Ej.Log, WindowLogs);

    for (const stm::TxLog::Run *R : Join.shared()) {
      const Location &Loc = Join.loc(*R);
      const symbolic::LocOpSeq &MineSeq = Join.mine(*R);
      // Per-location begin refinement. Under the sharded engine Ej's
      // begin point differs per location (the owning shard's
      // acquisition stamp): a window member that committed at or
      // before that stamp was *observed* by Ej for this location — a
      // happens-before predecessor there, not a concurrent peer — so
      // its operations leave this location's conflict history. When
      // Ej has one begin point for every location (no stamps, or a
      // single acquired shard) beginTimeFor returns BeginTime, which
      // every window member's commit already exceeds: no-op.
      const uint64_t LocBegin = Ej.beginTimeFor(Loc, Trace.Shards);
      const symbolic::LocOpSeq *TheirSeq = &Join.theirs(*R);
      symbolic::LocOpSeq Refined;
      if (LocBegin != Ej.BeginTime) {
        for (size_t I : Window) {
          if (Committed[I]->CommitTime <= LocBegin)
            continue;
          const stm::TxLog &Their = *Committed[I]->Log;
          if (const stm::TxLog::Run *TR = Their.find(Loc))
            Their.appendOps(*TR, Refined);
        }
        if (Refined.empty())
          continue;
        TheirSeq = &Refined;
      }
      if (!hasWriteInvolvement(MineSeq, *TheirSeq))
        continue;

      RaceFinding F;
      F.Loc = Loc;
      F.LocName = Reg.locationName(Loc);
      F.SecondTid = Ej.Tid;
      // Attribute the first window transaction that touched the
      // location and is concurrent with Ej there (diagnostic only;
      // the re-check uses the full refined window).
      for (size_t I : Window) {
        if (Committed[I]->CommitTime > LocBegin &&
            Committed[I]->Log->find(Loc)) {
          F.FirstTid = Committed[I]->Tid;
          break;
        }
      }

      // Ground truth: the exact online CONFLICT test under the
      // object's declared relaxations, from Ej's entry state — the
      // same question the detector answered, answered exactly.
      ++Report.RechecksRun;
      const RelaxationSpec &Relax = Reg.info(Loc.Obj).Relax;
      symbolic::ChecksSpec Checks = conflict::checksFor(Relax);
      Value EntryVal = stm::snapshotValue(Ej.Entry, Loc);
      F.Harmful =
          conflict::conflictOnline(EntryVal, MineSeq, *TheirSeq, Checks);
      if (F.Harmful && (Relax.TolerateRAW || Relax.TolerateWAW) &&
          commutesSemantically(EntryVal, MineSeq, *TheirSeq, Checks)) {
        F.Harmful = false;
        F.Relaxed = true;
      }
      Report.Races.push_back(std::move(F));
    }
  }
  return Report;
}
