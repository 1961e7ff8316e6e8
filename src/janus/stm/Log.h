//===----------------------------------------------------------------------===//
///
/// \file
/// Transaction operation logs.
///
/// A transaction's log (paper Figure 7, `t.Log`) records every shared
/// access as a (location, per-location operation) pair. This is exactly
/// the information the write-set approach records — read and write sets
/// of operations — which is what lets sequence-based detection impose
/// "no instrumentation overhead beyond that of the write-set approach"
/// (paper §3): per-location sequences are *reconstructed* from the log
/// by DECOMPOSE (Figure 8) rather than separately instrumented.
///
/// A log is appended to as a plain `LogEntries` vector while its
/// attempt runs (TxContext logs nothing else per access). When an
/// engine freezes it into a `TxLog`, the log is indexed by location
/// once: its entries stably ordered by `Location::operator<` and
/// grouped into per-location runs. Every later reader — each
/// validation round of each attempt whose window holds the log, and
/// the attempt's own detection — joins these indexes instead of
/// re-decomposing the log.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_STM_LOG_H
#define JANUS_STM_LOG_H

#include "janus/support/Location.h"
#include "janus/symbolic/LocOp.h"

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

namespace janus {
namespace stm {

/// One logged shared access.
struct LogEntry {
  Location Loc;
  symbolic::LocOp Op;
};

/// A log under construction: the accesses of a running attempt, in
/// program order.
using LogEntries = std::vector<LogEntry>;

/// A frozen transaction log: its entries in program order plus their
/// location index. Immutable once built, so it can be shared by every
/// reader of the committed history without synchronization.
class TxLog {
public:
  /// The entries of one location: positions [First, First + Count) of
  /// the index order, each naming an entry in program order.
  struct Run {
    uint32_t First = 0;
    uint32_t Count = 0;
    bool Reads = false;  ///< Some entry reads the location (Read, Add).
    bool Writes = false; ///< Some entry writes it (Write, Add).
  };

  TxLog() = default;
  /// Freezes \p Entries and builds their location index.
  TxLog(LogEntries Entries);
  TxLog(std::initializer_list<LogEntry> Entries)
      : TxLog(LogEntries(Entries)) {}

  // --- Program order ---------------------------------------------------

  using const_iterator = LogEntries::const_iterator;
  const_iterator begin() const { return Entries.begin(); }
  const_iterator end() const { return Entries.end(); }
  size_t size() const { return Entries.size(); }
  bool empty() const { return Entries.empty(); }
  const LogEntry &operator[](size_t I) const { return Entries[I]; }
  const LogEntries &entries() const { return Entries; }

  // --- Location index --------------------------------------------------

  /// The per-location runs, in ascending Location order.
  const std::vector<Run> &runs() const { return Runs; }
  /// The location of run \p R.
  const Location &loc(const Run &R) const { return sorted(R.First).Loc; }
  /// Appends the operations of run \p R to \p Out, in program order.
  void appendOps(const Run &R, symbolic::LocOpSeq &Out) const {
    for (uint32_t I = R.First, E = R.First + R.Count; I != E; ++I)
      Out.push_back(sorted(I).Op);
  }
  /// \returns the run of \p Loc, or null when the log never touches it
  /// (binary search over the index).
  const Run *find(const Location &Loc) const;

private:
  /// The entry at position \p I of the location order.
  const LogEntry &sorted(uint32_t I) const {
    return Entries[Order.empty() ? I : Order[I]];
  }

  LogEntries Entries;
  /// Entry indices, stably location-sorted; empty when the entries
  /// already are in location order (the common one-location log, or a
  /// sweep), which spares small logs the allocation.
  std::vector<uint32_t> Order;
  std::vector<Run> Runs;
};

/// Shared ownership of a frozen log (the committed-history window
/// hands out references without copying).
using TxLogRef = std::shared_ptr<const TxLog>;

/// The one shared empty log: thrown attempts, empty commits and
/// placeholders all reference it instead of allocating.
const TxLogRef &emptyTxLog();

/// Joins the location indexes of \p A and \p B: calls
/// \p OnShared(RunA, RunB) for every location both logs touch, in
/// ascending Location order, until it returns false. \returns false
/// when \p OnShared stopped the join. A two-pointer merge, linear in
/// the two run counts.
template <typename Fn>
bool joinRuns(const TxLog &A, const TxLog &B, Fn &&OnShared) {
  const std::vector<TxLog::Run> &RA = A.runs(), &RB = B.runs();
  auto IA = RA.begin(), EA = RA.end();
  auto IB = RB.begin(), EB = RB.end();
  while (IA != EA && IB != EB) {
    const Location &LA = A.loc(*IA), &LB = B.loc(*IB);
    if (LA < LB) {
      ++IA;
    } else if (LB < LA) {
      ++IB;
    } else {
      if (!OnShared(*IA, *IB))
        return false;
      ++IA;
      ++IB;
    }
  }
  return true;
}

} // namespace stm
} // namespace janus

#endif // JANUS_STM_LOG_H
