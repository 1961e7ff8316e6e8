//===----------------------------------------------------------------------===//
///
/// \file
/// DECOMPOSE: dependence-based decomposition of histories (Figure 8).
///
/// Sequence-based detection with projection reasons about the
/// per-location subsequences of a history. They are reconstructed from
/// the logged read/write sets alone — the dynamic context needed is the
/// same as in write-set detection (paper §5.3). Private locations
/// (accessed by only one of the two histories) are safely ignored: only
/// the common domain DOM(mt) ∩ DOM(mc) is ever queried.
///
/// Every frozen log carries its location index (stm::TxLog), so the
/// decomposition is a join: the attempt's index against each committed
/// log's index, in commit order, collecting operations only for the
/// locations the two share.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_CONFLICT_DECOMPOSE_H
#define JANUS_CONFLICT_DECOMPOSE_H

#include "janus/stm/Log.h"
#include "janus/symbolic/LocOp.h"

#include <vector>

namespace janus {
namespace conflict {

/// The common-domain decomposition of an attempt's log against its
/// conflict history. The join records which committed runs meet each
/// of the attempt's runs; a location's operations are gathered only
/// when it is queried, so a detector that stops at the first conflict
/// never copies the rest. Its buffers are reused from join to join.
class WindowJoin {
public:
  /// Decomposes \p Mine against \p Committed (the concatenation of the
  /// logs in commit order; Lemma 5.2 extends to multiple committing
  /// transactions). \p Mine and \p Committed must outlive the queries
  /// below.
  void join(const stm::TxLog &Mine,
            const std::vector<stm::TxLogRef> &Committed);

  /// The runs of the attempt's log whose location the history also
  /// touches, in ascending Location order.
  const std::vector<const stm::TxLog::Run *> &shared() const {
    return Shared;
  }
  const Location &loc(const stm::TxLog::Run &R) const {
    return Mine->loc(R);
  }
  /// The attempt's operations at shared run \p R, in program order.
  /// The returned buffer is overwritten by the next call.
  const symbolic::LocOpSeq &mine(const stm::TxLog::Run &R);
  /// The history's operations at shared run \p R: commit order across
  /// logs, program order within one. The returned buffer is
  /// overwritten by the next call.
  const symbolic::LocOpSeq &theirs(const stm::TxLog::Run &R);

private:
  /// A committed log's run at one of the attempt's locations.
  struct Match {
    uint32_t MineRun; ///< Index of the attempt's run.
    const stm::TxLog *Log;
    const stm::TxLog::Run *Run;
  };

  const stm::TxLog *Mine = nullptr;
  std::vector<Match> Found;   ///< In commit order.
  std::vector<Match> Grouped; ///< Found, stably grouped by MineRun.
  /// Attempt run I's matches are Grouped[Starts[I], Starts[I + 1]).
  std::vector<uint32_t> Starts;
  std::vector<uint32_t> Cursor; ///< Fill positions while grouping.
  std::vector<const stm::TxLog::Run *> Shared;
  symbolic::LocOpSeq MineOps, TheirOps;
};

} // namespace conflict
} // namespace janus

#endif // JANUS_CONFLICT_DECOMPOSE_H
