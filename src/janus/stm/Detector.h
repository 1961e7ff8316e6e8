//===----------------------------------------------------------------------===//
///
/// \file
/// Conflict-detection interface and the write-set baseline.
///
/// The JANUS protocol (Figure 7) is parametric in the conflict-detection
/// algorithm. A detector must be *sound* (it never lets a transaction
/// that does not commute with its conflict history commit) and *valid*
/// (it never rejects a transaction with an empty conflict history) —
/// Theorem 4.1's prerequisites.
///
/// `WriteSetDetector` is the standard approach the paper compares
/// against: it breaks the concurrent histories into their constituent
/// operations and reports a conflict whenever some memory location is
/// written by one side and accessed by the other (§1, §7.1).
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_STM_DETECTOR_H
#define JANUS_STM_DETECTOR_H

#include "janus/stm/Log.h"
#include "janus/stm/Snapshot.h"
#include "janus/stm/Stats.h"
#include "janus/support/Location.h"

#include <string>
#include <vector>

namespace janus {
namespace stm {

/// Abstract conflict detector plugged into the runtimes.
class ConflictDetector {
public:
  virtual ~ConflictDetector();

  /// \returns true when transaction \p Mine conflicts with the
  /// operations committed during its execution window.
  ///
  /// \param Entry the transaction's snapshot at begin time (the input
  ///        state s of Figure 8).
  /// \param Mine the transaction's own log.
  /// \param Committed the logs of the transactions that committed in
  ///        (Begin, now], in commit order (the conflict history).
  /// \param Reg object metadata (names, location classes, relaxations).
  virtual bool detectConflicts(const Snapshot &Entry, const TxLog &Mine,
                               const std::vector<TxLogRef> &Committed,
                               const ObjectRegistry &Reg) = 0;

  /// Human-readable detector name for reports.
  virtual std::string name() const = 0;

  DetectorStats &stats() { return Stats; }
  const DetectorStats &stats() const { return Stats; }

protected:
  DetectorStats Stats;
};

/// The write-set baseline detector. Implemented — as in the paper's
/// evaluation (§7.1) — as a subset of the sequence-based machinery:
/// it joins the location indexes of the logs and tests each common
/// location for a write on either side (each run carries its
/// read/write flags; an Add counts as both, a read-modify-write at
/// memory level).
class WriteSetDetector : public ConflictDetector {
public:
  bool detectConflicts(const Snapshot &Entry, const TxLog &Mine,
                       const std::vector<TxLogRef> &Committed,
                       const ObjectRegistry &Reg) override;
  std::string name() const override { return "write-set"; }
};

} // namespace stm
} // namespace janus

#endif // JANUS_STM_DETECTOR_H
