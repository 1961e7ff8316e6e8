#include "janus/stm/Detector.h"

using namespace janus;
using namespace janus::stm;

ConflictDetector::~ConflictDetector() = default;

bool WriteSetDetector::detectConflicts(const Snapshot &Entry,
                                       const TxLog &Mine,
                                       const std::vector<TxLogRef> &Committed,
                                       const ObjectRegistry &Reg) {
  (void)Entry;
  (void)Reg;
  if (Committed.empty())
    return false; // Validity: empty conflict history never conflicts.
  ++Stats.PairQueries;
  for (const TxLogRef &Log : Committed) {
    // Both logs touch each joined location, so it conflicts exactly
    // when either side writes it.
    const bool Clean = joinRuns(
        Mine, *Log, [](const TxLog::Run &M, const TxLog::Run &T) {
          return !M.Writes && !T.Writes;
        });
    if (!Clean) {
      ++Stats.ConflictsFound;
      return true;
    }
  }
  return false;
}
