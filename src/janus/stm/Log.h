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
//===----------------------------------------------------------------------===//

#ifndef JANUS_STM_LOG_H
#define JANUS_STM_LOG_H

#include "janus/support/Location.h"
#include "janus/symbolic/LocOp.h"

#include <memory>
#include <unordered_set>
#include <vector>

namespace janus {
namespace stm {

/// One logged shared access.
struct LogEntry {
  Location Loc;
  symbolic::LocOp Op;
};

/// A transaction's history of operations, in program order.
using TxLog = std::vector<LogEntry>;

/// Shared ownership of a committed log (the committed-history window
/// hands out references without copying).
using TxLogRef = std::shared_ptr<const TxLog>;

/// The one shared empty log: thrown attempts, empty commits and
/// placeholders all reference it instead of allocating.
const TxLogRef &emptyTxLog();

/// Location sets used by the write-set heuristic. An Add counts as both
/// a read and a write (a read-modify-write at memory level).
struct AccessSets {
  std::unordered_set<Location> Read;
  std::unordered_set<Location> Write;
};

/// Computes the read/write location sets of \p Log.
AccessSets accessSets(const TxLog &Log);

} // namespace stm
} // namespace janus

#endif // JANUS_STM_LOG_H
