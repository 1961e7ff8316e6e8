#include "janus/stm/Log.h"

using namespace janus;
using namespace janus::stm;

const TxLogRef &stm::emptyTxLog() {
  static const TxLogRef Empty = std::make_shared<const TxLog>();
  return Empty;
}

AccessSets stm::accessSets(const TxLog &Log) {
  AccessSets Sets;
  for (const LogEntry &E : Log) {
    switch (E.Op.Kind) {
    case symbolic::LocOpKind::Read:
      Sets.Read.insert(E.Loc);
      break;
    case symbolic::LocOpKind::Write:
      Sets.Write.insert(E.Loc);
      break;
    case symbolic::LocOpKind::Add:
      Sets.Read.insert(E.Loc);
      Sets.Write.insert(E.Loc);
      break;
    }
  }
  return Sets;
}
