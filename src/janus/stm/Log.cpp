#include "janus/stm/Log.h"

#include <algorithm>

using namespace janus;
using namespace janus::stm;

TxLog::TxLog(LogEntries Logged) : Entries(std::move(Logged)) {
  JANUS_ASSERT(Entries.size() <= UINT32_MAX, "log too large to index");
  const uint32_t N = static_cast<uint32_t>(Entries.size());
  // A log moved out of its context keeps the growth slack of its
  // appends; a frozen log may live on in the history, so it drops it.
  Entries.shrink_to_fit();
  // Stable: a location's entries keep their program order.
  if (!std::is_sorted(Entries.begin(), Entries.end(),
                      [](const LogEntry &A, const LogEntry &B) {
                        return A.Loc < B.Loc;
                      })) {
    Order.resize(N);
    for (uint32_t I = 0; I != N; ++I)
      Order[I] = I;
    std::stable_sort(Order.begin(), Order.end(),
                     [this](uint32_t A, uint32_t B) {
                       return Entries[A].Loc < Entries[B].Loc;
                     });
  }
  size_t NumRuns = N != 0;
  for (uint32_t I = 1; I < N; ++I)
    NumRuns += sorted(I - 1).Loc != sorted(I).Loc;
  Runs.reserve(NumRuns);
  for (uint32_t I = 0; I != N; ++I) {
    const LogEntry &E = sorted(I);
    if (Runs.empty() || loc(Runs.back()) != E.Loc)
      Runs.push_back(Run{I, 0, false, false});
    Run &R = Runs.back();
    ++R.Count;
    R.Reads = R.Reads || E.Op.Kind != symbolic::LocOpKind::Write;
    R.Writes = R.Writes || E.Op.Kind != symbolic::LocOpKind::Read;
  }
}

const TxLog::Run *TxLog::find(const Location &Loc) const {
  auto It = std::lower_bound(
      Runs.begin(), Runs.end(), Loc,
      [this](const Run &R, const Location &L) { return loc(R) < L; });
  return It != Runs.end() && loc(*It) == Loc ? &*It : nullptr;
}

const TxLogRef &stm::emptyTxLog() {
  static const TxLogRef Empty = std::make_shared<const TxLog>();
  return Empty;
}
