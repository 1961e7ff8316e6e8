#include "janus/conflict/Decompose.h"

using namespace janus;
using namespace janus::conflict;

void WindowJoin::join(const stm::TxLog &MineLog,
                      const std::vector<stm::TxLogRef> &Committed) {
  Mine = &MineLog;
  const std::vector<stm::TxLog::Run> &Runs = MineLog.runs();
  Found.clear();
  for (const stm::TxLogRef &Log : Committed)
    stm::joinRuns(MineLog, *Log,
                  [&](const stm::TxLog::Run &M, const stm::TxLog::Run &T) {
                    Found.push_back({static_cast<uint32_t>(&M - Runs.data()),
                                     Log.get(), &T});
                    return true;
                  });
  // Group the matches by the attempt's run, commit order kept inside
  // each group: a counting sort over run indices.
  Starts.assign(Runs.size() + 1, 0);
  for (const Match &F : Found)
    ++Starts[F.MineRun + 1];
  Shared.clear();
  for (size_t I = 0, E = Runs.size(); I != E; ++I) {
    if (Starts[I + 1] != 0)
      Shared.push_back(&Runs[I]);
    Starts[I + 1] += Starts[I];
  }
  Cursor.assign(Starts.begin(), Starts.end() - 1);
  Grouped.resize(Found.size());
  for (const Match &F : Found)
    Grouped[Cursor[F.MineRun]++] = F;
}

const symbolic::LocOpSeq &WindowJoin::mine(const stm::TxLog::Run &R) {
  MineOps.clear();
  Mine->appendOps(R, MineOps);
  return MineOps;
}

const symbolic::LocOpSeq &WindowJoin::theirs(const stm::TxLog::Run &R) {
  const size_t I = &R - Mine->runs().data();
  TheirOps.clear();
  for (uint32_t K = Starts[I]; K != Starts[I + 1]; ++K)
    Grouped[K].Log->appendOps(*Grouped[K].Run, TheirOps);
  return TheirOps;
}
