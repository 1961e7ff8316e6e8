//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation — committed-log reclamation (paper §7.2: "our current
/// implementation doesn't reclaim the logs of garbage transactions
/// whose concurrent transactions have also terminated").
///
/// Runs a long counter workload on the threaded runtime with and
/// without reclamation and reports the retained history size and wall
/// time.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "janus/stm/ShardedRuntime.h"
#include "janus/support/Format.h"

#include <chrono>
#include <cstdio>

using namespace janus;
using namespace janus::stm;

namespace {

struct Result {
  size_t HistorySize;
  double Seconds;
};

Result runOnce(bool Reclaim, int NumTasks) {
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject("work");
  WriteSetDetector D;
  ShardedRuntime R(Reg, D,
                   ShardedConfig{.NumThreads = 4, .ReclaimLogs = Reclaim});
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != NumTasks; ++I)
    Tasks.push_back([Obj](TxContext &Tx) { Tx.add(Location(Obj), 1); });
  auto Start = std::chrono::steady_clock::now();
  R.run(Tasks);
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  JANUS_ASSERT(snapshotValue(R.sharedState(), Location(Obj)) ==
                   Value::of(int64_t(NumTasks)),
               "lost updates");
  return Result{R.historySize(), Secs};
}

} // namespace

int main(int Argc, char **Argv) {
  bench::BenchReport Report("ablation_reclaim", Argc, Argv);
  std::printf("Ablation: committed-log reclamation "
              "(threaded runtime, 4 threads)\n\n");
  TextTable T;
  T.setHeader({"tasks", "mode", "history records kept", "wall time"});
  for (int NumTasks : {500, 2000, 8000}) {
    Result Off = runOnce(false, NumTasks);
    Result On = runOnce(true, NumTasks);
    T.addRow({std::to_string(NumTasks), "keep all",
              std::to_string(Off.HistorySize),
              formatDouble(Off.Seconds * 1000.0, 1) + " ms"});
    T.addRow({std::to_string(NumTasks), "reclaim",
              std::to_string(On.HistorySize),
              formatDouble(On.Seconds * 1000.0, 1) + " ms"});
    for (bool Reclaim : {false, true}) {
      const Result &R = Reclaim ? On : Off;
      Report.addRow({{"tasks", NumTasks},
                     {"reclaim", Reclaim},
                     {"history_records", R.HistorySize},
                     {"wall_ms", R.Seconds * 1000.0}});
    }
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("Without reclamation the history grows with the task "
              "count; with it, only logs still visible to an active "
              "transaction are retained.\n");
  return Report.write() ? 0 : 1;
}
