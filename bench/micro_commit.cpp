//===----------------------------------------------------------------------===//
///
/// \file
/// Commit-path microbenchmark: begin/commit throughput of the threaded
/// engine (stm::ShardedRuntime), per scenario, detector, thread count
/// and shard count.
///
/// Scenarios (one shard, the engine's default):
///   empty      — tasks log nothing: pure begin/commit overhead.
///   disjoint   — each task writes its own array slot: non-empty logs,
///                no conflicts, real replay + detection work.
///   contended  — every task Adds to one counter: retry behaviour
///                under maximal data contention.
///   ordered    — in-order commits (the paper's sequential-semantics
///                mode); each task yields mid-body so transactions
///                genuinely overlap even when the machine has fewer
///                cores than workers. Each committer hands the turn to
///                exactly its successor.
/// Shard-count sweep scenarios (1, 4 and 16 shards; tasks yield
/// mid-body so attempts genuinely overlap even on few cores —
/// what the sweep varies is the *algorithmic* detection/validation
/// work per commit, which is what sharding removes):
///   disjoint-shard — every task writes several slots that all hash
///                into one shard (single-shard transactions, disjoint
///                data). With one shard each commit forces every
///                overlapping attempt to detect against it; with
///                many shards the windows stay per-shard and empty.
///   cross-shard    — every task writes slots spanning several shards,
///                exercising the deterministic-order two-phase commit.
/// Detectors: write-set ("ws") and the sequence detector ("seq", with
/// the online fallback so commutative Adds actually commute).
///
/// `--json` / `--json-out=PATH` emit BENCH_micro_commit.json rows
/// (median-of-N ns per committed transaction, commit/retry counts),
/// stamped with the host's CPU count and model;
/// `--quick` shrinks reps/tasks for the CI perf smoke, which gates on
/// "ran to completion", not on numbers.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "janus/conflict/SequenceDetector.h"
#include "janus/stm/ShardedRuntime.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <thread>

using namespace janus;
using namespace janus::stm;

namespace {

struct Scenario {
  const char *Name;
  int Tasks;
  bool Ordered = false;
};

struct RunResult {
  double NsPerCommit = 0.0;
  uint64_t Commits = 0;
  uint64_t Retries = 0;
};

/// Shard geometry the sharded scenarios are laid out for. Location
/// sharding masks the *low* hash bits, so slots co-resident in one of
/// 16 shards stay co-resident under any smaller power-of-two shard
/// count — one task set serves the whole sweep.
constexpr unsigned LayoutShards = 16;
constexpr int WritesPerTask = 8;

/// Partitions slot indices of \p Arr by their shard under
/// LayoutShards, dealing each task \p Want unused slots from the
/// requested shard (probing further slots on demand).
class ShardSlotDealer {
public:
  explicit ShardSlotDealer(ObjectId Arr) : Arr(Arr), Buckets(LayoutShards) {}

  std::vector<int> deal(unsigned Shard, size_t Want) {
    std::vector<int> &B = Buckets[Shard];
    while (B.size() < Used[Shard] + Want) {
      Buckets[shardIndexOf(Location(Arr, Next), LayoutShards)].push_back(
          Next);
      ++Next;
    }
    std::vector<int> Out(B.begin() + static_cast<long>(Used[Shard]),
                         B.begin() + static_cast<long>(Used[Shard] + Want));
    Used[Shard] += Want;
    return Out;
  }

private:
  ObjectId Arr;
  int Next = 0;
  std::vector<std::vector<int>> Buckets;
  std::array<size_t, LayoutShards> Used{};
};

/// Task sets for the sharded scenarios. Bodies yield mid-write so
/// begin..commit windows overlap across workers regardless of core
/// count.
std::vector<TaskFn> makeShardedTasks(const std::string &Name, ObjectId Arr,
                                     int NumTasks) {
  ShardSlotDealer Dealer(Arr);
  std::vector<TaskFn> Tasks;
  Tasks.reserve(NumTasks);
  for (int I = 0; I != NumTasks; ++I) {
    std::vector<int> Slots;
    if (Name == "disjoint-shard") {
      // All writes land in shard I % LayoutShards: a single-shard
      // transaction over data no other task touches.
      Slots = Dealer.deal(static_cast<unsigned>(I) % LayoutShards,
                          WritesPerTask);
    } else { // cross-shard: two slots from each of four distinct shards.
      for (unsigned K = 0; K != 4; ++K) {
        std::vector<int> Part =
            Dealer.deal((static_cast<unsigned>(I) + K * 5) % LayoutShards, 2);
        Slots.insert(Slots.end(), Part.begin(), Part.end());
      }
    }
    Tasks.push_back([Arr, Slots, I](TxContext &Tx) {
      for (size_t W = 0; W != Slots.size(); ++W) {
        if (W == Slots.size() / 2)
          std::this_thread::yield();
        Tx.write(Location(Arr, Slots[W]), Value::of(int64_t(I)));
      }
      std::this_thread::yield();
    });
  }
  return Tasks;
}

std::vector<TaskFn> makeTasks(const Scenario &S, ObjectId Counter,
                              ObjectId Arr, int NumTasks) {
  if (std::string(S.Name) == "disjoint-shard" ||
      std::string(S.Name) == "cross-shard")
    return makeShardedTasks(S.Name, Arr, NumTasks);
  std::vector<TaskFn> Tasks;
  Tasks.reserve(NumTasks);
  for (int I = 0; I != NumTasks; ++I) {
    if (std::string(S.Name) == "empty")
      Tasks.push_back([](TxContext &) {});
    else if (std::string(S.Name) == "ordered") {
      // Skewed task lengths (0-7 deterministic preemption points, from
      // a hash of the task index): short tasks reach their commit turn
      // while longer predecessors are still running, so workers really
      // block on the turn handoff instead of committing straight off
      // the scheduler's round-robin order.
      int Yields = static_cast<int>((static_cast<uint32_t>(I) * 2654435761u) >> 29);
      Tasks.push_back([Yields](TxContext &) {
        for (int Y = 0; Y != Yields; ++Y)
          std::this_thread::yield();
      });
    }
    else if (std::string(S.Name) == "disjoint")
      Tasks.push_back([Arr, I](TxContext &Tx) {
        Tx.write(Location(Arr, I), Value::of(int64_t(I)));
      });
    else // contended
      Tasks.push_back(
          [Counter](TxContext &Tx) { Tx.add(Location(Counter), 1); });
  }
  return Tasks;
}

std::unique_ptr<ConflictDetector> makeDetector(const std::string &Kind) {
  if (Kind == "ws")
    return std::make_unique<WriteSetDetector>();
  conflict::SequenceDetectorConfig Cfg;
  // Untrained cache: the online fallback is what lets commutative Adds
  // commute, exercising the sequence machinery end to end. Specs on:
  // the contended counter is ADT-declared below, so its add/add pairs
  // take the tier-1 table instead of the online replay (§14).
  Cfg.OnlineFallback = true;
  Cfg.Specs = conflict::SpecMode::On;
  return std::make_unique<conflict::SequenceDetector>(
      std::make_shared<conflict::CommutativityCache>(), Cfg);
}

/// One timed repetition on a fresh runtime; \returns ns per committed
/// transaction.
template <typename MakeRuntime>
RunResult timedRep(const Scenario &S, const std::string &Detector,
                   int NumTasks, MakeRuntime &&Make) {
  ObjectRegistry Reg;
  ObjectId Counter = Reg.registerObject("counter");
  Reg.declareAdt(Counter, AdtKind::Counter);
  ObjectId Arr = Reg.registerObject("slots", "slots.elem");
  std::unique_ptr<ConflictDetector> Det = makeDetector(Detector);
  auto Runtime = Make(Reg, *Det);
  std::vector<TaskFn> Tasks = makeTasks(S, Counter, Arr, NumTasks);

  auto Start = std::chrono::steady_clock::now();
  Runtime->run(Tasks);
  double Ns = std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - Start)
                  .count();

  RunResult R;
  R.Commits = Runtime->stats().Commits.load();
  R.Retries = Runtime->stats().Retries.load();
  JANUS_ASSERT(R.Commits == static_cast<uint64_t>(NumTasks),
               "every task must commit exactly once");
  R.NsPerCommit = Ns / static_cast<double>(NumTasks);
  return R;
}

/// Median-of-reps measurement.
template <typename MakeRuntime>
RunResult measure(const Scenario &S, const std::string &Detector,
                  int NumTasks, int Reps, MakeRuntime &&Make) {
  std::vector<RunResult> Results;
  Results.reserve(Reps);
  for (int I = 0; I != Reps; ++I)
    Results.push_back(timedRep(S, Detector, NumTasks, Make));
  std::sort(Results.begin(), Results.end(),
            [](const RunResult &A, const RunResult &B) {
              return A.NsPerCommit < B.NsPerCommit;
            });
  return Results[Results.size() / 2];
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  for (int I = 1; I < Argc; ++I)
    if (std::string(Argv[I]) == "--quick")
      Quick = true;

  bench::BenchReport Report("micro_commit", Argc, Argv);
  const int Reps = Quick ? 3 : 9;
  const std::vector<unsigned> Threads =
      Quick ? std::vector<unsigned>{1, 4} : std::vector<unsigned>{1, 4, 16};
  const Scenario Scenarios[] = {
      {"empty", Quick ? 512 : 4096},
      {"disjoint", Quick ? 512 : 2048},
      {"contended", Quick ? 128 : 512},
      {"ordered", Quick ? 256 : 1024, /*Ordered=*/true},
  };
  const char *Detectors[] = {"ws", "seq"};

  Report.setMeta("reps", Reps);
  Report.setMeta("quick", Quick);
  Report.setMeta("nproc",
                 static_cast<unsigned>(std::thread::hardware_concurrency()));
  Report.setMeta("cpu_model", bench::cpuModel());

  // The threaded engine, reclamation on, with \p Shards commit points.
  auto Engine = [](unsigned Threads, unsigned Shards, bool Ordered) {
    return [=](const ObjectRegistry &Reg, ConflictDetector &D) {
      return std::make_unique<ShardedRuntime>(
          Reg, D,
          ShardedConfig{.NumThreads = Threads,
                        .NumShards = Shards,
                        .Ordered = Ordered,
                        .ReclaimLogs = true});
    };
  };
  auto AddRow = [&Report](const Scenario &S, const char *Det, unsigned N,
                          unsigned Shards, const RunResult &R) {
    Report.addRow({{"engine", "sharded"},
                   {"detector", Det},
                   {"scenario", S.Name},
                   {"ordered", S.Ordered},
                   {"threads", N},
                   {"shards", Shards},
                   {"tasks", S.Tasks},
                   {"ns_per_commit", R.NsPerCommit},
                   {"commits", R.Commits},
                   {"retries", R.Retries}});
  };

  std::printf("micro_commit: begin/commit throughput of the threaded "
              "engine\n(median of %d reps, ns per committed transaction; "
              "reclamation on)\n\n",
              Reps);

  for (const Scenario &S : Scenarios) {
    for (const char *Det : Detectors) {
      TextTable T;
      T.setHeader({"threads", "ns/commit", "retries"});
      for (unsigned N : Threads) {
        RunResult R = measure(S, Det, S.Tasks, Reps, Engine(N, 1, S.Ordered));
        T.addRow({std::to_string(N), formatDouble(R.NsPerCommit, 0),
                  std::to_string(R.Retries)});
        AddRow(S, Det, N, 1, R);
      }
      std::printf("[scenario=%s detector=%s tasks=%d shards=1]\n%s\n",
                  S.Name, Det, S.Tasks, T.render().c_str());
    }
  }

  // -------------------------------------------------------------------
  // Shard-count sweep (location-sharded commit points, per-shard
  // history and detection windows); one shard is the reference.
  // -------------------------------------------------------------------
  const std::vector<unsigned> ShardCounts{1, 4, 16};
  const Scenario ShardScenarios[] = {
      {"disjoint-shard", Quick ? 256 : 1024},
      {"cross-shard", Quick ? 128 : 512},
  };
  std::printf("\nshard-count sweep (ws detector, %d writes/task, yielding "
              "bodies)\n\n",
              WritesPerTask);
  for (const Scenario &S : ShardScenarios) {
    TextTable T;
    T.setHeader({"threads", "1 shard", "4 shards", "16 shards", "1sh/16sh"});
    for (unsigned N : Threads) {
      std::vector<std::string> Row{std::to_string(N)};
      double Sh1 = 0.0, Sh16 = 0.0;
      for (unsigned NS : ShardCounts) {
        RunResult R = measure(S, "ws", S.Tasks, Reps, Engine(N, NS, false));
        if (NS == 1)
          Sh1 = R.NsPerCommit;
        if (NS == 16)
          Sh16 = R.NsPerCommit;
        AddRow(S, "ws", N, NS, R);
        Row.push_back(formatDouble(R.NsPerCommit, 0));
      }
      Row.push_back(formatDouble(Sh16 > 0.0 ? Sh1 / Sh16 : 0.0, 2) + "x");
      T.addRow(Row);
    }
    std::printf("[scenario=%s detector=ws tasks=%d]\n%s\n", S.Name, S.Tasks,
                T.render().c_str());
  }
  return Report.write() ? 0 : 1;
}
