//===----------------------------------------------------------------------===//
///
/// \file
/// Micro-benchmarks backing the paper's §3 efficiency claim: "there is
/// no instrumentation overhead beyond that of the write-set approach,
/// and the complexity of the detection algorithm is also comparable to
/// write-set-based detection".
///
/// Measures, on synthetic logs: write-set detection, sequence detection
/// answered from the cache, the exact online sequence check, freezing
/// (location-indexing) a log, SAT equivalence queries, and snapshot
/// costs (persistent map vs deep copy).
///
/// The BM_*Detect/N fixtures overlap fully: the one committed log
/// touches exactly the attempt's N locations. BM_*DetectPartial/K
/// overlaps partially: the attempt touches K locations and each of
/// eight committed logs touches one of them among 32 others, so
/// detection is dominated by finding the few shared locations. In the
/// threaded paper workloads a committed log shares about half of the
/// attempt's locations (JGraphT, PMD) or almost none (Weka), and both
/// logs touch a similar number of locations (median per log: 12 on
/// JGraphT-1, 33 on JGraphT-2, 80-120 on Weka).
///
/// The per-tier breakdown (DESIGN.md §14) is the trio
/// BM_SequenceDetectSpec / BM_SequenceDetectCached /
/// BM_SequenceDetectOnline: the same logs answered by the tier-1 spec
/// table, the learned cache (symbolize + abstract + probe), and the
/// exact online replay. Compare their ns/query at equal Arg.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "janus/conflict/SequenceDetector.h"
#include "janus/persist/PersistentMap.h"
#include "janus/sat/PropFormula.h"
#include "janus/stm/Detector.h"
#include "janus/support/Rng.h"

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace janus;
using namespace janus::stm;
using symbolic::LocOp;

namespace {

/// Builds a transaction log touching \p Locs locations with \p OpsPer
/// operations each (the identity add/subtract pattern).
TxLog makeLog(ObjectId Obj, int Locs, int OpsPer, int64_t Salt) {
  LogEntries Log;
  for (int L = 0; L != Locs; ++L)
    for (int O = 0; O != OpsPer; O += 2) {
      Log.push_back({Location(Obj, L), LocOp::add(Salt + O)});
      Log.push_back({Location(Obj, L), LocOp::add(-(Salt + O))});
    }
  return TxLog(std::move(Log));
}

struct DetectorFixture {
  ObjectRegistry Reg;
  ObjectId Obj;
  std::shared_ptr<conflict::CommutativityCache> Cache;
  TxLog Mine;
  std::vector<TxLogRef> Committed;

  explicit DetectorFixture(int Locs, int OpsPer, bool DeclareAdt = false)
      : Cache(std::make_shared<conflict::CommutativityCache>()) {
    Obj = Reg.registerObject("work", "work.elem");
    // Declaring the counter ADT makes every pair spec-covered, so the
    // tier-1 table can answer without symbolization or cache probes.
    if (DeclareAdt)
      Reg.declareAdt(Obj, AdtKind::Counter);
    Mine = makeLog(Obj, Locs, OpsPer, 3);
    Committed.push_back(
        std::make_shared<const TxLog>(makeLog(Obj, Locs, OpsPer, 7)));
  }

  /// Populates the cache the way training would for these logs.
  void trainCache() {
    conflict::WindowJoin Join;
    Join.join(Mine, Committed);
    for (const TxLog::Run *R : Join.shared()) {
      conflict::PairQuery Q =
          conflict::buildPairQuery("work.elem", Join.mine(*R),
                                   Join.theirs(*R), /*UseAbstraction=*/true);
      auto Cond = symbolic::commutativityCondition(
          Q.MineAbs.expandOnce(), Q.TheirsAbs.expandOnce());
      Cache->insert(Q.Key, Cond ? *Cond : symbolic::Condition::never());
    }
  }
};

/// The partial-overlap window: the attempt touches \p K locations of a
/// counter ADT (keys 64·i); each of eight committed logs writes 32
/// keys of its own, interleaved with the attempt's, and touches one of
/// the attempt's locations. With \p Reads every shared access is a
/// read (the write-set test then scans the whole window without a
/// conflict); otherwise both sides add (commutative: the spec table
/// answers every query, again without a conflict).
struct PartialFixture {
  static constexpr int Window = 8;
  static constexpr int Private = 32;
  ObjectRegistry Reg;
  TxLog Mine;
  std::vector<TxLogRef> Committed;

  PartialFixture(int K, bool Reads) {
    ObjectId Obj = Reg.registerObject("work", "work.elem");
    Reg.declareAdt(Obj, AdtKind::Counter);
    auto Shared = [Reads](LogEntries &Log, Location Loc, int64_t Delta) {
      if (Reads) {
        Log.push_back({Loc, LocOp::read()});
        return;
      }
      Log.push_back({Loc, LocOp::add(Delta)});
      Log.push_back({Loc, LocOp::add(-Delta)});
    };
    LogEntries MineLog;
    for (int I = 0; I != K; ++I)
      Shared(MineLog, Location(Obj, int64_t{64} * I), 3);
    Mine = TxLog(std::move(MineLog));
    for (int C = 0; C != Window; ++C) {
      LogEntries Log;
      for (int J = 0; J != Private; ++J)
        Log.push_back({Location(Obj, int64_t{64} * J + 1 + C),
                       LocOp::write(Value::of(int64_t{J}))});
      Shared(Log, Location(Obj, int64_t{64} * (C % K)), 7);
      Committed.push_back(std::make_shared<const TxLog>(std::move(Log)));
    }
  }
};

} // namespace

static void BM_WriteSetDetect(benchmark::State &State) {
  DetectorFixture F(static_cast<int>(State.range(0)), 8);
  WriteSetDetector D;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        D.detectConflicts(Snapshot(), F.Mine, F.Committed, F.Reg));
  State.SetItemsProcessed(State.iterations() * F.Mine.size());
}
BENCHMARK(BM_WriteSetDetect)->Arg(4)->Arg(16)->Arg(64);

static void BM_SequenceDetectCached(benchmark::State &State) {
  DetectorFixture F(static_cast<int>(State.range(0)), 8);
  F.trainCache();
  conflict::SequenceDetector D(F.Cache);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        D.detectConflicts(Snapshot(), F.Mine, F.Committed, F.Reg));
  State.SetItemsProcessed(State.iterations() * F.Mine.size());
}
BENCHMARK(BM_SequenceDetectCached)->Arg(4)->Arg(16)->Arg(64);

static void BM_SequenceDetectSpec(benchmark::State &State) {
  // Tier-1: add-only sequences on a declared counter ADT; every pair
  // is answered by the hand-written spec table (no symbolization, no
  // cache probe, no SAT).
  DetectorFixture F(static_cast<int>(State.range(0)), 8,
                    /*DeclareAdt=*/true);
  conflict::SequenceDetectorConfig Cfg;
  Cfg.Specs = conflict::SpecMode::On;
  conflict::SequenceDetector D(F.Cache, Cfg); // Empty cache: spec only.
  for (auto _ : State)
    benchmark::DoNotOptimize(
        D.detectConflicts(Snapshot(), F.Mine, F.Committed, F.Reg));
  State.SetItemsProcessed(State.iterations() * F.Mine.size());
}
BENCHMARK(BM_SequenceDetectSpec)->Arg(4)->Arg(16)->Arg(64);

static void BM_WriteSetDetectPartial(benchmark::State &State) {
  PartialFixture F(static_cast<int>(State.range(0)), /*Reads=*/true);
  WriteSetDetector D;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        D.detectConflicts(Snapshot(), F.Mine, F.Committed, F.Reg));
}
BENCHMARK(BM_WriteSetDetectPartial)->Arg(1)->Arg(4)->Arg(16);

static void BM_SequenceDetectPartial(benchmark::State &State) {
  PartialFixture F(static_cast<int>(State.range(0)), /*Reads=*/false);
  conflict::SequenceDetectorConfig Cfg;
  Cfg.Specs = conflict::SpecMode::On;
  auto Cache = std::make_shared<conflict::CommutativityCache>();
  conflict::SequenceDetector D(Cache, Cfg);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        D.detectConflicts(Snapshot(), F.Mine, F.Committed, F.Reg));
}
BENCHMARK(BM_SequenceDetectPartial)->Arg(1)->Arg(4)->Arg(16);

static void BM_SequenceDetectCachedNoMemo(benchmark::State &State) {
  DetectorFixture F(static_cast<int>(State.range(0)), 8);
  F.trainCache();
  conflict::SequenceDetectorConfig Cfg;
  Cfg.MemoizeSignatures = false;
  conflict::SequenceDetector D(F.Cache, Cfg);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        D.detectConflicts(Snapshot(), F.Mine, F.Committed, F.Reg));
  State.SetItemsProcessed(State.iterations() * F.Mine.size());
}
BENCHMARK(BM_SequenceDetectCachedNoMemo)->Arg(4)->Arg(16)->Arg(64);

static void BM_SequenceDetectOnline(benchmark::State &State) {
  DetectorFixture F(static_cast<int>(State.range(0)), 8);
  conflict::SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  conflict::SequenceDetector D(F.Cache, Cfg); // Empty cache: all online.
  for (auto _ : State)
    benchmark::DoNotOptimize(
        D.detectConflicts(Snapshot(), F.Mine, F.Committed, F.Reg));
  State.SetItemsProcessed(State.iterations() * F.Mine.size());
}
BENCHMARK(BM_SequenceDetectOnline)->Arg(4)->Arg(16)->Arg(64);

//===--------------------------------------------------------------------===//
// Per-pair-query tier costs. The BM_SequenceDetect* trio above shares
// the join overhead; this trio isolates what each tier pays for
// ONE pair query, which is the §14 "ns/query" comparison: the spec
// table answers in a predicate evaluation, the learned cache pays
// symbolize + abstract + signature render + probe + condition eval,
// and a miss pays full condition synthesis (symbolic replay + SAT).
//===--------------------------------------------------------------------===//

static void BM_PairQuerySpec(benchmark::State &State) {
  conflict::SpecFn Fn = conflict::specFor(AdtKind::Counter);
  symbolic::LocOpSeq Mine{LocOp::add(3), LocOp::add(-3)};
  symbolic::LocOpSeq Theirs{LocOp::add(7), LocOp::add(-7)};
  Value Entry = Value::of(int64_t(5));
  symbolic::ChecksSpec Checks;
  for (auto _ : State)
    benchmark::DoNotOptimize(Fn(Entry, Mine, Theirs, Checks));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_PairQuerySpec);

static void BM_PairQueryCached(benchmark::State &State) {
  auto Cache = std::make_shared<conflict::CommutativityCache>();
  symbolic::LocOpSeq Mine{LocOp::add(3), LocOp::add(-3)};
  symbolic::LocOpSeq Theirs{LocOp::add(7), LocOp::add(-7)};
  conflict::PairQuery Seed =
      conflict::buildPairQuery("work.elem", Mine, Theirs, true);
  auto Cond = symbolic::commutativityCondition(Seed.MineAbs.expandOnce(),
                                               Seed.TheirsAbs.expandOnce());
  Cache->insert(Seed.Key, Cond ? *Cond : symbolic::Condition::never());
  for (auto _ : State) {
    conflict::PairQuery Q =
        conflict::buildPairQuery("work.elem", Mine, Theirs, true);
    std::optional<symbolic::Condition> Hit = Cache->lookup(Q.Key);
    benchmark::DoNotOptimize(Hit->evaluate(Q.Binds));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_PairQueryCached);

static void BM_PairQuerySatFallback(benchmark::State &State) {
  symbolic::LocOpSeq Mine{LocOp::add(3), LocOp::add(-3)};
  symbolic::LocOpSeq Theirs{LocOp::add(7), LocOp::add(-7)};
  for (auto _ : State) {
    conflict::PairQuery Q =
        conflict::buildPairQuery("work.elem", Mine, Theirs, true);
    benchmark::DoNotOptimize(symbolic::commutativityCondition(
        Q.MineAbs.expandOnce(), Q.TheirsAbs.expandOnce()));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_PairQuerySatFallback);

static void BM_FreezeLog(benchmark::State &State) {
  // What an engine pays once per attempt to freeze its log: a copy of
  // the entries (the engines move them instead) plus the location
  // index every later detection joins against.
  DetectorFixture F(static_cast<int>(State.range(0)), 8);
  for (auto _ : State)
    benchmark::DoNotOptimize(TxLog(F.Mine.entries()));
}
BENCHMARK(BM_FreezeLog)->Arg(4)->Arg(64);

static void BM_SymbolizeAbstract(benchmark::State &State) {
  symbolic::LocOpSeq Seq;
  for (int I = 0; I != State.range(0); ++I) {
    Seq.push_back(LocOp::add(I + 1));
    Seq.push_back(LocOp::add(-(I + 1)));
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(
        abstraction::abstractSequence(abstraction::symbolize(Seq), true));
}
BENCHMARK(BM_SymbolizeAbstract)->Arg(2)->Arg(8)->Arg(32);

static void BM_SatEquivalence(benchmark::State &State) {
  // The §6.2 equivalence query on a medium formula pair.
  for (auto _ : State) {
    sat::FormulaArena A;
    sat::Formula F = A.mkTrue(), G = A.mkTrue();
    for (uint32_t I = 0; I != 12; ++I) {
      F = A.mkAnd(F, A.mkOr(A.mkAtom(I), A.mkNot(A.mkAtom(I + 1))));
      G = A.mkAnd(G, A.mkNot(A.mkAnd(A.mkNot(A.mkAtom(I)), A.mkAtom(I + 1))));
    }
    benchmark::DoNotOptimize(sat::checkEquivalent(A, F, G, {}));
  }
}
BENCHMARK(BM_SatEquivalence);

static void BM_PersistentSnapshot(benchmark::State &State) {
  // O(1) snapshot of an N-entry store (the CREATETRANSACTION cost with
  // persistent versioning, §4.1).
  persist::PersistentMap<int, int> M;
  for (int I = 0; I != State.range(0); ++I)
    M = M.set(I, I);
  for (auto _ : State) {
    persist::PersistentMap<int, int> Snap = M;
    benchmark::DoNotOptimize(Snap);
    // One private write on the snapshot (path copy).
    benchmark::DoNotOptimize(Snap.set(0, -1));
  }
}
BENCHMARK(BM_PersistentSnapshot)->Arg(1000)->Arg(100000);

static void BM_DeepCopySnapshot(benchmark::State &State) {
  // The naive alternative: deep-copying the store at transaction begin.
  std::map<int, int> M;
  for (int I = 0; I != State.range(0); ++I)
    M[I] = I;
  for (auto _ : State) {
    std::map<int, int> Snap = M;
    Snap[0] = -1;
    benchmark::DoNotOptimize(Snap);
  }
}
BENCHMARK(BM_DeepCopySnapshot)->Arg(1000)->Arg(100000);

int main(int Argc, char **Argv) {
  // Route the repo-wide --json / --json-out=PATH convention onto
  // google-benchmark's own JSON reporter so every bench binary shares
  // one perf-trajectory interface (see BenchCommon.h).
  std::vector<char *> Args;
  std::vector<std::string> Own;
  std::string OutPath = "BENCH_micro_detection.json";
  bool Json = false;
  for (int I = 0; I != Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--json") {
      Json = true;
      continue;
    }
    if (A.rfind("--json-out=", 0) == 0) {
      Json = true;
      OutPath = A.substr(std::string("--json-out=").size());
      continue;
    }
    Args.push_back(Argv[I]);
  }
  if (Json) {
    Own.push_back("--benchmark_out=" + OutPath);
    Own.push_back("--benchmark_out_format=json");
  }
  for (std::string &S : Own)
    Args.push_back(S.data());
  int N = static_cast<int>(Args.size());
  benchmark::Initialize(&N, Args.data());
  // Stamp the host the rows came from (google-benchmark's own
  // num_cpus can disagree with the cores a container may use).
  benchmark::AddCustomContext(
      "nproc", std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("cpu_model", bench::cpuModel());
  if (benchmark::ReportUnrecognizedArguments(N, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
