#include "janus/core/Janus.h"

#include "janus/sat/Solver.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

using namespace janus;
using namespace janus::core;

Janus::Janus(JanusConfig ConfigIn)
    : Config(ConfigIn), Cache(std::make_shared<conflict::CommutativityCache>(
                            ConfigIn.DetectionShards)) {
  Config.Sequence.Shards = Config.DetectionShards;
  switch (Config.Detector) {
  case DetectorKind::WriteSet:
    Detector = std::make_unique<stm::WriteSetDetector>();
    break;
  case DetectorKind::Sequence: {
    auto Seq =
        std::make_unique<conflict::SequenceDetector>(Cache, Config.Sequence);
    SeqDetector = Seq.get();
    Detector = std::move(Seq);
    break;
  }
  }
  // Keep the trainer's abstraction setting aligned with the detector's:
  // cache keys must be built identically on both sides.
  Config.Training.UseAbstraction = Config.Sequence.UseAbstraction;
  // Fault injection: an unconfigured plan picks up JANUS_FAULTS from
  // the environment, so chaos runs need no code changes; a `satbudget`
  // clause starves the trainer's SAT cross-check.
  if (Config.Faults.empty())
    Config.Faults = resilience::FaultPlan::fromEnv();
  if (std::optional<uint64_t> B = Config.Faults.satConflictBudget())
    Config.Training.SatConflictBudget =
        std::min(Config.Training.SatConflictBudget, *B);
  if (Config.Obs.Enabled) {
    // One lane per executor (worker slot / virtual core) plus the
    // auxiliary lane for out-of-run events (SAT solves and training
    // spans). The sat hook is process-wide; with several concurrent
    // observed Janus instances the last constructed one wins (and its
    // destruction uninstalls the hook for all).
    ObsSink = std::make_unique<obs::Observer>(
        Config.Obs, std::max(1u, Config.Threads) + 1);
  }
  if (Config.Record.Enabled) {
    // Same lane provisioning as the observer: one ring per worker
    // lane plus the auxiliary lane (serve tags, out-of-run events).
    RecSink = std::make_unique<obs::Recorder>(
        Config.Record, std::max(1u, Config.Threads) + 1);
  }
  // The trainer captures its config by value — the observer must exist
  // (and be wired in) before construction.
  Config.Training.Obs = ObsSink.get();
  TrainerImpl =
      std::make_unique<training::Trainer>(Reg, Cache, Config.Training);
  // Through the compile-time gate: with JANUS_OBS=OFF the hook is never
  // installed, so SAT solves pay nothing.
  if (obs::Observer *O = obs::janusObs(ObsSink.get())) {
    sat::setSolveObserver([O](const sat::SolveObservation &S) {
      O->satSolve().record(S.Micros);
      O->span(O->auxLane(), "sat", /*Tid=*/0, /*Attempt=*/0,
              O->nowUs() - S.Micros, S.Micros, "conflicts",
              static_cast<double>(S.Conflicts),
              S.Result == sat::SolveResult::Unknown ? "budget-exhausted"
                                                    : nullptr);
    });
  }
}

Janus::~Janus() {
  if (ObsSink)
    sat::setSolveObserver({}); // The hook captures ObsSink raw.
}

bool Janus::saveCacheFile(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  Out << Cache->serialize();
  return static_cast<bool>(Out);
}

bool Janus::loadCacheFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Cache->deserializeInto(Buffer.str());
}

std::string Janus::exportTrainingArtifact() const {
  std::string Out = "janus-training-artifact v1\n";
  for (uint32_t Id = 0; Id != Reg.size(); ++Id) {
    const ObjectInfo &Info = Reg.info(ObjectId{Id});
    if (!Info.Relax.TolerateRAW && !Info.Relax.TolerateWAW)
      continue;
    Out += "relax " + std::string(Info.Relax.TolerateRAW ? "1" : "0") +
           " " + std::string(Info.Relax.TolerateWAW ? "1" : "0") + " " +
           Info.Name + "\n";
  }
  Out += "endrelax\n";
  Out += Cache->serialize();
  return Out;
}

bool Janus::importTrainingArtifact(const std::string &Text) {
  std::istringstream Stream(Text);
  std::string Line;
  if (!std::getline(Stream, Line) || Line != "janus-training-artifact v1")
    return false;
  while (std::getline(Stream, Line)) {
    if (Line == "endrelax")
      break;
    if (Line.rfind("relax ", 0) != 0 || Line.size() < 10)
      return false;
    bool Raw = Line[6] == '1';
    bool Waw = Line[8] == '1';
    std::string Name = Line.substr(10);
    for (uint32_t Id = 0; Id != Reg.size(); ++Id) {
      if (Reg.info(ObjectId{Id}).Name == Name)
        Reg.setRelaxation(ObjectId{Id}, RelaxationSpec{Raw, Waw});
    }
  }
  // The remainder is the cache.
  std::string Rest;
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  Rest = Buffer.str();
  return Cache->deserializeInto(Rest);
}

void Janus::train(const std::vector<stm::TaskFn> &Tasks) {
  stm::Snapshot Copy = State;
  TrainerImpl->trainOn(Copy, Tasks);
}

RunOutcome Janus::runTasks(const std::vector<stm::TaskFn> &Tasks,
                           bool Ordered) {
  RunOutcome Outcome;

  if (Config.Engine == EngineKind::Simulated) {
    stm::SimConfig SimCfg;
    SimCfg.NumCores = Config.Threads;
    SimCfg.Ordered = Ordered;
    SimCfg.Costs = Config.Costs;
    SimCfg.RecordTrace = Config.RecordTrace;
    SimCfg.Resilience = Config.Resilience;
    SimCfg.Faults = Config.Faults;
    SimCfg.Obs = ObsSink.get();
    SimCfg.Cancel = Config.Cancel;
    SimCfg.Rec = RecSink.get();
    SimCfg.Replay = Config.Replay;
    SimCfg.ReplayProblems = Config.ReplayProblems;
    stm::SimRuntime Runtime(Reg, *Detector, SimCfg);
    Runtime.setInitialState(State);
    stm::SimOutcome Sim = Runtime.run(Tasks);
    State = Runtime.sharedState();
    if (Config.RecordTrace)
      Trace = Runtime.trace();
    Outcome.ParallelTime = Sim.ParallelTime;
    Outcome.SequentialTime = Sim.SequentialTime;
    Outcome.Failures = std::move(Sim.Failures);
    Stats.Tasks += Runtime.stats().Tasks.load();
    Stats.Commits += Runtime.stats().Commits.load();
    Stats.Retries += Runtime.stats().Retries.load();
    Stats.ConflictChecks += Runtime.stats().ConflictChecks.load();
    Stats.TraceEvents += Runtime.stats().TraceEvents.load();
    Stats.EscapedAccesses += Runtime.stats().EscapedAccesses.load();
    Stats.SerialFallbacks += Runtime.stats().SerialFallbacks.load();
    Stats.TaskExceptions += Runtime.stats().TaskExceptions.load();
    Stats.TaskFailures += Runtime.stats().TaskFailures.load();
    Stats.FaultsInjected += Runtime.stats().FaultsInjected.load();
    Stats.CancelledTasks += Runtime.stats().CancelledTasks.load();
    return Outcome;
  }

  // Threaded engine: time the sequential baseline on a state copy, then
  // the parallel run on the live state.
  using Clock = std::chrono::steady_clock;
  {
    stm::Snapshot Copy = State;
    auto Start = Clock::now();
    for (size_t I = 0, E = Tasks.size(); I != E; ++I) {
      stm::TxContext Tx(Copy, static_cast<uint32_t>(I + 1), Reg);
      try {
        Tasks[I](Tx);
      } catch (...) {
        // The baseline only provides the speedup denominator; a
        // throwing task contributes its partial work and no state
        // change, matching the parallel engines.
        continue;
      }
      for (const stm::LogEntry &Entry : Tx.log())
        Copy = stm::applyToSnapshot(Copy, Entry.Loc, Entry.Op);
    }
    Outcome.SequentialTime =
        std::chrono::duration<double>(Clock::now() - Start).count();
  }

  // The threaded engine: per-shard histories, detection windows and
  // commit points (DESIGN.md §11); one shard by default.
  stm::ShardedConfig ThreadCfg;
  ThreadCfg.NumThreads = Config.Threads;
  ThreadCfg.NumShards = Config.Shards;
  ThreadCfg.Ordered = Ordered;
  ThreadCfg.ReclaimLogs = Config.ReclaimLogs;
  ThreadCfg.RecordTrace = Config.RecordTrace;
  ThreadCfg.HistorySegmentRecords = Config.HistorySegmentRecords;
  ThreadCfg.Resilience = Config.Resilience;
  ThreadCfg.Faults = Config.Faults;
  ThreadCfg.Obs = ObsSink.get();
  ThreadCfg.Cancel = Config.Cancel;
  ThreadCfg.Rec = RecSink.get();
  stm::ShardedRuntime Runtime(Reg, *Detector, ThreadCfg);
  Runtime.setInitialState(State);
  auto Start = Clock::now();
  Runtime.run(Tasks);
  Outcome.ParallelTime =
      std::chrono::duration<double>(Clock::now() - Start).count();
  State = Runtime.sharedState();
  if (Config.RecordTrace)
    Trace = Runtime.trace();
  Outcome.Failures = Runtime.failures();
  const stm::RunStats &R = Runtime.stats();
  Stats.Tasks += R.Tasks.load();
  Stats.Commits += R.Commits.load();
  Stats.Retries += R.Retries.load();
  Stats.ConflictChecks += R.ConflictChecks.load();
  Stats.ValidationFailures += R.ValidationFailures.load();
  Stats.TraceEvents += R.TraceEvents.load();
  Stats.EscapedAccesses += R.EscapedAccesses.load();
  Stats.SerialFallbacks += R.SerialFallbacks.load();
  Stats.TaskExceptions += R.TaskExceptions.load();
  Stats.TaskFailures += R.TaskFailures.load();
  Stats.FaultsInjected += R.FaultsInjected.load();
  Stats.CrossShardCommits += R.CrossShardCommits.load();
  Stats.EmptyCommits += R.EmptyCommits.load();
  Stats.CancelledTasks += R.CancelledTasks.load();
  return Outcome;
}
