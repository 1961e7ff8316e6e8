//===----------------------------------------------------------------------===//
///
/// \file
/// The batch workloads: `paper-mix` (the five paper benchmarks, one
/// production payload of each per round, single commit point) and
/// `spec-sharded` (HashChurn and SSCA2, spec-table detection, 8 commit
/// shards).
///
/// Each payload runs on a fresh core::Janus that imports the training
/// artifact exported once during set-up (a reused instance carries the
/// previous payload's state and fails Workload::verify), and every
/// payload's final state must pass Workload::verify.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "janus/support/Json.h"
#include "janus/workloads/Workload.h"

using namespace janus;
using namespace janus::core;
using namespace janus::workloads;
using namespace perfbench;

namespace {

struct BatchSpec {
  std::vector<std::string> Benchmarks;
  unsigned Shards;
  /// Set-up samples per run: one before the rounds (it provides the
  /// training artifacts), the others spread over the rounds so that they
  /// see the same host phases as the rounds do. Cheap set-ups take more.
  size_t SetupSamples;
  /// Set-ups timed back to back as one set-up sample, so that a sample
  /// lasts long enough to rise above timer and scheduler noise.
  unsigned SetupsPerSample;
  /// Reference kernel units run before each benchmark's set-up.
  unsigned RefUnits;
};

/// Engine workers of the threaded runs (the host has 4 vCPUs).
constexpr unsigned Workers = 4;
/// Simulated cores of the deterministic sim_speedup_8c runs.
constexpr unsigned SimCores = 8;
/// The fixed production payload of the sim runs and of the peak-RSS
/// round (the paper's first production input), independent of --seed.
constexpr uint64_t SimPayloadSeed = 100;
constexpr int PeakRssRounds = 3;

/// The `janus run` defaults, on the threaded engine.
JanusConfig runConfig(unsigned Shards) {
  JanusConfig C;
  C.Threads = Workers;
  C.Shards = Shards;
  C.Detector = DetectorKind::Sequence;
  C.Engine = EngineKind::Threaded;
  C.Sequence.UseAbstraction = true;
  C.Sequence.OnlineFallback = true;
  C.Sequence.Specs = conflict::SpecMode::On;
  C.Training.InferWAWRelaxation = true;
  C.Training.MaxConcat = 8;
  return C;
}

/// Production payload seeds are drawn from the benchmark's --seed, away
/// from the training seeds 1-5.
uint64_t payloadSeed(uint64_t Seed, uint32_t Round) {
  return 100 + Seed * 100000 + Round;
}

/// A fresh instance for one payload.
struct Instance {
  std::unique_ptr<Janus> J;
  std::unique_ptr<Workload> W;
};

Instance makeInstance(const std::string &Benchmark, const JanusConfig &Cfg,
                      const std::string &Artifact, Result &Out) {
  Instance I{std::make_unique<Janus>(Cfg), workloadByName(Benchmark)};
  I.W->setup(*I.J);
  if (!I.J->importTrainingArtifact(Artifact))
    Out.wrong("cannot import the training artifact of " + Benchmark);
  return I;
}

/// One set-up of every benchmark: construction, Workload::setup,
/// training on the 5 paper training payloads, artifact export. Each part
/// (construction and Workload::setup, each training payload, the export)
/// is timed on \p Clock, with RefUnits units of the reference kernel
/// before it.
struct Setup {
  double TrainS = 0.0; ///< Thread CPU seconds.
  size_t CacheEntries = 0, ArtifactBytes = 0;
  std::vector<std::string> Artifacts; ///< One per benchmark.
};

Setup setUp(const BatchSpec &S, SetupClock &Clock, SpanLog *Log) {
  Setup Out;
  for (const std::string &Name : S.Benchmarks) {
    std::unique_ptr<Janus> J;
    std::unique_ptr<Workload> W;
    Clock.reference(S.RefUnits);
    Clock.time([&] {
      J = std::make_unique<Janus>(runConfig(S.Shards));
      W = workloadByName(Name);
      W->setup(*J);
    });
    for (const PayloadSpec &P : W->trainingPayloads(5)) {
      Clock.reference(S.RefUnits);
      Clock.time([&] {
        double TrainStart = threadCpuS();
        int64_t SpanStart = nowNs();
        J->train(W->makeTasks(P));
        if (Log)
          Log->record("training.train", SpanStart, nowNs(), 0, 0);
        Out.TrainS += threadCpuS() - TrainStart;
      });
    }
    Clock.reference(S.RefUnits);
    Clock.time([&] { Out.Artifacts.push_back(J->exportTrainingArtifact()); });
    Out.CacheEntries += J->cache()->size();
    Out.ArtifactBytes += Out.Artifacts.back().size();
  }
  return Out;
}

void runBatch(const BatchSpec &S, const Options &O, Result &Out) {
  SpanLog *Log = O.Trace ? &spanLog() : nullptr;
  StealTimeline Steal;

  // Set-up samples. Training is deterministic, so every set-up must
  // export the same artifacts.
  std::vector<Timed> SetupS;
  std::vector<double> TrainS;
  std::vector<Setup> Setups;
  auto SampleSetup = [&] {
    Steal.sample(); // The set-up is an interval of its own.
    Timed Sample{nowNs(), 0, 0.0};
    runPinned(SetupS.size(), [&] {
      SetupClock Clock;
      for (unsigned I = 0; I != S.SetupsPerSample; ++I) {
        Setups.push_back(setUp(S, Clock, Log));
        if (Setups.back().Artifacts != Setups.front().Artifacts)
          Out.wrong("training exported different artifacts on repeated "
                    "set-up");
        TrainS.push_back(Setups.back().TrainS);
      }
      Clock.reference(S.RefUnits);
      Sample.Value = Clock.scaledS() / S.SetupsPerSample;
    });
    Sample.EndNs = nowNs();
    SetupS.push_back(Sample);
    Steal.sample();
  };
  SampleSetup();
  const std::vector<std::string> Artifacts = Setups.front().Artifacts;
  const size_t SetupsWanted = O.Short ? 1 : S.SetupSamples;

  // One round on the fixed production payload SimPayloadSeed of every
  // benchmark, on engine configuration C.
  struct FixedRound {
    double Seq = 0.0, Par = 0.0;
    uint64_t Retries = 0, Commits = 0;
  };
  auto RunFixed = [&](const JanusConfig &C, const std::string &Tag) {
    FixedRound F;
    for (size_t B = 0; B != S.Benchmarks.size(); ++B) {
      const PayloadSpec P{SimPayloadSeed, true};
      Instance I = makeInstance(S.Benchmarks[B], C, Artifacts[B], Out);
      std::vector<stm::TaskFn> Tasks = I.W->makeTasks(P);
      Out.attempt(Tasks.size());
      RunOutcome R = I.W->ordered() ? I.J->runInOrder(Tasks)
                                    : I.J->runOutOfOrder(Tasks);
      F.Seq += R.SequentialTime;
      F.Par += R.ParallelTime;
      F.Retries += I.J->runStats().Retries.load();
      F.Commits += I.J->runStats().Commits.load();
      if (!I.W->verify(*I.J, P))
        Out.fail(Tasks.size(), Tag + " " + S.Benchmarks[B] + " failed verify");
      else if (!R.Failures.empty())
        Out.fail(R.Failures.size(), Tag + " " + S.Benchmarks[B] +
                                        " had failed tasks");
    }
    return F;
  };

  // Peak RSS: the median over PeakRssRounds threaded rounds on the fixed
  // payloads, before the timed rounds, so that it follows neither the
  // sizes of --seed's payloads nor what the rounds leave in the heap.
  const JanusConfig Cfg = runConfig(S.Shards);
  std::vector<double> PeakRssMb;
  for (int I = 0; I != PeakRssRounds; ++I)
    PeakRssMb.push_back(peakRssMbOf([&] { RunFixed(Cfg, "fixed"); }));

  // Timed rounds: one production payload of every benchmark per round.
  //
  // The untraced run pins each call to one CPU (the next CPU for the
  // next call); the engine's workers inherit the pin and time-share that
  // CPU. The sequential baseline and the parallel run then see the same
  // vCPU back to back, with no cross-CPU wakeups, so hypervisor steal
  // and the vCPU's speed cancel out of their ratio. It runs rounds for
  // --seconds and pools the phase times of all of them.
  //
  // The traced run leaves the workers on every CPU (the all-CPU wall
  // numbers) and replays each payload through the traced engine right
  // after its untraced run. Those numbers move with steal, so it runs
  // rounds until --seconds of them ran on a calm host, for at most 1.5
  // times --seconds, waits for calm again after a stolen round, and takes
  // medians over the calmer half of the rounds.
  const bool Pinned = !Log;
  double CallS = 0.0, SeqS = 0.0, ParS = 0.0, TracedParS = 0.0;
  struct RoundSample {
    int64_t StartNs, EndNs;
    double Us, TasksPerS, Speedup;
  };
  std::vector<RoundSample> Rounds;
  LayerTotals Layers;
  Layers.Workers = Workers;
  double CalmS = 0.0;
  const double Cap = nowS() + 1.5 * O.Seconds;
  uint32_t Round = 0;
  do {
    const uint64_t RoundId = SpanLog::reserveId();
    const int64_t RoundStart = nowNs();
    double RoundS = 0.0, RoundSeq = 0.0, RoundPar = 0.0;
    uint64_t RoundCommitted = 0;
    for (size_t B = 0; B != S.Benchmarks.size(); ++B) {
      const std::string &Name = S.Benchmarks[B];
      const PayloadSpec P{payloadSeed(O.Seed, Round), true};
      Instance I = makeInstance(Name, Cfg, Artifacts[B], Out);
      std::vector<stm::TaskFn> Tasks = I.W->makeTasks(P);
      const bool Ordered = I.W->ordered();
      Out.attempt(Tasks.size());

      RunOutcome R;
      auto Run = [&] {
        R = Ordered ? I.J->runInOrder(Tasks) : I.J->runOutOfOrder(Tasks);
      };
      int64_t Start = nowNs();
      if (Pinned)
        runPinned(Round * S.Benchmarks.size() + B, Run);
      else
        Run();
      int64_t End = nowNs();
      if (Log)
        Log->record("core.call", Start, End, RoundId, Round);
      const double Call = static_cast<double>(End - Start) / 1e9;
      CallS += Call;
      RoundS += Call;
      SeqS += R.SequentialTime;
      ParS += R.ParallelTime;
      RoundSeq += R.SequentialTime;
      RoundPar += R.ParallelTime;
      if (!I.W->verify(*I.J, P))
        Out.fail(Tasks.size(), Name + " payload " + std::to_string(P.Seed) +
                                   " failed verify");
      else if (!R.Failures.empty())
        Out.fail(R.Failures.size(), Name + " payload " +
                                        std::to_string(P.Seed) +
                                        " had failed tasks");
      RoundCommitted += Tasks.size() - R.Failures.size();

      if (!Log)
        continue;
      Instance T = makeInstance(Name, Cfg, Artifacts[B], Out);
      std::vector<stm::TaskFn> Replay = T.W->makeTasks(P);
      Out.attempt(Replay.size());
      TracedRun TR = tracedRun(*T.J, Replay, Ordered, *Log, RoundId, Round);
      TracedParS += TR.WallS;
      Layers.add(TR);
      if (!T.W->verify(*T.J, P))
        Out.fail(Replay.size(), "traced " + Name + " payload " +
                                    std::to_string(P.Seed) +
                                    " failed verify");
      else if (TR.Failures)
        Out.fail(TR.Failures, "traced " + Name + " payload " +
                                  std::to_string(P.Seed) +
                                  " had failed tasks");
    }
    const int64_t RoundEnd = nowNs();
    if (Log)
      Log->record("bench.round", RoundStart, RoundEnd, RoundId, 0, Round);
    Rounds.push_back({RoundStart, RoundEnd, RoundS * 1e6,
                      static_cast<double>(RoundCommitted) / RoundS,
                      RoundSeq / RoundPar});
    ++Round;
    Steal.sample(); // Every round is an interval of its own.
    if (Pinned || Steal.calm(RoundStart, RoundEnd)) {
      CalmS += static_cast<double>(RoundEnd - RoundStart) / 1e9;
    } else if (!O.Short) {
      waitForCalmHost(std::max(0.0, Cap - nowS()));
      Steal.sample(); // The wait is an interval of its own.
    }
    if (SetupS.size() < SetupsWanted &&
        CalmS >= O.Seconds * SetupS.size() / SetupsWanted)
      SampleSetup();
  } while ((CalmS < O.Seconds || Rounds.size() < 2) && nowS() < Cap);
  while (SetupS.size() < SetupsWanted)
    SampleSetup();
  Steal.sample();
  auto CalmRounds = [&](double RoundSample::*Field) {
    std::vector<Timed> V;
    for (const RoundSample &R : Rounds)
      V.push_back({R.StartNs, R.EndNs, R.*Field});
    return calmerHalf(V, Steal);
  };

  // Figure 9 as reproduced: the deterministic simulator, 8 cores, over
  // the fixed payloads.
  JanusConfig SimCfg = Cfg;
  SimCfg.Engine = EngineKind::Simulated;
  SimCfg.Threads = SimCores;
  const double SimStart = nowS();
  const FixedRound Sim = RunFixed(SimCfg, "sim");
  const double SimWallS = nowS() - SimStart;

  JsonWriter Settings;
  Settings.beginObject();
  Settings.field("workers", Workers);
  Settings.field("pinned_rounds", Pinned);
  Settings.field("shards", S.Shards);
  Settings.field("sim_cores", SimCores);
  Settings.field("setups", static_cast<uint64_t>(Setups.size()));
  Settings.field("rounds", Round);
  Settings.key("benchmarks");
  Settings.beginArray();
  for (const std::string &B : S.Benchmarks)
    Settings.value(B);
  Settings.endArray();
  Settings.endObject();
  Out.settings(Settings.str());

  auto Ratio = [](double A, double B) { return B > 0.0 ? A / B : 0.0; };
  if (!O.Trace) {
    Out.metric("speedup_1cpu", Ratio(SeqS, ParS), "x");
    Out.metric("sim_speedup_8c", Ratio(Sim.Seq, Sim.Par), "x");
    Out.metric("call_efficiency",
               Ratio(SeqS + ParS, CallS), "ratio");
    Out.metric("setup_s", median(calmValues(SetupS, Steal)), "s");
    Out.metric("peak_rss_mb", median(PeakRssMb), "MiB");
    return;
  }
  Out.metric("wall.speedup", median(CalmRounds(&RoundSample::Speedup)), "x");
  Out.metric("wall.tasks_per_s", median(CalmRounds(&RoundSample::TasksPerS)),
             "tasks/s");
  Out.metric("wall.latency_p50_us", median(CalmRounds(&RoundSample::Us)),
             "us");
  Out.metric("core.baseline_frac", Ratio(SeqS, CallS), "ratio");
  Out.metric("training.train_s", median(TrainS), "s");
  Out.metric("training.cache_entries",
             static_cast<double>(Setups.front().CacheEntries), "count");
  Out.metric("training.artifact_bytes",
             static_cast<double>(Setups.front().ArtifactBytes), "bytes");
  Layers.emit(*Log, Out);
  size_t Stolen = 0;
  for (const RoundSample &R : Rounds)
    Stolen += !Steal.calm(R.StartNs, R.EndNs);
  Out.metric("host.excluded_frac",
             static_cast<double>(Stolen) / static_cast<double>(Rounds.size()),
             "ratio");
  Out.metric("sim.retry_ratio",
             Ratio(static_cast<double>(Sim.Retries),
                   static_cast<double>(Sim.Commits)),
             "ratio");
  Out.metric("sim.wall_s", SimWallS, "s");
  emitBypassed({{"serve.submit_ns_p50", "ns"},
                {"serve.latency_p90_us", "us"},
                {"serve.latency_p99_us", "us"},
                {"serve.batches", "count"},
                {"serve.mean_batch", "count"},
                {"serve.sheds", "count"},
                {"serve.watchdog_escalations", "count"},
                {"serve.retry_ratio", "ratio"},
                {"gen.lag_p99_us", "us"},
                {"gen.offered_per_s", "1/s"}},
               Out);
  emitTraceOverhead(ParS, TracedParS, Out);
}

} // namespace

void perfbench::runPaperMix(const Options &O, Result &Out) {
  BatchSpec S{{"JGraphT-1", "JGraphT-2", "Weka", "JFileSync", "PMD"},
              1, 5, 1, 10};
  runBatch(S, O, Out);
}

void perfbench::runSpecSharded(const Options &O, Result &Out) {
  BatchSpec S{{"HashChurn", "SSCA2"}, 8, 16, 4, 2};
  runBatch(S, O, Out);
}
