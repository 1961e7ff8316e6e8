//===----------------------------------------------------------------------===//
///
/// \file
/// The `serve-open` workload: an in-process serve::Service fed by one
/// generator thread, the scheduler on the main thread.
///
///  1. Open loop at a fixed rate (OpenRatePerS): each submission is due
///     on a fixed schedule and its latency runs from the due time to its
///     reply, so a stall is charged to every submission it delays.
///  2. Closed loop with a fixed window of outstanding submissions
///     (ClosedWindow, below the lane cap, so nothing is shed), in Pairs
///     stretches. After each stretch has drained, the generator replays
///     the next stretch of the same traffic, cut into BatchMax-sized
///     batches, through Janus::runOutOfOrder on the service's engine
///     settings (the path every service batch takes). Committed replies
///     per process CPU second of a stretch over replayed tasks per CPU
///     second of the replay right after it is the share of the engine's
///     efficiency the service keeps through submit, lanes, batching and
///     replies. Both halves of a pair see the same host phase, so the
///     host's speed cancels out of the ratio, and CPU time leaves out
///     what the hypervisor steals, which stalls the service's four
///     threads more than the replay's three. The replay also gives the
///     speedups and, in the traced run, the per-layer engine and detector
///     numbers. In the untraced run every other replay batch is pinned
///     to one CPU and gives speedup_1cpu; the unpinned ones give the
///     CPU-time ratio (and, traced, wall.speedup).
///
/// The rate and the window are absolute, never calibrated per run, so
/// two commits are offered the same traffic.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "janus/serve/Serve.h"
#include "janus/support/Rng.h"

#include <sys/prctl.h>

#include "janus/support/Json.h"

#include <array>
#include <condition_variable>
#include <thread>

using namespace janus;
using namespace janus::core;
using namespace janus::serve;
using namespace perfbench;

namespace {

constexpr unsigned EngineWorkers = 2;
/// About 40% of what the service sustains with the small batches an
/// open loop at this rate forms (each batch pays a thread spawn and a
/// sequential baseline pass).
constexpr double OpenRatePerS = 2000.0;
constexpr uint32_t ClosedWindow = 64;
constexpr uint32_t PoolSize = 32;
/// Queue and lane caps far above what the open loop can back up in a
/// short stall: a shed is a failed operation here.
constexpr uint32_t AdmissionCap = 1u << 16;
/// A set-up takes microseconds, so one set-up sample times SetupParts
/// blocks of SetupsPerPart set-ups; SetupSamples samples are taken before
/// the open loop and after the closed loop each.
constexpr int SetupParts = 20, SetupsPerPart = 100, SetupSamples = 8;
/// Closed-loop stretches, each followed by a replay; call_efficiency
/// is the median over the pairs, so a host stall moves one pair, not
/// the metric.
constexpr size_t Pairs = 10;
/// A replay stretch runs at least MinReplayBatches batches.
constexpr uint32_t MinReplayBatches = 30;
constexpr uint32_t SimBatches = 50;
constexpr uint64_t SimSeed = 100;
/// Shares of --seconds given to the open loop, the closed-loop stretches
/// and the replays.
constexpr double OpenShare = 0.5, ClosedShare = 0.3, ReplayShare = 0.2;
/// Closed-loop submissions per second the id space is sized for (5x what
/// a 4-vCPU Xeon VM sustains); the closed loop ends early if it runs out.
constexpr double MaxClosedRatePerS = 200000.0;

JanusConfig serveConfig(EngineKind Engine, unsigned Threads) {
  JanusConfig C;
  C.Threads = Threads;
  C.Shards = 1;
  C.Detector = DetectorKind::WriteSet;
  C.Engine = Engine;
  return C;
}

ServeConfig serviceConfig() {
  ServeConfig SC;
  SC.QueueCap = AdmissionCap;
  SC.LaneCap = AdmissionCap;
  SC.DrainHardUs = 10000000; // A hard cancel would be a failure.
  return SC;
}

bool isCounterTask(uint32_t I) { return I % 8 == 7; }

/// The pool task of submission \p K: a fixed function of the seed.
uint32_t taskOf(uint64_t Seed, uint64_t K) {
  return static_cast<uint32_t>(
      Rng(Seed * 0x9e3779b97f4a7c15ULL + K).below(PoolSize));
}

/// The serve_soak task pool: mostly 4-slot disjoint writes, every
/// eighth task an add on one shared counter.
struct Pool {
  ObjectId Slots;
  Location Counter;
  std::vector<stm::TaskFn> Tasks;

  explicit Pool(Janus &J)
      : Slots(J.registry().registerObject("slots", "slots.elem")),
        Counter(J.registry().registerObject("counter")) {
    for (uint32_t I = 0; I != PoolSize; ++I) {
      if (isCounterTask(I))
        Tasks.push_back(
            [C = Counter](stm::TxContext &Tx) { Tx.add(C, 1); });
      else
        Tasks.push_back([S = Slots, I](stm::TxContext &Tx) {
          for (int W = 0; W != 4; ++W)
            Tx.write(Location(S, I * 64 + W), Value::of(int64_t(I)));
        });
    }
  }

  /// Checks \p J's state after the tasks named by \p Committed (each
  /// committed exactly once) ran on it.
  bool verify(const Janus &J, const std::vector<uint32_t> &Committed) const {
    int64_t Adds = 0;
    std::vector<bool> Ran(PoolSize, false);
    for (uint32_t I : Committed) {
      Adds += isCounterTask(I);
      Ran[I] = true;
    }
    Value C = J.valueAt(Counter);
    if (Adds ? C != Value::of(Adds) : C.isInt() && C.asInt() != 0)
      return false;
    for (uint32_t I = 0; I != PoolSize; ++I)
      for (int W = 0; W != 4 && Ran[I] && !isCounterTask(I); ++W)
        if (J.valueAt(Location(Slots, I * 64 + W)) !=
            Value::of(int64_t(I)))
          return false;
    return true;
  }
};

/// Shared state of the generator, the reply sink and the main thread.
/// Per submission it keeps one status byte; reply times only for the
/// open loop, whose size the rate fixes.
struct Traffic {
  uint64_t Seed;
  uint64_t OpenN;                ///< Submissions 0 .. OpenN-1 are open loop.
  std::vector<uint8_t> Status;   ///< ReplyStatus, or NoReply.
  std::vector<int64_t> DueNs;    ///< Open loop: due time.
  std::vector<int64_t> ReplyNs;  ///< Open loop: reply time.
  static constexpr uint8_t NoReply = 0xff;
  std::atomic<uint64_t> Replies{0};

  /// Closed loop: committed replies so far, submissions outstanding.
  std::atomic<uint64_t> ClosedCommitted{0};
  std::atomic<uint32_t> Outstanding{0};
  std::mutex WindowMutex;
  std::condition_variable WindowCv;

  /// Sampled by the generator; read after it has been joined.
  StealTimeline Steal;

  Traffic(uint64_t Seed, uint64_t OpenN, uint64_t ClosedCap)
      : Seed(Seed), OpenN(OpenN), Status(OpenN + ClosedCap, NoReply),
        DueNs(OpenN, 0), ReplyNs(OpenN, 0) {}

  /// The reply sink.
  void onReply(const Reply &R) {
    if (R.SubId >= Status.size())
      return;
    Status[R.SubId] = static_cast<uint8_t>(R.Status);
    if (R.SubId < OpenN)
      ReplyNs[R.SubId] = nowNs();
    else if (R.Status == ReplyStatus::Committed)
      ClosedCommitted.fetch_add(1, std::memory_order_relaxed);
    Replies.fetch_add(1, std::memory_order_acq_rel);
    if (R.SubId >= OpenN &&
        Outstanding.fetch_sub(1, std::memory_order_acq_rel) - 1 ==
            ClosedWindow / 2) {
      std::lock_guard<std::mutex> Lock(WindowMutex);
      WindowCv.notify_one();
    }
  }
};

/// Batch \p B of the traffic of \p Seed cut into \p BatchMax-sized
/// batches of \p P's tasks; appends the pool indices to \p Ran.
std::vector<stm::TaskFn> batchOf(const Pool &P, uint64_t Seed,
                                 uint32_t BatchMax, uint64_t B,
                                 std::vector<uint32_t> &Ran) {
  std::vector<stm::TaskFn> Out;
  for (uint32_t I = 0; I != BatchMax; ++I) {
    const uint32_t Task = taskOf(Seed, B * BatchMax + I);
    Out.push_back(P.Tasks[Task]);
    Ran.push_back(Task);
  }
  return Out;
}

/// The batch replay of the traffic on its own Janus instance.
struct Replay {
  Janus J;
  Pool P;
  uint64_t Seed;
  uint32_t BatchMax;
  /// Every other batch runs pinned to one CPU (the next CPU each time;
  /// the engine's workers inherit the pin), as the batch workloads'
  /// untraced rounds do. The traced run pins none.
  bool PinEveryOther;
  std::vector<uint32_t> Ran; ///< Pool index of every replayed task.
  uint64_t Batches = 0, FailedTasks = 0;
  /// Over the unpinned batches.
  double CallS = 0.0, SeqS = 0.0, ParS = 0.0;
  std::vector<Timed> Speedup; ///< Per unpinned batch.
  /// Per pinned batch. A batch takes about 0.1 ms, so a hypervisor
  /// preemption (milliseconds) that lands in one swamps that batch: the
  /// median leaves such batches out, where a ratio of sums would follow
  /// how many were hit.
  std::vector<double> PinnedSpeedup;

  Replay(const JanusConfig &Cfg, uint64_t Seed, uint32_t BatchMax,
         bool PinEveryOther)
      : J(Cfg), P(J), Seed(Seed), BatchMax(BatchMax),
        PinEveryOther(PinEveryOther) {}

  /// Replays the next batches for at least \p Seconds and
  /// MinReplayBatches batches. \returns the tasks of the unpinned
  /// batches and adds the process CPU time they took to \p CpuS.
  uint64_t runFor(double Seconds, StealTimeline &Steal, double &CpuS) {
    const double End = nowS() + Seconds;
    uint64_t Tasks = 0;
    for (uint32_t N = 0; N < MinReplayBatches || nowS() < End; ++N) {
      const bool Pin = PinEveryOther && Batches % 2 == 1;
      const size_t Before = Ran.size();
      std::vector<stm::TaskFn> Batch =
          batchOf(P, Seed, BatchMax, Batches++, Ran);
      RunOutcome R;
      if (Pin) {
        runPinned(static_cast<unsigned>(Batches / 2),
                  [&] { R = J.runOutOfOrder(Batch); });
        PinnedSpeedup.push_back(R.speedup());
      } else {
        const double Cpu0 = processCpuS();
        const int64_t Start = nowNs();
        R = J.runOutOfOrder(Batch);
        const int64_t Stop = nowNs();
        CpuS += processCpuS() - Cpu0;
        Tasks += Ran.size() - Before;
        CallS += static_cast<double>(Stop - Start) / 1e9;
        SeqS += R.SequentialTime;
        ParS += R.ParallelTime;
        Speedup.push_back({Start, Stop, R.speedup()});
      }
      FailedTasks += R.Failures.size();
      Steal.sampleIfDue();
    }
    return Tasks;
  }
};

/// One closed-loop stretch and the replay right after it.
struct PairSample {
  int64_t StartNs = 0, ClosedEndNs = 0, EndNs = 0;
  uint64_t Commits = 0, Tasks = 0;
  double ClosedCpuS = 0.0, ReplayCpuS = 0.0;
};

struct GeneratorOut {
  uint64_t ClosedN = 0;
  double OpenS = 0.0;
  std::vector<PairSample> Pairs;
  std::vector<double> LagUs, SubmitNs;
  bool TimedOut = false;
};

/// Waits until every submission so far has its reply.
bool awaitReplies(const Traffic &T, uint64_t N) {
  const double Deadline = nowS() + 30.0;
  while (T.Replies.load(std::memory_order_acquire) < N)
    if (nowS() > Deadline)
      return false;
    else
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  return true;
}

void generate(Service &S, Traffic &T, Replay &R, const Options &O,
              GeneratorOut &G) {
  // Wake close to each due time (the default timer slack is 50 us).
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const bool TimeSubmit = O.Trace;

  // Phase 1: open loop.
  G.LagUs.reserve(T.OpenN);
  const int64_t Start = nowNs() + 1000000;
  for (uint64_t K = 0; K != T.OpenN; ++K) {
    const int64_t Due =
        Start + static_cast<int64_t>(static_cast<double>(K) * 1e9 /
                                     OpenRatePerS);
    if (Due > nowNs())
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(Due)));
    T.DueNs[K] = Due;
    T.Steal.sampleIfDue();
    const int64_t Sent = nowNs();
    G.LagUs.push_back(static_cast<double>(Sent - Due) / 1e3);
    S.submit(1, K, taskOf(T.Seed, K));
    if (TimeSubmit)
      G.SubmitNs.push_back(static_cast<double>(nowNs() - Sent));
  }
  G.OpenS = static_cast<double>(nowNs() - Start) / 1e9;
  if (!awaitReplies(T, T.OpenN)) {
    G.TimedOut = true;
    S.requestStop();
    return;
  }

  // Phase 2: closed-loop stretches, ClosedWindow submissions outstanding
  // (refilled when half the window has replied), each drained and then
  // followed by a replay.
  const int64_t StretchNs = static_cast<int64_t>(
      O.Seconds * ClosedShare / static_cast<double>(Pairs) * 1e9);
  const double ReplayS = O.Seconds * ReplayShare / static_cast<double>(Pairs);
  uint64_t K = T.OpenN;
  for (size_t I = 0; I != Pairs && K < T.Status.size(); ++I) {
    PairSample P;
    P.StartNs = nowNs();
    const double Cpu0 = processCpuS();
    const uint64_t Committed0 = T.ClosedCommitted.load();
    while (nowNs() < P.StartNs + StretchNs && K < T.Status.size()) {
      while (T.Outstanding.load(std::memory_order_acquire) < ClosedWindow &&
             K < T.Status.size()) {
        T.Outstanding.fetch_add(1, std::memory_order_acq_rel);
        S.submit(1, K, taskOf(T.Seed, K));
        ++K;
      }
      T.Steal.sampleIfDue();
      std::unique_lock<std::mutex> Lock(T.WindowMutex);
      T.WindowCv.wait_for(Lock, std::chrono::milliseconds(1), [&] {
        return T.Outstanding.load(std::memory_order_acquire) <=
               ClosedWindow / 2;
      });
    }
    if (!awaitReplies(T, K)) {
      G.TimedOut = true;
      break;
    }
    P.ClosedEndNs = nowNs();
    const double Cpu1 = processCpuS();
    P.ClosedCpuS = Cpu1 - Cpu0;
    P.Commits = T.ClosedCommitted.load() - Committed0;
    P.Tasks = R.runFor(ReplayS, T.Steal, P.ReplayCpuS);
    P.EndNs = nowNs();
    G.Pairs.push_back(P);
  }
  G.ClosedN = K - T.OpenN;
  T.Steal.sample();
  S.requestStop();
}

/// Takes \p Samples set-up samples (Janus construction, the task pool,
/// Service construction), each on the next CPU: SetupParts parts of
/// SetupsPerPart set-ups, each part after one reference kernel unit.
void sampleSetups(const JanusConfig &Cfg, const ServeConfig &SC, int Samples,
                  StealTimeline &Steal, std::vector<Timed> &Out) {
  Steal.sample(); // The set-ups are an interval of their own.
  for (int B = 0; B != Samples; ++B) {
    Timed Sample{nowNs(), 0, 0.0};
    runPinned(B, [&] {
      SetupClock Clock;
      for (int Part = 0; Part != SetupParts; ++Part) {
        Clock.reference(1);
        Clock.time([&] {
          for (int I = 0; I != SetupsPerPart; ++I) {
            Janus J(Cfg);
            Pool P(J);
            Service S(J, P.Tasks, SC);
          }
        });
      }
      Clock.reference(1);
      Sample.Value = Clock.scaledS() / (SetupParts * SetupsPerPart);
    });
    Sample.EndNs = nowNs();
    Out.push_back(Sample);
  }
  Steal.sample();
}

} // namespace

void perfbench::runServeOpen(const Options &O, Result &Out) {
  const ServeConfig SC = serviceConfig();
  const JanusConfig Cfg = serveConfig(EngineKind::Threaded, EngineWorkers);
  SpanLog *Log = O.Trace ? &spanLog() : nullptr;
  const int Samples = O.Short ? 1 : SetupSamples;

  const uint64_t OpenN =
      static_cast<uint64_t>(OpenRatePerS * O.Seconds * OpenShare);
  Traffic T(O.Seed, OpenN,
            static_cast<uint64_t>(O.Seconds * ClosedShare * MaxClosedRatePerS));
  std::vector<Timed> SetupS;
  sampleSetups(Cfg, SC, Samples, T.Steal, SetupS);

  Janus J(Cfg);
  Pool P(J);
  Service S(J, P.Tasks, SC);
  S.setReplySink([&T](const Reply &R) { T.onReply(R); });
  Replay R(Cfg, O.Seed, SC.BatchMax, !O.Trace);

  GeneratorOut G;
  std::thread Generator([&] { generate(S, T, R, O, G); });
  S.serve();
  Generator.join();
  const ServeReport Rep = S.report();
  StealTimeline &Steal = T.Steal;

  // Reply accounting: every submission exactly one reply, all
  // committed, and the final state matches the committed tasks.
  const uint64_t Submitted = OpenN + G.ClosedN;
  Out.attempt(Submitted);
  std::vector<uint32_t> CommittedTasks;
  uint64_t NotCommitted = 0;
  // Open-loop latencies; those of submissions in flight while the host
  // was stolen are left out of latency_p50_us.
  std::vector<Timed> Latency;
  Latency.reserve(OpenN);
  for (uint64_t K = 0; K != Submitted; ++K) {
    if (T.Status[K] != static_cast<uint8_t>(ReplyStatus::Committed)) {
      ++NotCommitted;
      continue;
    }
    CommittedTasks.push_back(taskOf(O.Seed, K));
    if (K < OpenN)
      Latency.push_back({T.DueNs[K], T.ReplyNs[K],
                         static_cast<double>(T.ReplyNs[K] - T.DueNs[K]) /
                             1e3});
  }
  if (NotCommitted)
    Out.fail(NotCommitted, "submissions without a Committed reply");
  if (G.TimedOut || !Rep.clean() || !Rep.DrainedInTime ||
      Rep.Received != Submitted || T.Replies.load() != Submitted)
    Out.wrong("the service did not end clean and drained in time, with "
              "exactly one reply per submission");
  if (!P.verify(J, CommittedTasks))
    Out.fail(Submitted, "the service's final state does not match its "
                        "committed submissions");
  Out.attempt(R.Ran.size());
  if (R.FailedTasks)
    Out.fail(R.FailedTasks, "replay batches had failed tasks");
  if (!R.P.verify(R.J, R.Ran))
    Out.fail(R.Ran.size(), "batch replay final state is wrong");
  sampleSetups(Cfg, SC, Samples, Steal, SetupS);

  // Per pair: closed-loop committed replies per CPU second over replayed
  // tasks per CPU second, and the closed loop's wall-clock rate.
  auto Ratio = [](double A, double B) { return B > 0.0 ? A / B : 0.0; };
  std::vector<Timed> Efficiency, ClosedPerS;
  for (const PairSample &Pr : G.Pairs) {
    Efficiency.push_back(
        {Pr.StartNs, Pr.EndNs,
         Ratio(Ratio(static_cast<double>(Pr.Commits), Pr.ClosedCpuS),
               Ratio(static_cast<double>(Pr.Tasks), Pr.ReplayCpuS))});
    ClosedPerS.push_back(
        {Pr.StartNs, Pr.ClosedEndNs,
         Ratio(static_cast<double>(Pr.Commits),
               static_cast<double>(Pr.ClosedEndNs - Pr.StartNs) / 1e9)});
  }

  // A traced run replays every batch through the traced engine too.
  double TracedParS = 0.0;
  LayerTotals Layers;
  Layers.Workers = EngineWorkers;
  if (Log) {
    Janus JT(Cfg);
    Pool PT(JT);
    std::vector<uint32_t> TracedRan;
    for (uint64_t B = 0; B != R.Batches; ++B) {
      std::vector<stm::TaskFn> Traced =
          batchOf(PT, O.Seed, SC.BatchMax, B, TracedRan);
      Out.attempt(Traced.size());
      TracedRun TR = tracedRun(JT, Traced, false, *Log, 0,
                               static_cast<uint32_t>(B));
      TracedParS += TR.WallS;
      Layers.add(TR);
      if (TR.Failures)
        Out.fail(TR.Failures, "traced replay batch had failed tasks");
    }
    if (!PT.verify(JT, TracedRan))
      Out.fail(TracedRan.size(), "traced batch replay final state is wrong");
  }

  // Deterministic simulated speedup over fixed batches.
  Janus JS(serveConfig(EngineKind::Simulated, 8));
  Pool PS(JS);
  std::vector<uint32_t> SimRan;
  double SimSeq = 0.0, SimPar = 0.0, SimStart = nowS();
  for (uint32_t B = 0; B != SimBatches; ++B) {
    std::vector<stm::TaskFn> Batch = batchOf(PS, SimSeed, SC.BatchMax, B,
                                             SimRan);
    Out.attempt(Batch.size());
    RunOutcome RS = JS.runOutOfOrder(Batch);
    SimSeq += RS.SequentialTime;
    SimPar += RS.ParallelTime;
    if (!RS.Failures.empty())
      Out.fail(RS.Failures.size(), "sim batch had failed tasks");
  }
  const double SimWallS = nowS() - SimStart;
  if (!PS.verify(JS, SimRan))
    Out.fail(SimRan.size(), "sim batch final state is wrong");

  JsonWriter Settings;
  Settings.beginObject();
  Settings.field("open_rate_per_s", OpenRatePerS);
  Settings.field("closed_window", ClosedWindow);
  Settings.field("engine_workers", EngineWorkers);
  Settings.field("batch_max", SC.BatchMax);
  Settings.field("open_samples", static_cast<uint64_t>(Latency.size()));
  Settings.field("replay_batches", R.Batches);
  Settings.endObject();
  Out.settings(Settings.str());

  if (!O.Trace) {
    Out.metric("speedup_1cpu", median(R.PinnedSpeedup), "x");
    Out.metric("sim_speedup_8c", Ratio(SimSeq, SimPar), "x");
    Out.metric("call_efficiency", median(calmValues(Efficiency, Steal)),
               "ratio");
    Out.metric("setup_s", median(calmValues(SetupS, Steal)), "s");
    Out.metric("peak_rss_mb", peakRssMb(), "MiB");
    return;
  }
  size_t CalmN = 0;
  const std::vector<double> CalmLatencyUs = calmValues(Latency, Steal, &CalmN);
  const std::vector<double> CalmClosedPerS =
      calmValues(ClosedPerS, Steal, &CalmN);
  std::vector<double> LatencyUs;
  for (const Timed &L : Latency)
    LatencyUs.push_back(L.Value);
  Out.metric("wall.speedup", median(calmValues(R.Speedup, Steal)), "x");
  Out.metric("wall.tasks_per_s", median(CalmClosedPerS), "tasks/s");
  Out.metric("wall.latency_p50_us", quantile(CalmLatencyUs, 0.5), "us");
  Out.metric("core.baseline_frac", Ratio(R.SeqS, R.CallS), "ratio");
  emitBypassed({{"training.train_s", "s"},
                {"training.cache_entries", "count"},
                {"training.artifact_bytes", "bytes"}},
               Out);
  Layers.emit(*Log, Out);
  Out.metric("sim.retry_ratio", JS.runStats().retryRatio(), "ratio");
  Out.metric("sim.wall_s", SimWallS, "s");
  Out.metric("serve.submit_ns_p50", quantile(G.SubmitNs, 0.5), "ns");
  // The tail tracks hypervisor steal on a shared host, so it is reported
  // here, without a bound, beside host.steal_frac.
  Out.metric("serve.latency_p90_us", quantile(LatencyUs, 0.9), "us");
  Out.metric("serve.latency_p99_us", quantile(LatencyUs, 0.99), "us");
  Out.metric("serve.batches", static_cast<double>(Rep.Batches), "count");
  Out.metric("serve.mean_batch",
             Ratio(static_cast<double>(Rep.Received - Rep.Sheds),
                   static_cast<double>(Rep.Batches)),
             "count");
  Out.metric("serve.sheds", static_cast<double>(Rep.Sheds), "count");
  Out.metric("serve.watchdog_escalations",
             static_cast<double>(Rep.WatchdogEscalations), "count");
  Out.metric("serve.retry_ratio", J.runStats().retryRatio(), "ratio");
  Out.metric("host.excluded_frac",
             1.0 - static_cast<double>(CalmN) /
                       static_cast<double>(Latency.size() + ClosedPerS.size()),
             "ratio");
  Out.metric("gen.lag_p99_us", quantile(G.LagUs, 0.99), "us");
  Out.metric("gen.offered_per_s",
             Ratio(static_cast<double>(OpenN), G.OpenS), "1/s");
  emitTraceOverhead(R.ParS, TracedParS, Out);
}
