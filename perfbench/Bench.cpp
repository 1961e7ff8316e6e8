#include "Bench.h"

#include "janus/stm/ShardedRuntime.h"
#include "janus/stm/ThreadedRuntime.h"
#include "janus/support/Json.h"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <thread>
#include <unordered_map>

using namespace janus;
using namespace perfbench;

double perfbench::nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t perfbench::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double perfbench::processCpuS() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Secs = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           static_cast<double>(T.tv_usec) / 1e6;
  };
  return Secs(U.ru_utime) + Secs(U.ru_stime);
}

double perfbench::threadCpuS() {
  timespec T{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) / 1e9;
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

double perfbench::peakRssMbOf(const std::function<void()> &Fn) {
  malloc_trim(0);
  bool Reset = false;
  {
    std::ofstream Refs("/proc/self/clear_refs");
    Reset = static_cast<bool>(Refs << "5" << std::flush);
  }
  Fn();
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (Reset && std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return peakRssMb();
}

namespace {

/// Reads (steal, total) jiffies from the aggregate cpu line.
bool readCpuJiffies(uint64_t &Steal, uint64_t &Total) {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  if (!(In >> Cpu) || Cpu != "cpu")
    return false;
  // user nice system idle iowait irq softirq steal [guest guest_nice];
  // guest time is already counted in user/nice.
  uint64_t F[8] = {};
  for (uint64_t &X : F)
    if (!(In >> X))
      return false;
  Steal = F[7];
  Total = 0;
  for (uint64_t X : F)
    Total += X;
  return true;
}

/// Shortest round-trip decimal form of \p V, so a metric keeps all its
/// digits (janus::jsonNumber keeps six). Non-finite values read 0.
std::string formatNumber(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos && Colon + 2 <= Line.size())
        return Line.substr(Colon + 2);
    }
  return "unknown";
}

/// Keeps the reference kernel's result alive.
std::atomic<uint64_t> ReferenceSink{0};

} // namespace

double perfbench::waitForCalmHost(double MaxWaitS) {
  constexpr double ProbeS = 0.5, PeriodS = 5.0;
  const double Start = nowS();
  while (true) {
    StealTimeline Steal;
    std::vector<std::thread> Spinners;
    const double Until = nowS() + ProbeS;
    const unsigned N = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned I = 0; I != N; ++I)
      Spinners.emplace_back([Until] {
        while (nowS() < Until) {
        }
      });
    for (std::thread &T : Spinners)
      T.join();
    Steal.sample();
    const double Waited = nowS() - Start;
    if (Steal.total() < CalmStealFrac || Waited + PeriodS > MaxWaitS)
      return Waited;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(PeriodS - ProbeS));
  }
}

void StealTimeline::sample() {
  Point P{nowNs(), 0, 0};
  readCpuJiffies(P.Steal, P.Total);
  Points.push_back(P);
}

void StealTimeline::sampleIfDue() {
  if (static_cast<double>(nowNs() - Points.back().Ns) / 1e9 >= SamplePeriodS)
    sample();
}

double StealTimeline::stealOver(int64_t FromNs, int64_t ToNs) const {
  auto ByTime = [](const Point &P, int64_t Ns) { return P.Ns < Ns; };
  // The last point at or before FromNs and the first at or after ToNs.
  auto Hi = std::lower_bound(Points.begin(), Points.end(), ToNs, ByTime);
  auto Lo = std::lower_bound(Points.begin(), Points.end(), FromNs, ByTime);
  if (Lo != Points.begin() && (Lo == Points.end() || Lo->Ns > FromNs))
    --Lo;
  if (Hi == Points.end())
    --Hi;
  if (Hi->Total <= Lo->Total)
    return 0.0;
  return static_cast<double>(Hi->Steal - Lo->Steal) /
         static_cast<double>(Hi->Total - Lo->Total);
}

std::vector<double> perfbench::calmValues(const std::vector<Timed> &Samples,
                                         const StealTimeline &Steal,
                                         size_t *Calm) {
  std::vector<double> CalmV, All;
  for (const Timed &S : Samples) {
    All.push_back(S.Value);
    if (Steal.calm(S.StartNs, S.EndNs))
      CalmV.push_back(S.Value);
  }
  if (Calm)
    *Calm += CalmV.size();
  return CalmV.empty() ? All : CalmV;
}

std::vector<double> perfbench::calmerHalf(const std::vector<Timed> &Samples,
                                         const StealTimeline &Steal) {
  std::vector<std::pair<double, size_t>> BySteal;
  for (size_t I = 0; I != Samples.size(); ++I)
    BySteal.push_back(
        {Steal.stealOver(Samples[I].StartNs, Samples[I].EndNs), I});
  std::sort(BySteal.begin(), BySteal.end());
  std::vector<double> Out;
  for (size_t I = 0; I != (Samples.size() + 1) / 2; ++I)
    Out.push_back(Samples[BySteal[I].second].Value);
  return Out;
}

void perfbench::runPinned(unsigned Index, const std::function<void()> &Fn) {
  cpu_set_t Old;
  if (pthread_getaffinity_np(pthread_self(), sizeof(Old), &Old) != 0 ||
      CPU_COUNT(&Old) == 0) {
    Fn();
    return;
  }
  unsigned Skip = Index % static_cast<unsigned>(CPU_COUNT(&Old));
  int Cpu = 0;
  while (!CPU_ISSET(Cpu, &Old) || Skip-- != 0)
    ++Cpu;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpu, &One);
  pthread_setaffinity_np(pthread_self(), sizeof(One), &One);
  Fn();
  pthread_setaffinity_np(pthread_self(), sizeof(Old), &Old);
}

namespace {
/// Runs \p Units units of the reference kernel. \returns the thread CPU
/// seconds they took.
double referenceKernelS(unsigned Units) {
  const double Start = threadCpuS();
  uint64_t X = 0x9e3779b97f4a7c15ULL, Acc = 0;
  for (unsigned U = 0; U != Units; ++U) {
    std::unordered_map<uint64_t, uint64_t> Hash;
    std::map<uint64_t, uint32_t> Tree;
    std::vector<uint64_t> Keys;
    for (uint32_t I = 0; I != 3000; ++I) {
      X ^= X << 13; // xorshift64
      X ^= X >> 7;
      X ^= X << 17;
      Hash[X % 4500] += X;
      Tree.emplace(X % 6750, I);
      Keys.push_back(X);
    }
    std::sort(Keys.begin(), Keys.end());
    Acc += Hash.size() + Tree.size() + Keys[U % Keys.size()];
  }
  ReferenceSink.fetch_add(Acc, std::memory_order_relaxed);
  return threadCpuS() - Start;
}
} // namespace

void SetupClock::reference(unsigned Units) {
  ReferenceCpuS += referenceKernelS(Units);
  ReferenceUnits += Units;
}

void SetupClock::time(const std::function<void()> &Fn) {
  const double Start = threadCpuS();
  Fn();
  SetupCpuS += threadCpuS() - Start;
}

double SetupClock::scaledS() const {
  if (ReferenceCpuS <= 0.0)
    return SetupCpuS;
  return SetupCpuS * ReferenceUnitS * static_cast<double>(ReferenceUnits) /
         ReferenceCpuS;
}

void Result::metric(const std::string &Name, double Value, const char *Unit) {
  Metrics.push_back(Metric{Name, Value, Unit});
}

void Result::fail(uint64_t N, const std::string &Why) {
  Failed += N;
  Correct = false;
  std::fprintf(stderr, "perfbench: FAILED (%llu operations): %s\n",
               static_cast<unsigned long long>(N), Why.c_str());
}

void Result::wrong(const std::string &Why) {
  Correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", Why.c_str());
}

double Result::successFrac() const {
  return Attempted ? 1.0 - static_cast<double>(Failed) /
                               static_cast<double>(Attempted)
                   : 1.0;
}

void Result::print() const {
  for (const Metric &M : Metrics)
    std::printf("%-32s %14.6g %s\n", M.Name.c_str(), M.Value, M.Unit);
  JsonWriter W;
  W.beginObject();
  W.field("correct", correct());
  W.field("attempted", std::max<uint64_t>(1, Attempted));
  W.field("failed", Failed);
  W.key("metrics");
  W.beginObject();
  for (const Metric &M : Metrics) {
    W.key(M.Name);
    W.beginObject();
    W.key("value");
    W.raw(formatNumber(M.Value));
    W.field("unit", M.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  std::printf("%s\n", W.str().c_str());
  std::fflush(stdout);
}

void perfbench::printHostStamp(const Options &O, double StealFrac,
                               double CalmWaitS, const std::string &Settings) {
  const char *Sha = std::getenv("PERFBENCH_GIT_SHA");
  JsonWriter W;
  W.beginObject();
  W.key("host");
  W.beginObject();
  W.field("nproc", std::thread::hardware_concurrency());
  W.field("cpu_model", cpuModel());
  W.field("build_type", PERFBENCH_BUILD_TYPE);
  W.field("janus_obs", PERFBENCH_JANUS_OBS != 0);
  W.field("git_sha", Sha && *Sha ? Sha : "unknown");
  W.field("steal_frac", StealFrac);
  W.field("calm_wait_s", CalmWaitS);
  W.endObject();
  W.field("workload", O.Workload);
  W.field("seed", O.Seed);
  W.field("seconds", O.Seconds);
  W.field("trace", O.Trace);
  W.key("settings");
  W.raw(Settings);
  W.endObject();
  std::printf("%s\n", W.str().c_str());
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint64_t> NextSpanId{1};

/// The calling thread's leased span buffer, handed back at thread exit.
struct Lease {
  SpanLog::Buffer *Buf = nullptr;
  ~Lease() {
    if (Buf)
      spanLog().release(Buf);
  }
};
thread_local Lease ThreadLease;
} // namespace

SpanLog &perfbench::spanLog() {
  static SpanLog Log;
  return Log;
}

SpanLog::Buffer *SpanLog::lease() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!Free.empty()) {
    Buffer *B = Free.back();
    Free.pop_back();
    return B;
  }
  Buffers.push_back(std::make_unique<Buffer>());
  return Buffers.back().get();
}

void SpanLog::release(Buffer *B) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Free.push_back(B);
}

uint64_t SpanLog::reserveId() {
  return NextSpanId.fetch_add(1, std::memory_order_relaxed);
}

void SpanLog::record(const char *Name, int64_t StartNs, int64_t EndNs,
                     uint64_t Id, uint64_t Parent, uint32_t Round) {
  if (!ThreadLease.Buf)
    ThreadLease.Buf = lease();
  ThreadLease.Buf->push_back(Span{Name, StartNs, EndNs, Id, Parent, Round});
}

std::vector<Span> SpanLog::all() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<Span> Out;
  for (const auto &B : Buffers)
    Out.insert(Out.end(), B->begin(), B->end());
  return Out;
}

std::vector<double> SpanLog::durations(const char *Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<double> Out;
  for (const auto &B : Buffers)
    for (const Span &S : *B)
      if (std::string_view(S.Name) == Name)
        Out.push_back(static_cast<double>(S.EndNs - S.StartNs));
  return Out;
}

bool SpanLog::write(const std::string &Path) const {
  std::vector<Span> Spans = all();
  std::sort(Spans.begin(), Spans.end(), [](const Span &A, const Span &B) {
    return A.StartNs < B.StartNs;
  });
  std::ofstream Out(Path, std::ios::trunc);
  Out << "name\tstart_ns\tend_ns\tid\tparent\tround\n";
  for (const Span &S : Spans)
    Out << S.Name << '\t' << S.StartNs << '\t' << S.EndNs << '\t' << S.Id
        << '\t' << S.Parent << '\t' << S.Round << '\n';
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Traced engine runs
//===----------------------------------------------------------------------===//

namespace {

/// Forwards to another detector, recording one "conflict.detect" span
/// per call. Its own statistics stay empty; the wrapped detector keeps
/// counting as usual.
class TimingDetector final : public stm::ConflictDetector {
public:
  TimingDetector(stm::ConflictDetector &Inner, uint64_t Parent,
                 uint32_t Round)
      : Inner(Inner), Parent(Parent), Round(Round) {}

  bool detectConflicts(const stm::Snapshot &Entry, const stm::TxLog &Mine,
                       const std::vector<stm::TxLogRef> &Committed,
                       const ObjectRegistry &Reg) override {
    int64_t Start = nowNs();
    bool Conflict = Inner.detectConflicts(Entry, Mine, Committed, Reg);
    spanLog().record("conflict.detect", Start, nowNs(), Parent, Round);
    return Conflict;
  }

  std::string name() const override { return Inner.name(); }

private:
  stm::ConflictDetector &Inner;
  uint64_t Parent;
  uint32_t Round;
};

/// Fills the engine-independent part of a threaded/sharded engine
/// configuration the way Janus::run* does.
template <typename EngineConfig>
void configureLike(EngineConfig &C, core::Janus &J, bool Ordered) {
  const core::JanusConfig &JC = J.config();
  C.NumThreads = JC.Threads;
  C.Ordered = Ordered;
  C.ReclaimLogs = JC.ReclaimLogs;
  C.RecordTrace = JC.RecordTrace;
  C.HistorySegmentRecords = JC.HistorySegmentRecords;
  C.Resilience = JC.Resilience;
  C.Faults = JC.Faults;
  C.Obs = J.observer();
  C.Cancel = JC.Cancel;
  C.Rec = J.recorder();
}

} // namespace

TracedRun perfbench::tracedRun(core::Janus &J,
                               const std::vector<stm::TaskFn> &Tasks,
                               bool Ordered, SpanLog &Log, uint64_t Parent,
                               uint32_t Round) {
  const uint64_t RunId = SpanLog::reserveId();
  janus::StripedCounter Attempts;
  std::vector<stm::TaskFn> Wrapped;
  Wrapped.reserve(Tasks.size());
  for (const stm::TaskFn &Task : Tasks)
    Wrapped.push_back([&Task, &Log, &Attempts, RunId,
                       Round](stm::TxContext &Tx) {
      ++Attempts;
      int64_t Start = nowNs();
      try {
        Task(Tx);
      } catch (...) {
        Log.record("stm.body", Start, nowNs(), RunId, Round);
        throw;
      }
      Log.record("stm.body", Start, nowNs(), RunId, Round);
    });
  TimingDetector Detector(J.detector(), RunId, Round);

  TracedRun Out;
  auto Drive = [&](auto &Runtime) {
    Runtime.setInitialState(J.sharedState());
    const DetectorCounts Before = DetectorCounts::of(J);
    double Cpu0 = processCpuS();
    int64_t Start = nowNs();
    Runtime.run(Wrapped);
    int64_t End = nowNs();
    Out.CpuS = processCpuS() - Cpu0;
    Out.Detector = DetectorCounts::of(J);
    Out.Detector -= Before;
    Out.WallS = static_cast<double>(End - Start) / 1e9;
    Log.record("stm.run", Start, End, RunId, Parent, Round);
    // Keys are never removed from a snapshot, so setting every key of
    // the final state reproduces it in J.
    Runtime.sharedState().forEach(
        [&J](const Location &Loc, const Value &V) { J.setInitial(Loc, V); });
    Out.Failures = Runtime.failures().size();
    const stm::RunStats &S = Runtime.stats();
    Out.Commits = S.Commits.load();
    Out.Retries = S.Retries.load();
    Out.ValidationFailures = S.ValidationFailures.load();
    Out.CrossShardCommits = S.CrossShardCommits.load();
    Out.SerialFallbacks = S.SerialFallbacks.load();
    Out.TaskExceptions = S.TaskExceptions.load();
  };
  if (J.config().Shards > 1) {
    stm::ShardedConfig C;
    configureLike(C, J, Ordered);
    C.NumShards = J.config().Shards;
    stm::ShardedRuntime Runtime(J.registry(), Detector, C);
    Drive(Runtime);
  } else {
    stm::ThreadedConfig C;
    configureLike(C, J, Ordered);
    stm::ThreadedRuntime Runtime(J.registry(), Detector, C);
    Drive(Runtime);
  }
  Out.Attempts = Attempts.load();
  return Out;
}

DetectorCounts DetectorCounts::of(core::Janus &J) {
  const stm::DetectorStats &DS = J.detectorStats();
  DetectorCounts C;
  C.PairQueries = DS.PairQueries.load();
  C.SpecHits = DS.SpecHits.load();
  C.CacheHits = DS.CacheHits.load();
  C.OnlineChecks = DS.OnlineChecks.load();
  C.ConflictsFound = DS.ConflictsFound.load();
  if (conflict::SequenceDetector *SD = J.sequenceDetector()) {
    C.WriteSetChecks = DS.WriteSetChecks.load();
    C.UniqueQueries = SD->uniqueQueries();
    C.UniqueMisses = SD->uniqueMisses();
  } else {
    // The write-set detector answers every query with the write-set
    // test.
    C.WriteSetChecks = C.PairQueries;
  }
  return C;
}

DetectorCounts &DetectorCounts::operator+=(const DetectorCounts &B) {
  PairQueries += B.PairQueries;
  SpecHits += B.SpecHits;
  CacheHits += B.CacheHits;
  OnlineChecks += B.OnlineChecks;
  WriteSetChecks += B.WriteSetChecks;
  ConflictsFound += B.ConflictsFound;
  UniqueQueries += B.UniqueQueries;
  UniqueMisses += B.UniqueMisses;
  return *this;
}

DetectorCounts &DetectorCounts::operator-=(const DetectorCounts &B) {
  PairQueries -= B.PairQueries;
  SpecHits -= B.SpecHits;
  CacheHits -= B.CacheHits;
  OnlineChecks -= B.OnlineChecks;
  WriteSetChecks -= B.WriteSetChecks;
  ConflictsFound -= B.ConflictsFound;
  UniqueQueries -= B.UniqueQueries;
  UniqueMisses -= B.UniqueMisses;
  return *this;
}

void LayerTotals::add(const TracedRun &R) {
  ++Runs;
  Sum.WallS += R.WallS;
  Sum.CpuS += R.CpuS;
  Sum.Attempts += R.Attempts;
  Sum.Commits += R.Commits;
  Sum.Retries += R.Retries;
  Sum.ValidationFailures += R.ValidationFailures;
  Sum.CrossShardCommits += R.CrossShardCommits;
  Sum.SerialFallbacks += R.SerialFallbacks;
  Sum.TaskExceptions += R.TaskExceptions;
  Sum.Detector += R.Detector;
}

void LayerTotals::emit(const SpanLog &Log, Result &Out) const {
  auto Ratio = [](double A, double B) { return B > 0.0 ? A / B : 0.0; };
  auto PerRun = [&](double X) { return Ratio(X, static_cast<double>(Runs)); };
  std::vector<double> Body = Log.durations("stm.body");
  std::vector<double> Detect = Log.durations("conflict.detect");
  double BodyS = 0.0, DetectS = 0.0;
  for (double D : Body)
    BodyS += D / 1e9;
  for (double D : Detect)
    DetectS += D / 1e9;
  const double Capacity = Workers * Sum.WallS;
  const double BodyFrac = Ratio(BodyS, Capacity);
  const double DetectFrac = Ratio(DetectS, Capacity);
  if (Runs == 0)
    Out.wrong("the traced run completed no engine run");
  else if (BodyFrac + DetectFrac > 1.0 + ReconcileTolerance)
    Out.wrong("traced spans do not reconcile: body + detect = " +
              std::to_string(BodyFrac + DetectFrac) +
              " of workers x wall (tolerance " +
              std::to_string(ReconcileTolerance) + ")");

  Out.metric("stm.body_frac", BodyFrac, "ratio");
  Out.metric("stm.detect_frac", DetectFrac, "ratio");
  Out.metric("stm.rest_frac", 1.0 - BodyFrac - DetectFrac, "ratio");
  Out.metric("stm.cpu_frac", Ratio(Sum.CpuS, Capacity), "ratio");
  Out.metric("stm.attempts", PerRun(Sum.Attempts), "count");
  Out.metric("stm.commits", PerRun(Sum.Commits), "count");
  Out.metric("stm.retry_ratio", Ratio(Sum.Retries, Sum.Commits), "ratio");
  Out.metric("stm.useful_frac", Ratio(Sum.Commits, Sum.Attempts), "ratio");
  Out.metric("stm.validation_failures", PerRun(Sum.ValidationFailures),
             "count");
  Out.metric("stm.cross_shard_commits", PerRun(Sum.CrossShardCommits),
             "count");
  Out.metric("resilience.serial_fallbacks", PerRun(Sum.SerialFallbacks),
             "count");
  Out.metric("resilience.task_exceptions", PerRun(Sum.TaskExceptions),
             "count");
  Out.metric("conflict.detect_calls", PerRun(Detect.size()), "count");
  Out.metric("conflict.detect_ns_p50", quantile(Detect, 0.5), "ns");
  Out.metric("conflict.detect_ns_p99", quantile(Detect, 0.99), "ns");
  Out.metric("conflict.detect_s", PerRun(DetectS), "s");
  const DetectorCounts &D = Sum.Detector;
  const double Q = static_cast<double>(D.PairQueries);
  Out.metric("conflict.spec_hit_frac", Ratio(D.SpecHits, Q), "ratio");
  Out.metric("conflict.cache_hit_frac", Ratio(D.CacheHits, Q), "ratio");
  Out.metric("conflict.online_frac", Ratio(D.OnlineChecks, Q), "ratio");
  Out.metric("conflict.writeset_frac", Ratio(D.WriteSetChecks, Q), "ratio");
  Out.metric("conflict.conflicts_found", PerRun(D.ConflictsFound), "count");
  Out.metric("conflict.unique_miss_rate",
             Ratio(D.UniqueMisses, D.UniqueQueries), "ratio");
}

void perfbench::emitTraceOverhead(double UntracedParS, double TracedParS,
                                  Result &Out) {
  // Same tasks on both sides, so the throughput ratio is the inverse
  // time ratio.
  double Overhead = TracedParS > 0.0 ? 1.0 - UntracedParS / TracedParS : 0.0;
  if (Overhead > TraceOverheadTolerance)
    Out.wrong("tracing slowed the parallel phase by " +
              std::to_string(Overhead) + " (tolerance " +
              std::to_string(TraceOverheadTolerance) + ")");
  Out.metric("bench.trace_overhead_frac", Overhead, "ratio");
}

void perfbench::emitBypassed(
    const std::vector<std::pair<const char *, const char *>> &NamesAndUnits,
    Result &Out) {
  for (const auto &[Name, Unit] : NamesAndUnits)
    Out.metric(Name, 0.0, Unit);
}
