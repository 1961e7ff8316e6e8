//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the repository benchmark (see README.md).
///
/// The benchmark drives JANUS only through its public API
/// (core::Janus, workloads::Workload, serve::Service). Everything it
/// measures is timed from here, around calls into the libraries:
/// nothing in src/ is instrumented for it.
///
///  - `Result` collects the metrics of one run and prints the final
///    JSON line (`correct`, `attempted`, `failed`, `metrics`).
///  - `SpanLog` keeps the traced run's spans in memory (per-thread
///    buffers) and writes them out when the run ends.
///  - `TimingDetector` forwards to a Janus instance's detector and
///    records one span per detectConflicts call; `tracedRun` drives the
///    threaded engines directly with it and with span-recording task
///    wrappers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "janus/core/Janus.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Self-test mode: one set-up instead of several, shorter phases.
  bool Short = false;
  /// Where the traced run writes its spans; empty = not written.
  std::string SpansOut;
};

/// Seconds on the steady clock since an arbitrary origin.
double nowS();
/// Nanoseconds on the steady clock since an arbitrary origin.
int64_t nowNs();

/// Linear-interpolated quantile \p Q in [0, 1]; 0 for an empty input.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// Process CPU time (user + system, all threads) in seconds.
double processCpuS();
/// CPU time of the calling thread in seconds. Set-up is single-threaded
/// and timed on this clock, so time the hypervisor steals from it or
/// another thread preempts it is not counted.
double threadCpuS();
/// Peak resident set size of this process in MiB.
double peakRssMb();
/// Peak resident set size while \p Fn ran, in MiB: returns free heap
/// memory to the kernel, resets the peak mark (/proc/self/clear_refs),
/// runs \p Fn and reads VmHWM. The process peak where the mark cannot be
/// reset.
double peakRssMbOf(const std::function<void()> &Fn);

/// Waits until the host is calm: a short busy probe on every CPU sees the
/// hypervisor steal less than CalmStealFrac of CPU time. Probes every
/// few seconds, for at most \p MaxWaitS. Idle CPUs accrue no steal, so
/// only a loaded probe shows a contended host. \returns the seconds
/// waited.
double waitForCalmHost(double MaxWaitS);
constexpr double CalmStealFrac = 0.03;

/// The aggregate steal counters of /proc/stat sampled over a run, so
/// samples taken while the hypervisor stole more than CalmStealFrac can
/// be left out of the medians. Jiffies are 10 ms, so sample every
/// SamplePeriodS or so. Reads 0 steal where /proc/stat is unreadable.
class StealTimeline {
public:
  static constexpr double SamplePeriodS = 0.5;

  StealTimeline() { sample(); }
  void sample();

  /// sample() if SamplePeriodS passed since the last one.
  void sampleIfDue();
  /// Share of CPU time stolen over the sampled intervals overlapping
  /// [FromNs, ToNs].
  double stealOver(int64_t FromNs, int64_t ToNs) const;
  /// Share of CPU time stolen from the first sample to the last.
  double total() const {
    return stealOver(Points.front().Ns, Points.back().Ns);
  }
  bool calm(int64_t FromNs, int64_t ToNs) const {
    return stealOver(FromNs, ToNs) < CalmStealFrac;
  }

private:
  struct Point {
    int64_t Ns;
    uint64_t Steal, Total;
  };
  std::vector<Point> Points;
};

/// A measured value and the interval it was measured over.
struct Timed {
  int64_t StartNs = 0, EndNs = 0;
  double Value = 0.0;
};

/// The values of \p Samples measured on a calm host, or all of them when
/// none was. Adds the number of calm samples to \p Calm if given.
std::vector<double> calmValues(const std::vector<Timed> &Samples,
                               const StealTimeline &Steal,
                               size_t *Calm = nullptr);

/// The values of the calmer half of \p Samples: ordered by the steal over
/// each sample's interval (then by time), the first ⌈n/2⌉. Even 1% steal
/// lowers the all-CPU speedup of the ordered paper loops, and on a host
/// stolen for minutes no sample may be calm. When the steal comes in
/// bursts the calmer half stays close to the calm value; steal that lasts
/// the whole run still shows.
std::vector<double> calmerHalf(const std::vector<Timed> &Samples,
                               const StealTimeline &Steal);

/// Runs \p Fn on the calling thread pinned to the (\p Index mod N)-th of
/// the N CPUs this process may use, then restores the thread's CPU set.
void runPinned(unsigned Index, const std::function<void()> &Fn);

/// Times set-up work against a fixed reference kernel run on the same
/// CPU in between, and scales the set-up's thread CPU time to the
/// kernel's nominal speed.
///
/// On a shared VM a vCPU runs single-threaded code up to ~2x slower while
/// another tenant keeps its sibling hyperthread busy, and which vCPUs are
/// slow changes over seconds to minutes; thread CPU time counts that
/// slowdown (only hypervisor steal is left out). A fixed kernel
/// interleaved with the set-up on the same pinned CPU slows down with it,
/// so the ratio stays put while the raw time moves by a third within a
/// minute. The kernel is the benchmark's own code and no change to JANUS
/// moves it, so a slower set-up still shows as a larger scaled time.
class SetupClock {
public:
  /// Runs \p Units units of the reference kernel.
  void reference(unsigned Units);
  /// Runs \p Fn, adding its thread CPU time to the set-up time.
  void time(const std::function<void()> &Fn);
  /// Set-up CPU seconds × ReferenceUnitS ÷ the reference kernel's CPU
  /// seconds per unit: the set-up time on a host where one unit takes
  /// ReferenceUnitS.
  double scaledS() const;

private:
  double SetupCpuS = 0.0, ReferenceCpuS = 0.0;
  uint64_t ReferenceUnits = 0;
};
/// Nominal time of one reference kernel unit (hash map, ordered map and
/// sort over 3000 pseudo-random keys; about this long on a calm 4-vCPU
/// Xeon VM).
constexpr double ReferenceUnitS = 1e-3;

/// Collects one run's verdict and metrics and prints the final line.
class Result {
public:
  void metric(const std::string &Name, double Value, const char *Unit);
  /// Counts \p N attempted operations.
  void attempt(uint64_t N) { Attempted += N; }
  /// Counts \p N failed operations and records why (printed to stderr).
  void fail(uint64_t N, const std::string &Why);
  /// Marks the run incorrect without counting an operation.
  void wrong(const std::string &Why);

  bool correct() const { return Correct && Failed == 0; }
  /// 1 − failed ÷ attempted (1 when nothing was attempted).
  double successFrac() const;

  /// Workload settings for the host stamp, as a rendered JSON object.
  void settings(std::string Json) { Settings = std::move(Json); }
  const std::string &settings() const { return Settings; }

  /// Prints the metrics as a table, then the JSON line, on stdout.
  void print() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    const char *Unit;
  };
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0, Failed = 0;
  bool Correct = true;
  std::string Settings = "{}";
};

/// Prints the host stamp (nproc, CPU model, build type, JANUS_OBS, git
/// SHA, steal, calm wait) plus workload-specific settings as one JSON
/// line.
void printHostStamp(const Options &O, double StealFrac, double CalmWaitS,
                    const std::string &Settings);

/// One span of the traced run.
struct Span {
  const char *Name = nullptr;
  int64_t StartNs = 0, EndNs = 0;
  uint64_t Id = 0, Parent = 0;
  uint32_t Round = 0;
};

/// In-memory span store, one per process (spanLog()). record() is
/// thread-safe and takes no lock after a thread's first span: each
/// thread appends to a buffer it leases from the log and hands back
/// when it exits, so short-lived engine workers reuse buffers.
class SpanLog {
public:
  SpanLog() = default;
  SpanLog(const SpanLog &) = delete;
  SpanLog &operator=(const SpanLog &) = delete;

  /// \returns a fresh span id (never 0), for a span whose children
  /// are recorded before it ends.
  static uint64_t reserveId();

  /// Records a span under a reserved \p Id.
  void record(const char *Name, int64_t StartNs, int64_t EndNs, uint64_t Id,
              uint64_t Parent, uint32_t Round);

  /// Records a span under a fresh id and \returns the id.
  uint64_t record(const char *Name, int64_t StartNs, int64_t EndNs,
                  uint64_t Parent, uint32_t Round) {
    uint64_t Id = reserveId();
    record(Name, StartNs, EndNs, Id, Parent, Round);
    return Id;
  }

  /// Every span recorded so far. Call only while no other thread
  /// records.
  std::vector<Span> all() const;

  /// Durations (ns) of the spans named \p Name; same caveat as all().
  std::vector<double> durations(const char *Name) const;

  /// Writes all spans as tab-separated lines to \p Path.
  bool write(const std::string &Path) const;

  using Buffer = std::vector<Span>;
  /// Leases a buffer to the calling thread (see record()).
  Buffer *lease();
  /// Returns a leased buffer; its spans stay in the log.
  void release(Buffer *B);

private:
  mutable std::mutex Mutex; ///< Guards Buffers and Free.
  std::vector<std::unique_ptr<Buffer>> Buffers;
  std::vector<Buffer *> Free;
};

/// The process's span log.
SpanLog &spanLog();

/// Detector counters of a Janus instance. Janus::detectorStats() and the
/// sequence detector's unique-query counts are cumulative over the
/// instance's life, so a run's share is the difference of two readings.
struct DetectorCounts {
  uint64_t PairQueries = 0, SpecHits = 0, CacheHits = 0, OnlineChecks = 0,
           WriteSetChecks = 0, ConflictsFound = 0, UniqueQueries = 0,
           UniqueMisses = 0;

  /// Reads \p J's counters now.
  static DetectorCounts of(janus::core::Janus &J);
  DetectorCounts &operator+=(const DetectorCounts &B);
  DetectorCounts &operator-=(const DetectorCounts &B);
};

/// What one traced engine run measured.
struct TracedRun {
  double WallS = 0.0; ///< Wall time of the engine's run() call.
  double CpuS = 0.0;  ///< Process CPU time during the call.
  uint64_t Attempts = 0;
  uint64_t Commits = 0;
  uint64_t Retries = 0;
  uint64_t ValidationFailures = 0;
  uint64_t CrossShardCommits = 0;
  uint64_t SerialFallbacks = 0;
  uint64_t TaskExceptions = 0;
  size_t Failures = 0; ///< Tasks the engine surfaced as failed.
  /// Detector counters incremented during this run alone.
  DetectorCounts Detector;
};

/// Runs \p Tasks on \p J's registry, shared state and detector through
/// stm::ThreadedRuntime (J.config().Shards == 1) or stm::ShardedRuntime,
/// configured as Janus::run* would, except that every task body and
/// every detectConflicts call is recorded on \p Log under a "stm.run"
/// span. The final state is copied back into \p J, so
/// Workload::verify(J, ...) checks the traced run's output.
TracedRun tracedRun(janus::core::Janus &J,
                    const std::vector<janus::stm::TaskFn> &Tasks, bool Ordered,
                    SpanLog &Log, uint64_t Parent, uint32_t Round);

/// The traced-run reconciliation tolerance: the task-body and detection
/// spans of a run may exceed workers × wall by at most this share.
constexpr double ReconcileTolerance = 0.05;
/// The traced run fails when tracing slows the parallel phase by more
/// than this share of its untraced throughput.
constexpr double TraceOverheadTolerance = 0.5;

/// Accumulates traced runs into the per-layer `stm.*`, `resilience.*`
/// and `conflict.*` metrics.
struct LayerTotals {
  unsigned Workers = 0;
  uint64_t Runs = 0;
  TracedRun Sum;

  void add(const TracedRun &R);
  /// Emits the metrics, checking the reconciliation (body + detect ≤
  /// workers × wall within ReconcileTolerance) into \p Out.
  void emit(const SpanLog &Log, Result &Out) const;
};

/// Emits `bench.trace_overhead_frac` from the summed parallel-phase
/// seconds of untraced and traced runs over the same tasks, failing the
/// run when it exceeds TraceOverheadTolerance.
void emitTraceOverhead(double UntracedParS, double TracedParS, Result &Out);

/// Emits per-layer metrics of layers a workload does not exercise, as 0.
void emitBypassed(const std::vector<std::pair<const char *, const char *>> &
                      NamesAndUnits,
                  Result &Out);

/// Workload entry points. Each fills \p Out; a failed check marks it.
void runPaperMix(const Options &O, Result &Out);
void runSpecSharded(const Options &O, Result &Out);
void runServeOpen(const Options &O, Result &Out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
