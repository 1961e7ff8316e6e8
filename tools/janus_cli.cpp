//===----------------------------------------------------------------------===//
///
/// \file
/// The `janus` command-line tool: train, run and inspect the benchmark
/// workloads (or saved caches) without writing code.
///
///   janus list
///       Show the available workloads (Table 5).
///   janus train --workload NAME [--rounds N] [--cache-out FILE]
///       Run the offline training phase and optionally persist the
///       commutativity cache.
///   janus run --workload NAME [options]
///       Train (or load a cache) and execute a payload, printing
///       speedup/retry/cache statistics.
///   janus audit --workload NAME [options]
///       Like run, but record an audit trace and put the hindsight
///       auditor over it: commit-order serializability replay,
///       vector-clock race re-checks, and ADT escape detection. Exits 0
///       when the audit is clean, 3 when it found violations.
///   janus explain --workload NAME [options]
///       Like run, but record a trace and aggregate every abort by
///       (location, operation pair, verdict) into a ranked "top
///       conflict sources" table — where the retries went and why.
///   janus verify --workload NAME [options]
///       Train (or load a training artifact) and statically verify
///       every learned commutativity condition: bounded-exhaustive
///       small-scope soundness + precision scoring, with SAT and
///       protocol-model cross-confirmation of convictions (see
///       DESIGN.md §10). Exits 0 when the table is clean, 4 when any
///       condition is unsound.
///   janus serve --workload NAME [options]
///       Long-running submission service (janus::serve; DESIGN.md §12):
///       train, then accept transactional submissions from in-process
///       load-generator clients (and, with --socket, a line-oriented
///       local-socket frontend), batch them onto the engine with
///       admission control, per-submission deadlines, a stall watchdog
///       and graceful drain. SIGINT/SIGTERM drains and exits. Exits 0
///       iff every submission received exactly one terminal reply and
///       all batch audits were clean.
///   janus replay FILE.jrec [options]
///       Deterministically re-execute a flight-recorder dump (DESIGN.md
///       §13): rebuild the recorded run configuration from the file
///       header (same workload, seed, training, detector), reconstruct
///       the forced schedule from the event stream, and re-execute it
///       on the simulated engine under full instrumentation. The
///       replayed commit order and dense clock sequence must match the
///       recording bit for bit. Exits 0 when the replay matches and the
///       audit is clean, 5 on divergence, 3 on an unclean audit.
///
/// Run options:
///   --threads N         worker threads / simulated cores (default 8)
///   --shards N          commit-pipeline shards for the threaded engine
///                       (default 1 = a single commit point; >1 splits
///                       it by location, rounded up to a power of two;
///                       see DESIGN.md §11)
///   --detector seq|ws   conflict detection algorithm (default seq)
///   --specs on|off|only per-ADT spec-table fast path (default on):
///                       tier 1 answers commutativity from the
///                       hand-written ADT tables before any
///                       symbolization/cache/SAT work; `only` bypasses
///                       the learned tiers entirely (abstains fall back
///                       to the write-set test); `off` is the paper's
///                       original pipeline
///   --engine sim|threads  execution engine (default sim)
///   --production        use the production-sized payload
///   --seed S            payload seed (default 100)
///   --rounds N          training rounds (default 5)
///   --no-abstraction    disable Kleene sequence abstraction
///   --write-set-fallback  fall back to write-set on cache misses
///                         (default: exact online check)
///   --cache-in FILE     load a training artifact instead of training
///   --cache-out FILE    save the training artifact (cache + inferred
///                       relaxation specs) after training
///   --misses            print the distinct missed query keys
///   --faults SPEC       deterministic fault-injection plan (see
///                       janus/resilience/FaultPlan.h for the grammar;
///                       also honoured via env JANUS_FAULTS), e.g.
///                       --faults 'abort@*.1;throw@2.1;delay@*.2=50'
///                       serve also accepts (client, submission)
///                       clauses: 'shed@*:7;throw@3:1'
///
/// Contention-manager knobs (janus/resilience/ContentionManager.h —
/// the escalation ladder, tunable without recompiling):
///   --serial-after N    aborted speculative attempts before a task
///                       escalates to the irrevocable serial fallback
///                       (default 16; 0 = retry forever, the paper's
///                       behaviour)
///   --retry-budget N    thrown attempts before a task is declared
///                       failed and surfaced as a TaskFailure
///                       (default 2)
///   --backoff-cap-us N  exponential backoff cap in microseconds
///                       (default 512)
///
/// Serve options (only meaningful with `janus serve`):
///   --clients N         in-process load-generator clients (default 4;
///                       0 = no generators, socket submissions only)
///   --rate N            submissions/second per client (default 200;
///                       0 = submit as fast as possible)
///   --duration-ms N     generator run time; the service drains and
///                       exits after the generators finish (default
///                       2000; 0 = run until SIGINT/SIGTERM)
///   --deadline-ms N     per-submission deadline (default 0 = none)
///   --batch-max N       max submissions per engine batch (default 32)
///   --queue-cap N       global submission-queue cap; admissions beyond
///                       it are shed Overloaded (default 1024)
///   --lane-cap N        per-client pending cap (default 256)
///   --drain-ms N        drain hard deadline: in-flight work still
///                       unfinished this long after the stop request is
///                       cancelled (default 2000)
///   --socket PATH       serve a line-oriented AF_UNIX frontend at PATH
///                       (protocol: janus/serve/Frontend.h)
///   --metrics-every-ms N  dump the live metrics JSON to stderr every N
///                       ms (the socket `metrics` request polls the
///                       same snapshot)
///   --audit             record and audit every batch trace; unclean
///                       audits fail the run (exit 1)
///
/// Observability options (janus::obs; see DESIGN.md §8):
///   --trace-out FILE    record per-transaction spans and write them as
///                       Chrome trace-event JSON (load in Perfetto or
///                       chrome://tracing); also prints the metrics
///                       table
///   --sample N          trace/time one task in N (default 1 = all)
///   --json              print the versioned machine-readable report to
///                       stdout instead of the text report
///   --json-out FILE     write the JSON report to FILE (text report
///                       still goes to stdout)
///   --record-out FILE   arm the flight recorder (obs/Recorder.h) and
///                       dump the event stream to FILE as binary
///                       `.jrec`. `run` dumps once at the end; `serve`
///                       dumps on SIGUSR2, on a watchdog escalation,
///                       and on an audit violation (subsequent dumps
///                       get numeric suffixes). Replayable with
///                       `janus replay` (run dumps; serve dumps are
///                       inspection-only — batch clocks restart)
///   --record-cap N      per-lane recorder ring capacity in events
///                       (default 65536; the ring overwrites its
///                       oldest records, and replay refuses wrapped
///                       dumps)
///   --record-window-ms N  anomaly dumps keep only the last N ms of
///                       events (default 0 = the whole ring)
///   --top N             explain: show only the top N conflict sources
///   --by-object         explain: add the per-object contention heatmap
///                       rollup (which object absorbs the aborts); with
///                       --trace-out, also emits a Perfetto counter
///                       track per hot location on the logical clock
///
/// Verify options:
///   --scope N           small-scope bound: integer inputs range over
///                       [-N, N] (default 2)
///   --max-points N      cap on enumerated input states per entry
///                       (default 100000; enumeration is deterministic,
///                       so the checked prefix is stable across runs)
///   --verbose           list sound entries too, not only findings
///   --seed-unsound      inject a deliberately-unsound always-commutes
///                       entry before verifying (CI uses this to prove
///                       the verifier convicts; exit must become 4)
///   --seed-unsound-spec vet a deliberately-unsound always-commutes
///                       spec table alongside the shipped ones (the
///                       spec-table conviction probe; exit must become
///                       4)
///
/// Replay options:
///   --probe-divergence  tamper with the decoded schedule before
///                       replaying (the final commit is rewritten into
///                       a conflict abort) so the run *must* diverge;
///                       CI uses this to prove the divergence check has
///                       teeth (exit must become 5)
///
//===----------------------------------------------------------------------===//

#include "janus/analysis/Auditor.h"
#include "janus/analysis/Divergence.h"
#include "janus/conflict/SpecTable.h"
#include "janus/obs/Attribution.h"
#include "janus/obs/Recorder.h"
#include "janus/serve/Frontend.h"
#include "janus/stm/Replay.h"
#include "janus/support/Json.h"
#include "janus/verify/SpecCheck.h"
#include "janus/verify/Verify.h"
#include "janus/workloads/Workload.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace janus;
using namespace janus::core;
using namespace janus::workloads;

namespace {

/// Signal plumbing, shared by `run` (cooperative cancellation of the
/// in-flight run so observability output survives an interrupt) and
/// `serve` (stop flag polled by the scheduler). Everything the handler
/// touches is lock-free: an atomic flag store and a CAS on an atomic
/// byte (CancelToken::cancel), both async-signal-safe.
std::atomic<bool> GStopRequested{false};
janus::resilience::CancellationTable GRunCancel; ///< Global token only.

/// SIGUSR2 requests a flight-recorder dump. The handler only flips the
/// flag; serve's scheduler polls it between batches (ServeConfig::
/// DumpFlag), so the dump itself runs quiesced.
std::atomic<bool> GDumpRequested{false};

void onStopSignal(int) {
  GStopRequested.store(true, std::memory_order_release);
  GRunCancel.global().cancel(janus::resilience::CancelReason::Shutdown);
}

void onDumpSignal(int) {
  GDumpRequested.store(true, std::memory_order_release);
}

void installStopHandlers() {
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);
#ifdef SIGUSR2
  std::signal(SIGUSR2, onDumpSignal);
#endif
}

struct CliOptions {
  std::string Command;
  std::string WorkloadName;
  unsigned Threads = 8;
  unsigned Shards = 1;
  bool ByObject = false;
  DetectorKind Detector = DetectorKind::Sequence;
  /// The CLI default is On (the config default is Off so library users
  /// and the Figure 11 harnesses opt in explicitly).
  conflict::SpecMode Specs = conflict::SpecMode::On;
  EngineKind Engine = EngineKind::Simulated;
  bool Production = false;
  uint64_t Seed = 100;
  int Rounds = 5;
  bool UseAbstraction = true;
  bool OnlineFallback = true;
  bool PrintMisses = false;
  std::string CacheIn, CacheOut;
  resilience::FaultPlan Faults;
  std::string FaultsSpec; ///< Raw --faults text (recorded in .jrec meta).
  std::string TraceOut;
  std::string RecordOut;
  uint32_t RecordCap = 1u << 16;
  int64_t RecordWindowMs = 0;
  std::string ReplayFile;       ///< `janus replay` positional argument.
  bool ProbeDivergence = false; ///< Tamper the schedule; replay must fail.
  uint32_t Sample = 1;
  bool Json = false;
  std::string JsonOut;
  size_t Top = 0;
  int64_t VerifyScope = 2;
  uint64_t VerifyMaxPoints = 100000;
  bool Verbose = false;
  bool SeedUnsound = false;
  bool SeedUnsoundSpec = false;

  // Contention-manager knobs (defaults mirror ResilienceConfig).
  uint32_t SerialAfter = 16;
  uint32_t RetryBudget = 2;
  uint32_t BackoffCapUs = 512;

  // Serve options.
  unsigned ServeClients = 4;
  uint32_t ServeRate = 200;
  int64_t ServeDurationMs = 2000;
  int64_t ServeDeadlineMs = 0;
  uint32_t ServeBatchMax = 32;
  uint32_t ServeQueueCap = 1024;
  uint32_t ServeLaneCap = 256;
  int64_t ServeDrainMs = 2000;
  std::string ServeSocket;
  int64_t MetricsEveryMs = 0;
  bool Audit = false;

  /// Observability is on whenever something consumes it: a trace file,
  /// a JSON report (histograms), or explicit sampling. The service
  /// always runs with it — its counters are the operator's view.
  bool obsEnabled() const {
    return Command == "serve" || !TraceOut.empty() || Json ||
           !JsonOut.empty() || Sample > 1;
  }
};

void usage() {
  std::fprintf(stderr,
               "usage: janus list | janus train --workload NAME [opts] | "
               "janus run --workload NAME [opts] | "
               "janus audit --workload NAME [opts] | "
               "janus explain --workload NAME [opts] | "
               "janus verify --workload NAME [opts] | "
               "janus serve --workload NAME [opts] | "
               "janus replay FILE.jrec [opts]\n"
               "(see the file header of tools/janus_cli.cpp for the full "
               "option list)\n");
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  if (Argc < 2)
    return false;
  Opts.Command = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--workload") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.WorkloadName = V;
    } else if (Arg == "--threads") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Threads = static_cast<unsigned>(std::atoi(V));
    } else if (Arg == "--shards") {
      const char *V = Next();
      if (!V || std::atoi(V) < 1)
        return false;
      Opts.Shards = static_cast<unsigned>(std::atoi(V));
    } else if (Arg == "--by-object") {
      Opts.ByObject = true;
    } else if (Arg == "--detector") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "seq") == 0)
        Opts.Detector = DetectorKind::Sequence;
      else if (std::strcmp(V, "ws") == 0)
        Opts.Detector = DetectorKind::WriteSet;
      else
        return false;
    } else if (Arg == "--specs") {
      const char *V = Next();
      if (!V)
        return false;
      std::optional<conflict::SpecMode> Mode = conflict::parseSpecMode(V);
      if (!Mode) {
        std::fprintf(stderr,
                     "janus: error: --specs expects on|off|only, got '%s'\n",
                     V);
        return false;
      }
      Opts.Specs = *Mode;
    } else if (Arg == "--engine") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "sim") == 0)
        Opts.Engine = EngineKind::Simulated;
      else if (std::strcmp(V, "threads") == 0)
        Opts.Engine = EngineKind::Threaded;
      else
        return false;
    } else if (Arg == "--production") {
      Opts.Production = true;
    } else if (Arg == "--seed") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Seed = static_cast<uint64_t>(std::atoll(V));
    } else if (Arg == "--rounds") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Rounds = std::atoi(V);
    } else if (Arg == "--no-abstraction") {
      Opts.UseAbstraction = false;
    } else if (Arg == "--write-set-fallback") {
      Opts.OnlineFallback = false;
    } else if (Arg == "--misses") {
      Opts.PrintMisses = true;
    } else if (Arg == "--faults") {
      const char *V = Next();
      if (!V)
        return false;
      std::string Err;
      std::optional<resilience::FaultPlan> Plan =
          resilience::FaultPlan::parse(V, &Err);
      if (!Plan) {
        std::fprintf(stderr, "janus: error: bad fault spec: %s\n",
                     Err.c_str());
        return false;
      }
      Opts.Faults = std::move(*Plan);
      Opts.FaultsSpec = V;
    } else if (Arg == "--record-out") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.RecordOut = V;
    } else if (Arg == "--record-cap") {
      const char *V = Next();
      if (!V || std::atoll(V) < 16)
        return false;
      Opts.RecordCap = static_cast<uint32_t>(std::atoll(V));
    } else if (Arg == "--record-window-ms") {
      const char *V = Next();
      if (!V || std::atoll(V) < 0)
        return false;
      Opts.RecordWindowMs = std::atoll(V);
    } else if (Arg == "--probe-divergence") {
      Opts.ProbeDivergence = true;
    } else if (Arg == "--trace-out") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.TraceOut = V;
    } else if (Arg == "--sample") {
      const char *V = Next();
      if (!V || std::atoi(V) < 1)
        return false;
      Opts.Sample = static_cast<uint32_t>(std::atoi(V));
    } else if (Arg == "--json") {
      Opts.Json = true;
    } else if (Arg == "--json-out") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.JsonOut = V;
    } else if (Arg == "--top") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Top = static_cast<size_t>(std::atoll(V));
    } else if (Arg == "--scope") {
      const char *V = Next();
      if (!V || std::atoi(V) < 0)
        return false;
      Opts.VerifyScope = std::atoll(V);
    } else if (Arg == "--max-points") {
      const char *V = Next();
      if (!V || std::atoll(V) < 1)
        return false;
      Opts.VerifyMaxPoints = static_cast<uint64_t>(std::atoll(V));
    } else if (Arg == "--verbose") {
      Opts.Verbose = true;
    } else if (Arg == "--seed-unsound") {
      Opts.SeedUnsound = true;
    } else if (Arg == "--seed-unsound-spec") {
      Opts.SeedUnsoundSpec = true;
    } else if (Arg == "--serial-after") {
      const char *V = Next();
      if (!V || std::atoi(V) < 0)
        return false;
      Opts.SerialAfter = static_cast<uint32_t>(std::atoi(V));
    } else if (Arg == "--retry-budget") {
      const char *V = Next();
      if (!V || std::atoi(V) < 0)
        return false;
      Opts.RetryBudget = static_cast<uint32_t>(std::atoi(V));
    } else if (Arg == "--backoff-cap-us") {
      const char *V = Next();
      if (!V || std::atoi(V) < 0)
        return false;
      Opts.BackoffCapUs = static_cast<uint32_t>(std::atoi(V));
    } else if (Arg == "--clients") {
      const char *V = Next();
      if (!V || std::atoi(V) < 0)
        return false;
      Opts.ServeClients = static_cast<unsigned>(std::atoi(V));
    } else if (Arg == "--rate") {
      const char *V = Next();
      if (!V || std::atoi(V) < 0)
        return false;
      Opts.ServeRate = static_cast<uint32_t>(std::atoi(V));
    } else if (Arg == "--duration-ms") {
      const char *V = Next();
      if (!V || std::atoll(V) < 0)
        return false;
      Opts.ServeDurationMs = std::atoll(V);
    } else if (Arg == "--deadline-ms") {
      const char *V = Next();
      if (!V || std::atoll(V) < 0)
        return false;
      Opts.ServeDeadlineMs = std::atoll(V);
    } else if (Arg == "--batch-max") {
      const char *V = Next();
      if (!V || std::atoi(V) < 1)
        return false;
      Opts.ServeBatchMax = static_cast<uint32_t>(std::atoi(V));
    } else if (Arg == "--queue-cap") {
      const char *V = Next();
      if (!V || std::atoi(V) < 1)
        return false;
      Opts.ServeQueueCap = static_cast<uint32_t>(std::atoi(V));
    } else if (Arg == "--lane-cap") {
      const char *V = Next();
      if (!V || std::atoi(V) < 1)
        return false;
      Opts.ServeLaneCap = static_cast<uint32_t>(std::atoi(V));
    } else if (Arg == "--drain-ms") {
      const char *V = Next();
      if (!V || std::atoll(V) < 0)
        return false;
      Opts.ServeDrainMs = std::atoll(V);
    } else if (Arg == "--socket") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.ServeSocket = V;
    } else if (Arg == "--metrics-every-ms") {
      const char *V = Next();
      if (!V || std::atoll(V) < 0)
        return false;
      Opts.MetricsEveryMs = std::atoll(V);
    } else if (Arg == "--audit") {
      Opts.Audit = true;
    } else if (Arg == "--cache-in") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.CacheIn = V;
    } else if (Arg == "--cache-out") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.CacheOut = V;
    } else if (Opts.Command == "replay" && !Arg.empty() && Arg[0] != '-' &&
               Opts.ReplayFile.empty()) {
      Opts.ReplayFile = Arg; // The positional `.jrec` path.
    } else {
      std::fprintf(stderr, "janus: error: unknown option '%s'\n",
                   Arg.c_str());
      return false;
    }
  }
  return true;
}

int cmdList() {
  std::printf("%-10s %-16s %s\n", "name", "order", "patterns");
  for (auto &W : allWorkloads())
    std::printf("%-10s %-16s %s\n", W->name().c_str(),
                W->ordered() ? "in-order" : "out-of-order",
                W->patterns().c_str());
  return 0;
}

JanusConfig configFor(const CliOptions &Opts) {
  JanusConfig Cfg;
  Cfg.Threads = Opts.Threads;
  Cfg.Shards = Opts.Shards;
  Cfg.Detector = Opts.Detector;
  Cfg.Engine = Opts.Engine;
  Cfg.Sequence.UseAbstraction = Opts.UseAbstraction;
  Cfg.Sequence.OnlineFallback = Opts.OnlineFallback;
  Cfg.Sequence.Specs = Opts.Specs;
  Cfg.Training.InferWAWRelaxation = true;
  Cfg.Training.MaxConcat = 8;
  Cfg.Resilience.SpeculativeRetryBudget = Opts.SerialAfter;
  Cfg.Resilience.ExceptionRetryBudget = Opts.RetryBudget;
  Cfg.Resilience.BackoffCapMicros = Opts.BackoffCapUs;
  Cfg.Faults = Opts.Faults;
  Cfg.Obs.Enabled = Opts.obsEnabled();
  Cfg.Obs.SampleEvery = Opts.Sample;
  // The flight recorder keeps its default SampleEvery of 1: a sampled
  // stream cannot be replayed, and a complete one is still bounded by
  // the per-lane ring.
  Cfg.Record.Enabled = !Opts.RecordOut.empty();
  Cfg.Record.PerLaneCap = Opts.RecordCap;
  Cfg.Record.SnapshotWindowUs = Opts.RecordWindowMs * 1000;
  return Cfg;
}

/// Fills the `.jrec` header: the full run configuration (so `janus
/// replay` can re-train an identical cache and rebuild the same task
/// set) plus dump provenance.
obs::RecMeta recMetaFor(const CliOptions &Opts, const std::string &Workload,
                        const char *Reason, const obs::Recorder &R) {
  obs::RecMeta M;
  M.Workload = Workload;
  M.Engine = Opts.Engine == EngineKind::Simulated ? "sim" : "threads";
  M.Seed = Opts.Seed;
  M.Threads = Opts.Threads;
  M.Shards = Opts.Shards;
  M.Production = Opts.Production ? 1 : 0;
  M.Rounds = Opts.Rounds > 0 ? static_cast<uint32_t>(Opts.Rounds) : 0;
  M.Detector =
      Opts.Detector == DetectorKind::WriteSet ? "writeset" : "sequence";
  M.Abstraction = Opts.UseAbstraction;
  M.Fallback = Opts.OnlineFallback;
  if (!Opts.FaultsSpec.empty())
    M.Faults = Opts.FaultsSpec;
  else if (const char *Env = std::getenv("JANUS_FAULTS"))
    M.Faults = Env; // The Janus constructor loads the same variable.
  M.Reason = Reason;
  M.Written = R.written();
  M.Overwritten = R.overwritten();
  M.NumLanes = R.lanes();
  M.SampleEvery = R.config().SampleEvery;
  return M;
}

/// Writes the recorded trace as Chrome trace-event JSON and reports it
/// (text mode only; JSON mode carries the path in the report).
bool exportTrace(Janus &J, const CliOptions &Opts,
                 const std::string &ExtraEvents = {}) {
  obs::Observer *O = J.observer();
  if (!O || Opts.TraceOut.empty())
    return true;
  std::string Err;
  if (!O->writeChromeTrace(Opts.TraceOut, &Err, ExtraEvents)) {
    std::fprintf(stderr, "janus: error: %s\n", Err.c_str());
    return false;
  }
  if (!Opts.Json)
    std::printf("trace      : %zu spans -> %s (load in Perfetto or "
                "chrome://tracing)\n",
                O->trace().size(), Opts.TraceOut.c_str());
  return true;
}

/// The versioned machine-readable run report. Shares escaping and the
/// `schema_version` marker with bench/BenchCommon.h via support/Json.h.
std::string runReportJson(const std::string &Command,
                          const std::string &Workload, Janus &J,
                          const RunOutcome &O, bool Verified,
                          const CliOptions &Opts) {
  JsonWriter W;
  W.beginObject();
  W.field("schema_version", JsonSchemaVersion);
  W.field("tool", "janus");
  W.field("command", std::string_view(Command));
  W.field("workload", std::string_view(Workload));
  W.field("engine",
          Opts.Engine == EngineKind::Simulated ? "sim" : "threads");
  W.field("detector", std::string_view(J.detector().name()));
  W.field("threads", static_cast<uint64_t>(Opts.Threads));
  W.field("shards", static_cast<uint64_t>(Opts.Shards));
  W.field("speedup", O.speedup());
  W.field("parallel_time", O.ParallelTime);
  W.field("sequential_time", O.SequentialTime);
  W.field("verified", Verified);

  const stm::RunStats &RS = J.runStats();
  W.key("stats");
  W.beginObject();
  W.field("tasks", RS.Tasks.load());
  W.field("commits", RS.Commits.load());
  W.field("retries", RS.Retries.load());
  W.field("retry_ratio", RS.retryRatio());
  W.field("conflict_checks", RS.ConflictChecks.load());
  W.field("validation_failures", RS.ValidationFailures.load());
  W.field("escaped_accesses", RS.EscapedAccesses.load());
  W.field("cross_shard_commits", RS.CrossShardCommits.load());
  W.field("empty_commits", RS.EmptyCommits.load());
  W.endObject();

  // The resilience picture (PR 3): escalations, budget exhaustions and
  // structured failures. A retry budget is exhausted exactly when a
  // task escalates to serial (abort budget) or is declared failed
  // (exception budget).
  W.key("resilience");
  W.beginObject();
  W.field("serial_fallbacks", RS.SerialFallbacks.load());
  W.field("task_exceptions", RS.TaskExceptions.load());
  W.field("task_failures", RS.TaskFailures.load());
  W.field("faults_injected", RS.FaultsInjected.load());
  W.field("retry_budget_exhaustions",
          RS.SerialFallbacks.load() + RS.TaskFailures.load());
  W.key("failed_tasks");
  W.beginArray();
  for (const resilience::TaskFailure &F : O.Failures) {
    W.beginObject();
    W.field("tid", static_cast<uint64_t>(F.Tid));
    W.field("attempts", static_cast<uint64_t>(F.Attempts));
    W.field("kind", resilience::toString(F.FailKind));
    W.field("reason", std::string_view(F.Reason));
    W.endObject();
  }
  W.endArray();
  W.endObject();

  const stm::DetectorStats &DS = J.detectorStats();
  W.key("detector_stats");
  W.beginObject();
  W.field("pair_queries", DS.PairQueries.load());
  W.field("spec_mode", conflict::specModeName(Opts.Specs));
  W.field("spec_hits", DS.SpecHits.load());
  W.field("spec_abstains", DS.SpecAbstains.load());
  W.field("cache_hits", DS.CacheHits.load());
  W.field("cache_misses", DS.CacheMisses.load());
  W.field("online_checks", DS.OnlineChecks.load());
  W.field("write_set_checks", DS.WriteSetChecks.load());
  W.field("conflicts_found", DS.ConflictsFound.load());
  W.field("degraded_queries", DS.DegradedQueries.load());
  W.field("signature_intern_hits", DS.SignatureInternHits.load());
  if (auto *SD = J.sequenceDetector()) {
    W.field("unique_queries", static_cast<uint64_t>(SD->uniqueQueries()));
    W.field("unique_misses", static_cast<uint64_t>(SD->uniqueMisses()));
  }
  W.endObject();

  if (const obs::Observer *Ob = J.observer()) {
    W.key("obs");
    W.raw(Ob->metricsJson());
    if (!Opts.TraceOut.empty())
      W.field("trace_file", std::string_view(Opts.TraceOut));
  }
  W.endObject();
  return W.str();
}

/// Emits the JSON report per --json/--json-out. \returns false on I/O
/// failure.
bool emitJsonReport(const std::string &Report, const CliOptions &Opts) {
  if (Opts.Json)
    std::printf("%s\n", Report.c_str());
  if (!Opts.JsonOut.empty()) {
    std::ofstream Out(Opts.JsonOut, std::ios::trunc);
    Out << Report << "\n";
    if (!Out) {
      std::fprintf(stderr, "janus: error: cannot write '%s'\n",
                   Opts.JsonOut.c_str());
      return false;
    }
    if (!Opts.Json)
      std::printf("json report: %s\n", Opts.JsonOut.c_str());
  }
  return true;
}

/// Prints the resilience picture of a finished run: escalations,
/// exceptions, injected faults, and any task failures (one line each).
void printResilience(const Janus &J, const RunOutcome &O) {
  const stm::RunStats &RS = J.runStats();
  uint64_t Serial = RS.SerialFallbacks.load();
  uint64_t Exceptions = RS.TaskExceptions.load();
  uint64_t Injected = RS.FaultsInjected.load();
  if (Serial || Exceptions || Injected || !O.Failures.empty())
    std::printf("resilience : %llu serial fallbacks, %llu task "
                "exceptions, %llu faults injected, %zu failed tasks\n",
                (unsigned long long)Serial, (unsigned long long)Exceptions,
                (unsigned long long)Injected, O.Failures.size());
  for (const resilience::TaskFailure &F : O.Failures)
    std::printf("  FAILED task %u after %u attempts: %s\n", F.Tid,
                F.Attempts, F.Reason.c_str());
}

int cmdTrain(const CliOptions &Opts) {
  auto W = workloadByName(Opts.WorkloadName);
  if (!W) {
    std::fprintf(stderr, "janus: error: unknown workload '%s'\n",
                 Opts.WorkloadName.c_str());
    return 1;
  }
  Janus J(configFor(Opts));
  W->setup(J);
  for (const PayloadSpec &P : W->trainingPayloads(Opts.Rounds))
    J.train(W->makeTasks(P));
  const training::TrainStats &TS = J.trainStats();
  std::printf("trained %s: %llu tasks, %llu locations, %llu cache "
              "entries (%llu candidate pairs)\n",
              W->name().c_str(), (unsigned long long)TS.TasksRun,
              (unsigned long long)TS.LocationsMined,
              (unsigned long long)TS.CachedEntries,
              (unsigned long long)TS.CandidatePairs);
  std::printf("detected patterns: %s\n",
              J.patternReport().summary().c_str());
  if (TS.VerifyChecks)
    std::printf("publish gate: %llu conditions verified, %llu rejected "
                "as unsound\n",
                (unsigned long long)TS.VerifyChecks,
                (unsigned long long)TS.VerifyRejected);
  if (!Opts.CacheOut.empty()) {
    std::ofstream Out(Opts.CacheOut, std::ios::trunc);
    if (!Out) {
      std::fprintf(stderr, "janus: error: cannot write '%s'\n",
                   Opts.CacheOut.c_str());
      return 1;
    }
    // Persist the full training artifact (cache + relaxation specs).
    Out << J.exportTrainingArtifact();
    std::printf("training artifact saved to %s\n", Opts.CacheOut.c_str());
  }
  // Training emits its own spans (mining, condition computation,
  // abstraction, verify gate) when observability is on; --trace-out
  // makes the offline phase Perfetto-loadable like any run.
  if (!exportTrace(J, Opts))
    return 1;
  return 0;
}

/// `janus verify`: train (or load an artifact), then statically verify
/// every cached commutativity condition — the soundness/precision pass
/// of DESIGN.md §10. Exit 4 on any unsound entry so CI can gate on it.
int cmdVerify(const CliOptions &Opts) {
  auto W = workloadByName(Opts.WorkloadName);
  if (!W) {
    std::fprintf(stderr, "janus: error: unknown workload '%s'\n",
                 Opts.WorkloadName.c_str());
    return 1;
  }
  Janus J(configFor(Opts));
  W->setup(J);

  if (!Opts.CacheIn.empty()) {
    std::ifstream In(Opts.CacheIn);
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    if (!In || !J.importTrainingArtifact(Buffer.str())) {
      std::fprintf(stderr,
                   "janus: error: cannot load training artifact '%s'\n",
                   Opts.CacheIn.c_str());
      return 1;
    }
  } else {
    for (const PayloadSpec &P : W->trainingPayloads(Opts.Rounds))
      J.train(W->makeTasks(P));
  }

  if (Opts.SeedUnsound) {
    // A write of one fresh parameter against a write of another never
    // commutes unless the operands coincide, so an always-true
    // condition for the pair is deliberately unsound — the conviction
    // probe CI uses to prove the verifier has teeth.
    conflict::CacheKey Key;
    Key.LocClass = "seeded.unsound";
    Key.MineSig = "W(p1)";
    Key.TheirsSig = "W(p1)";
    J.cache()->insert(std::move(Key), symbolic::Condition::valid());
  }

  verify::VerifyConfig VC;
  VC.IntScope = Opts.VerifyScope;
  VC.MaxPoints = Opts.VerifyMaxPoints;
  verify::TableReport R = verify::verifyTable(*J.cache(), J.registry(), VC);

  // The hand-written spec tables carry the same safety obligation as
  // the learned conditions; replay them against the reference
  // semantics on every verify (they gate the tier-1 fast path).
  std::vector<conflict::SpecTableEntry> SpecEntries(
      std::begin(conflict::SpecTables), std::end(conflict::SpecTables));
  if (Opts.SeedUnsoundSpec)
    SpecEntries.push_back(verify::seededUnsoundSpecEntry());
  verify::SpecReport SR = verify::checkSpecTables(
      SpecEntries.data(), SpecEntries.size(), verify::SpecCheckConfig{});

  if (!Opts.Json) {
    std::printf("workload   : %s (%zu cache entries)\n",
                W->name().c_str(), J.cache()->size());
    std::printf("%s", R.toText(Opts.Verbose).c_str());
    std::printf("%s", SR.toText(Opts.Verbose).c_str());
    std::printf("table      : %s\n", R.clean() ? "SOUND" : "UNSOUND");
    std::printf("spec tables: %s\n", SR.clean() ? "SOUND" : "CONVICTED");
  }
  if (Opts.Json || !Opts.JsonOut.empty()) {
    JsonWriter Wr;
    Wr.beginObject();
    Wr.field("schema_version", JsonSchemaVersion);
    Wr.field("tool", "janus");
    Wr.field("command", "verify");
    Wr.key("conditions");
    Wr.raw(R.toJson());
    Wr.key("spec_tables");
    Wr.raw(SR.toJson());
    Wr.endObject();
    if (!emitJsonReport(Wr.str(), Opts))
      return 1;
  }
  return R.clean() && SR.clean() ? 0 : 4;
}

int cmdRun(const CliOptions &Opts) {
  auto W = workloadByName(Opts.WorkloadName);
  if (!W) {
    std::fprintf(stderr, "janus: error: unknown workload '%s'\n",
                 Opts.WorkloadName.c_str());
    return 1;
  }
  Janus J(configFor(Opts));
  W->setup(J);

  if (Opts.Detector == DetectorKind::Sequence) {
    if (!Opts.CacheIn.empty()) {
      std::ifstream In(Opts.CacheIn);
      std::ostringstream Buffer;
      Buffer << In.rdbuf();
      if (!In || !J.importTrainingArtifact(Buffer.str())) {
        std::fprintf(stderr,
                     "janus: error: cannot load training artifact '%s'\n",
                     Opts.CacheIn.c_str());
        return 1;
      }
      if (!Opts.Json)
        std::printf("loaded training artifact: %zu cache entries\n",
                    J.cache()->size());
    } else {
      for (const PayloadSpec &P : W->trainingPayloads(Opts.Rounds))
        J.train(W->makeTasks(P));
      if (!Opts.Json)
        std::printf("trained: %zu cache entries\n", J.cache()->size());
    }
  }

  // SIGINT/SIGTERM cancels the in-flight run cooperatively (global
  // shutdown token checked at attempt boundaries and inside backoff
  // waits), so the trace/metrics/JSON output below still happens —
  // interrupting a long run no longer drops its observability.
  installStopHandlers();
  J.setCancellations(&GRunCancel);

  PayloadSpec Payload{Opts.Seed, Opts.Production};
  RunOutcome O = W->runOn(J, Payload);
  J.setCancellations(nullptr);
  const bool Interrupted = GStopRequested.load(std::memory_order_acquire);
  bool Verified = !Interrupted && W->verify(J, Payload);

  if (Interrupted && !Opts.Json)
    std::printf("interrupted: run cancelled (%zu tasks unfinished); "
                "flushing observability output\n",
                O.Failures.size());

  if (!Opts.Json) {
    std::printf("workload   : %s (%s, %s engine, %u %s)\n",
                W->name().c_str(), J.detector().name().c_str(),
                Opts.Engine == EngineKind::Simulated ? "simulated"
                                                     : "threaded",
                Opts.Threads,
                Opts.Engine == EngineKind::Simulated ? "cores" : "threads");
    std::printf("speedup    : %.2fx (parallel %.1f vs sequential %.1f)\n",
                O.speedup(), O.ParallelTime, O.SequentialTime);
    std::printf("commits    : %llu\n",
                (unsigned long long)J.runStats().Commits.load());
    std::printf("retries    : %llu (ratio %.3f)\n",
                (unsigned long long)J.runStats().Retries.load(),
                J.runStats().retryRatio());
    printResilience(J, O);
    if (auto *SD = J.sequenceDetector()) {
      const stm::DetectorStats &DS = J.detectorStats();
      std::printf("queries    : %llu pairs, %llu hits, %llu misses, "
                  "%llu online, %llu write-set, %llu degraded\n",
                  (unsigned long long)DS.PairQueries.load(),
                  (unsigned long long)DS.CacheHits.load(),
                  (unsigned long long)DS.CacheMisses.load(),
                  (unsigned long long)DS.OnlineChecks.load(),
                  (unsigned long long)DS.WriteSetChecks.load(),
                  (unsigned long long)DS.DegradedQueries.load());
      std::printf("specs      : %s mode, %llu hits, %llu abstains, "
                  "%llu interned-signature hits\n",
                  conflict::specModeName(Opts.Specs),
                  (unsigned long long)DS.SpecHits.load(),
                  (unsigned long long)DS.SpecAbstains.load(),
                  (unsigned long long)DS.SignatureInternHits.load());
      std::printf("unique     : %zu queries, %zu misses\n",
                  SD->uniqueQueries(), SD->uniqueMisses());
      if (Opts.PrintMisses)
        for (const std::string &Key : SD->missedQueryKeys())
          std::printf("  MISS %s\n", Key.c_str());
    }
    if (const obs::Observer *Ob = J.observer())
      std::printf("%s", Ob->metricsTable().c_str());
    std::printf("final state: %s\n",
                Verified ? "verified OK" : "VERIFICATION FAILED");
  }
  if (!exportTrace(J, Opts))
    return 1;
  if (!Opts.RecordOut.empty()) {
    // The engine is quiesced (run returned), so the snapshot is safe.
    obs::Recorder *R = J.recorder();
    std::vector<obs::RecEvent> Events = R->snapshot();
    std::string Err;
    if (!obs::writeJrec(Opts.RecordOut, recMetaFor(Opts, W->name(), "manual", *R),
                        Events, &Err)) {
      std::fprintf(stderr, "janus: error: %s\n", Err.c_str());
      return 1;
    }
    if (!Opts.Json)
      std::printf("recording  : %zu events (%llu written, %llu overwritten) "
                  "-> %s\n",
                  Events.size(), (unsigned long long)R->written(),
                  (unsigned long long)R->overwritten(),
                  Opts.RecordOut.c_str());
  }
  if (Opts.Json || !Opts.JsonOut.empty()) {
    std::string Report =
        runReportJson("run", W->name(), J, O, Verified, Opts);
    if (!emitJsonReport(Report, Opts))
      return 1;
  }
  if (!Opts.CacheOut.empty()) {
    std::ofstream Out(Opts.CacheOut, std::ios::trunc);
    if (Out) {
      Out << J.exportTrainingArtifact();
      if (!Opts.Json)
        std::printf("training artifact saved to %s\n",
                    Opts.CacheOut.c_str());
    }
  }
  if (Interrupted)
    return 130; // Conventional SIGINT exit, observability flushed.
  return Verified ? 0 : 2;
}

/// `janus serve`: the long-running submission service (janus::serve,
/// DESIGN.md §12). In-process load-generator clients (and optionally a
/// local-socket frontend) submit tasks drawn from the workload's
/// production task set; the service batches them onto the engine with
/// admission control, deadlines, a stall watchdog and graceful drain.
int cmdServe(const CliOptions &Opts) {
  using namespace janus::serve;
  using SteadyClock = std::chrono::steady_clock;

  auto W = workloadByName(Opts.WorkloadName);
  if (!W) {
    std::fprintf(stderr, "janus: error: unknown workload '%s'\n",
                 Opts.WorkloadName.c_str());
    return 1;
  }
  JanusConfig Cfg = configFor(Opts);
  Cfg.RecordTrace = Opts.Audit; // Per-batch audits replay the trace.
  Janus J(Cfg);
  W->setup(J);

  if (Opts.Detector == DetectorKind::Sequence) {
    if (!Opts.CacheIn.empty()) {
      std::ifstream In(Opts.CacheIn);
      std::ostringstream Buffer;
      Buffer << In.rdbuf();
      if (!In || !J.importTrainingArtifact(Buffer.str())) {
        std::fprintf(stderr,
                     "janus: error: cannot load training artifact '%s'\n",
                     Opts.CacheIn.c_str());
        return 1;
      }
    } else {
      for (const PayloadSpec &P : W->trainingPayloads(Opts.Rounds))
        J.train(W->makeTasks(P));
    }
  }

  // Submissions name tasks by index into the workload's production
  // task set (modulo), so the mix a client generates is the mix the
  // paper benchmarks.
  std::vector<stm::TaskFn> Pool =
      W->makeTasks(PayloadSpec{Opts.Seed, Opts.Production});
  if (Pool.empty()) {
    std::fprintf(stderr, "janus: error: workload produced no tasks\n");
    return 1;
  }

  ServeConfig SC;
  SC.BatchMax = Opts.ServeBatchMax;
  SC.QueueCap = Opts.ServeQueueCap;
  SC.LaneCap = Opts.ServeLaneCap;
  SC.Ordered = W->ordered();
  SC.Audit = Opts.Audit;
  SC.DrainHardUs = Opts.ServeDrainMs * 1000;
  SC.StopFlag = &GStopRequested;
  SC.MetricsPeriodUs = Opts.MetricsEveryMs * 1000;
  if (SC.MetricsPeriodUs > 0)
    SC.MetricsSink = [](const std::string &Json) {
      std::fprintf(stderr, "metrics %s\n", Json.c_str());
    };

  // Flight-recorder dumps. Every DumpFn call happens on the scheduler
  // thread with no batch in flight (Serve.cpp quiesces first), so the
  // snapshot and the dump counter race with nothing.
  unsigned DumpCount = 0;
  if (!Opts.RecordOut.empty()) {
    SC.DumpFlag = &GDumpRequested; // SIGUSR2 requests a dump.
    SC.DumpFn = [&J, &W, &Opts, &DumpCount](const char *Reason) {
      obs::Recorder *R = J.recorder();
      if (!R)
        return;
      std::string Path = Opts.RecordOut;
      if (DumpCount > 0)
        Path += "." + std::to_string(DumpCount);
      ++DumpCount;
      std::vector<obs::RecEvent> Events =
          R->snapshot(R->config().SnapshotWindowUs);
      std::string Err;
      if (!obs::writeJrec(Path, recMetaFor(Opts, W->name(), Reason, *R),
                          Events, &Err))
        std::fprintf(stderr, "janus: error: recorder dump: %s\n",
                     Err.c_str());
      else
        std::fprintf(stderr, "recorder dump (%s): %zu events -> %s\n",
                     Reason, Events.size(), Path.c_str());
    };
  }

  Service S(J, Pool, SC);

  std::unique_ptr<SocketFrontend> Frontend;
  if (!Opts.ServeSocket.empty()) {
    // The `metrics` reply composes the observer counters with the
    // service's per-client/per-lane rollups (schema v3).
    Frontend = std::make_unique<SocketFrontend>(
        S, Opts.ServeSocket, [&J, &S]() -> std::string {
          const obs::Observer *O = J.observer();
          JsonWriter Wr;
          Wr.beginObject();
          Wr.field("schema_version", JsonSchemaVersion);
          Wr.key("obs");
          Wr.raw(O ? O->metricsJson() : std::string("{}"));
          Wr.key("rollups");
          Wr.raw(S.rollupJson());
          Wr.endObject();
          return Wr.str();
        });
    std::string Err;
    if (!Frontend->start(&Err)) {
      std::fprintf(stderr, "janus: error: frontend: %s\n", Err.c_str());
      return 1;
    }
    std::printf("serving on %s\n", Opts.ServeSocket.c_str());
  }
  S.setReplySink([&](const Reply &R) {
    if (Frontend && Frontend->route(R))
      return; // Socket client; written to its connection.
    // In-process generator clients: replies are counted by the service
    // report; nothing to stream.
  });

  installStopHandlers();

  // In-process load generators: client ids 1..N, each submitting a
  // deterministic pseudo-random task mix at the configured rate.
  const size_t PoolSize = Pool.size();
  std::atomic<bool> GenStop{false};
  std::vector<std::thread> Generators;
  for (unsigned C = 0; C < Opts.ServeClients; ++C)
    Generators.emplace_back([&, C] {
      std::mt19937_64 Rng(Opts.Seed * 8191 + C);
      const int64_t PeriodUs =
          Opts.ServeRate > 0 ? 1000000 / Opts.ServeRate : 0;
      const auto End = Opts.ServeDurationMs > 0
                           ? SteadyClock::now() +
                                 std::chrono::milliseconds(
                                     Opts.ServeDurationMs)
                           : SteadyClock::time_point::max();
      uint64_t SubId = 0;
      while (SteadyClock::now() < End &&
             !GenStop.load(std::memory_order_acquire) && !S.stopping()) {
        S.submit(C + 1, ++SubId,
                 static_cast<uint32_t>(Rng() % PoolSize),
                 Opts.ServeDeadlineMs > 0 ? Opts.ServeDeadlineMs * 1000
                                          : 0);
        if (PeriodUs > 0)
          std::this_thread::sleep_for(std::chrono::microseconds(PeriodUs));
      }
    });

  // Bounded runs stop themselves once the generators finish; unbounded
  // ones (duration 0) run until a signal flips the stop flag. With no
  // generators (socket-only mode) the duration bounds wall clock
  // directly — polled so a signal-initiated stop still wins.
  std::thread Stopper([&] {
    for (std::thread &T : Generators)
      T.join();
    if (Opts.ServeDurationMs > 0) {
      if (Generators.empty()) {
        const auto End = SteadyClock::now() +
                         std::chrono::milliseconds(Opts.ServeDurationMs);
        while (SteadyClock::now() < End && !S.stopping())
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      S.requestStop();
    }
  });

  S.serve(); // Blocks until stop + drain complete.
  GenStop.store(true, std::memory_order_release);
  Stopper.join();
  if (Frontend)
    Frontend->stop();

  ServeReport R = S.report();
  if (!Opts.Json) {
    std::printf("workload   : %s (%s engine, %u threads, %u shards, %s)\n",
                W->name().c_str(),
                Opts.Engine == EngineKind::Simulated ? "simulated"
                                                     : "threaded",
                Opts.Threads, Opts.Shards,
                SC.Ordered ? "in-order" : "out-of-order");
    std::printf("received   : %llu submissions (%llu shed)\n",
                (unsigned long long)R.Received,
                (unsigned long long)R.Sheds);
    std::printf("replies    : %llu (%llu committed, %llu failed, %llu "
                "deadline, %llu drained)\n",
                (unsigned long long)R.Replies,
                (unsigned long long)R.Committed,
                (unsigned long long)R.Failed,
                (unsigned long long)R.DeadlineFailures,
                (unsigned long long)R.DrainedInflight);
    std::printf("batches    : %llu (%llu watchdog escalations, %llu "
                "audit violations)\n",
                (unsigned long long)R.Batches,
                (unsigned long long)R.WatchdogEscalations,
                (unsigned long long)R.AuditViolations);
    if (Frontend)
      std::printf("frontend   : %llu connections\n",
                  (unsigned long long)Frontend->connectionsAccepted());
    std::printf("drain      : %s\n",
                R.DrainedInTime ? "graceful (within hard deadline)"
                                : "hard (in-flight work cancelled)");
    if (const obs::Observer *Ob = J.observer())
      std::printf("%s", Ob->metricsTable().c_str());
    std::printf("service    : %s\n",
                R.clean() ? "CLEAN (every submission got exactly one "
                            "terminal reply)"
                          : "UNCLEAN");
  }
  if (Opts.Json || !Opts.JsonOut.empty()) {
    JsonWriter Wr;
    Wr.beginObject();
    Wr.field("schema_version", JsonSchemaVersion);
    Wr.field("tool", "janus");
    Wr.field("command", "serve");
    Wr.field("workload", std::string_view(W->name()));
    Wr.field("engine",
             Opts.Engine == EngineKind::Simulated ? "sim" : "threads");
    Wr.field("threads", static_cast<uint64_t>(Opts.Threads));
    Wr.field("shards", static_cast<uint64_t>(Opts.Shards));
    Wr.key("serve");
    Wr.beginObject();
    Wr.field("received", R.Received);
    Wr.field("sheds", R.Sheds);
    Wr.field("committed", R.Committed);
    Wr.field("failed", R.Failed);
    Wr.field("deadline_failures", R.DeadlineFailures);
    Wr.field("drained_inflight", R.DrainedInflight);
    Wr.field("watchdog_escalations", R.WatchdogEscalations);
    Wr.field("batches", R.Batches);
    Wr.field("replies", R.Replies);
    Wr.field("audit_violations", R.AuditViolations);
    Wr.field("drained_in_time", R.DrainedInTime);
    Wr.field("clean", R.clean());
    Wr.endObject();
    Wr.key("rollups");
    Wr.raw(S.rollupJson());
    if (const obs::Observer *Ob = J.observer()) {
      Wr.key("obs");
      Wr.raw(Ob->metricsJson());
    }
    Wr.endObject();
    if (!emitJsonReport(Wr.str(), Opts))
      return 1;
  }
  return R.clean() ? 0 : 1;
}

/// `janus explain`: run with trace recording on, then attribute every
/// abort to its conflict source (location, operation pair, Figure 8
/// verdict) and print the ranked table. See obs/Attribution.h.
int cmdExplain(const CliOptions &Opts) {
  auto W = workloadByName(Opts.WorkloadName);
  if (!W) {
    std::fprintf(stderr, "janus: error: unknown workload '%s'\n",
                 Opts.WorkloadName.c_str());
    return 1;
  }
  JanusConfig Cfg = configFor(Opts);
  Cfg.RecordTrace = true; // Attribution replays the recorded attempts.
  Janus J(Cfg);
  W->setup(J);

  if (Opts.Detector == DetectorKind::Sequence) {
    if (!Opts.CacheIn.empty()) {
      std::ifstream In(Opts.CacheIn);
      std::ostringstream Buffer;
      Buffer << In.rdbuf();
      if (!In || !J.importTrainingArtifact(Buffer.str())) {
        std::fprintf(stderr,
                     "janus: error: cannot load training artifact '%s'\n",
                     Opts.CacheIn.c_str());
        return 1;
      }
    } else {
      for (const PayloadSpec &P : W->trainingPayloads(Opts.Rounds))
        J.train(W->makeTasks(P));
    }
  }

  PayloadSpec Payload{Opts.Seed, Opts.Production};
  RunOutcome O = W->runOn(J, Payload);

  obs::AbortAttribution A =
      obs::attributeAborts(J.lastTrace(), J.registry());
  obs::ContentionHeatmap Heat;
  std::string CounterTrack;
  if (Opts.ByObject) {
    Heat = obs::buildHeatmap(J.lastTrace(), J.registry());
    if (!Opts.TraceOut.empty())
      CounterTrack = obs::counterTrackEvents(J.lastTrace(), J.registry());
  }

  if (!Opts.Json) {
    std::printf("workload   : %s (%s, %s engine, %u %s)\n",
                W->name().c_str(), J.detector().name().c_str(),
                Opts.Engine == EngineKind::Simulated ? "simulated"
                                                     : "threaded",
                Opts.Threads,
                Opts.Engine == EngineKind::Simulated ? "cores" : "threads");
    std::printf("run        : %llu commits, %llu retries, speedup %.2fx\n",
                (unsigned long long)J.runStats().Commits.load(),
                (unsigned long long)J.runStats().Retries.load(),
                O.speedup());
    printResilience(J, O);
    if (J.sequenceDetector()) {
      const stm::DetectorStats &DS = J.detectorStats();
      std::printf("detection  : %llu pair queries (%llu spec hits, %llu "
                  "spec abstains, %llu cache hits)\n",
                  (unsigned long long)DS.PairQueries.load(),
                  (unsigned long long)DS.SpecHits.load(),
                  (unsigned long long)DS.SpecAbstains.load(),
                  (unsigned long long)DS.CacheHits.load());
    }
    std::printf("%s", A.toTable(Opts.Top).c_str());
    if (Opts.ByObject)
      std::printf("%s", Heat.toTable(Opts.Top).c_str());
  }
  if (!exportTrace(J, Opts, CounterTrack))
    return 1;
  if (Opts.Json || !Opts.JsonOut.empty()) {
    JsonWriter Wr;
    Wr.beginObject();
    Wr.field("schema_version", JsonSchemaVersion);
    Wr.field("tool", "janus");
    Wr.field("command", "explain");
    Wr.field("workload", std::string_view(W->name()));
    Wr.key("attribution");
    Wr.raw(A.toJson());
    if (Opts.ByObject) {
      Wr.key("by_object");
      Wr.raw(Heat.toJson());
    }
    Wr.endObject();
    if (!emitJsonReport(Wr.str(), Opts))
      return 1;
  }
  return 0;
}

int cmdAudit(const CliOptions &Opts) {
  auto W = workloadByName(Opts.WorkloadName);
  if (!W) {
    std::fprintf(stderr, "janus: error: unknown workload '%s'\n",
                 Opts.WorkloadName.c_str());
    return 1;
  }
  JanusConfig Cfg = configFor(Opts);
  Cfg.RecordTrace = true;
  Janus J(Cfg);
  W->setup(J);

  if (Opts.Detector == DetectorKind::Sequence) {
    if (!Opts.CacheIn.empty()) {
      std::ifstream In(Opts.CacheIn);
      std::ostringstream Buffer;
      Buffer << In.rdbuf();
      if (!In || !J.importTrainingArtifact(Buffer.str())) {
        std::fprintf(stderr,
                     "janus: error: cannot load training artifact '%s'\n",
                     Opts.CacheIn.c_str());
        return 1;
      }
    } else {
      for (const PayloadSpec &P : W->trainingPayloads(Opts.Rounds))
        J.train(W->makeTasks(P));
    }
  }

  // Build the task set once so the audit replays the exact bodies the
  // run executed.
  PayloadSpec Payload{Opts.Seed, Opts.Production};
  std::vector<stm::TaskFn> Tasks = W->makeTasks(Payload);
  stm::resetEscapes();
  RunOutcome O =
      W->ordered() ? J.runInOrder(Tasks) : J.runOutOfOrder(Tasks);

  analysis::AuditReport Report =
      analysis::audit(J.lastTrace(), Tasks, J.registry());

  std::printf("workload   : %s (%s, %s engine, %u %s)\n",
              W->name().c_str(), J.detector().name().c_str(),
              Opts.Engine == EngineKind::Simulated ? "simulated"
                                                   : "threaded",
              Opts.Threads,
              Opts.Engine == EngineKind::Simulated ? "cores" : "threads");
  std::printf("run        : %llu commits, %llu retries, speedup %.2fx\n",
              (unsigned long long)J.runStats().Commits.load(),
              (unsigned long long)J.runStats().Retries.load(), O.speedup());
  printResilience(J, O);
  std::printf("%s\n", Report.summary().c_str());
  std::printf("final state: %s\n",
              W->verify(J, Payload) ? "verified OK" : "VERIFICATION FAILED");
  return Report.clean() ? 0 : 3;
}

/// `janus replay`: deterministic re-execution of a flight-recorder dump
/// (DESIGN.md §13). The `.jrec` header names the full run configuration,
/// so the replay rebuilds the same instance (same workload, seed,
/// training rounds, detector) and then forces the recorded schedule
/// through the simulated engine; the divergence check compares the
/// replayed commit order and dense clock sequence against the recording
/// bit for bit. Exit 5 on divergence, 3 on an unclean audit, 0 clean.
int cmdReplay(const CliOptions &Opts) {
  if (Opts.ReplayFile.empty()) {
    std::fprintf(stderr,
                 "janus: error: replay needs a .jrec file argument\n");
    return 1;
  }
  obs::RecMeta Meta;
  std::vector<obs::RecEvent> Events;
  std::string Err;
  if (!obs::readJrec(Opts.ReplayFile, Meta, Events, &Err)) {
    std::fprintf(stderr, "janus: error: %s\n", Err.c_str());
    return 1;
  }
  if (Meta.SampleEvery > 1) {
    std::fprintf(stderr,
                 "janus: error: '%s' was recorded with --sample %u; a "
                 "sampled stream is inspection-only (replay needs every "
                 "event)\n",
                 Opts.ReplayFile.c_str(), Meta.SampleEvery);
    return 1;
  }
  if (Meta.Overwritten > 0) {
    std::fprintf(stderr,
                 "janus: error: '%s' lost %llu events to ring wrap-around; "
                 "re-record with a larger --record-cap\n",
                 Opts.ReplayFile.c_str(),
                 (unsigned long long)Meta.Overwritten);
    return 1;
  }
  auto W = workloadByName(Meta.Workload);
  if (!W) {
    std::fprintf(stderr,
                 "janus: error: recording names unknown workload '%s'\n",
                 Meta.Workload.c_str());
    return 1;
  }

  stm::ReplaySchedule Sched;
  if (!stm::buildReplaySchedule(Events, Meta.Shards, Sched, &Err)) {
    std::fprintf(stderr, "janus: error: %s\n", Err.c_str());
    return 1;
  }

  if (Opts.ProbeDivergence) {
    // Rewrite the final commit into a conflict abort while leaving the
    // recorded commit reference untouched: the replay must now come up
    // one commit short and fail the bit-for-bit comparison. Steps are
    // sorted by decision clock with commits first, so the last committed
    // step is the one with the largest commit time.
    for (size_t I = Sched.Steps.size(); I-- > 0;) {
      stm::ReplayStep &St = Sched.Steps[I];
      if (!St.Committed)
        continue;
      St.Committed = false;
      St.AbortReason = obs::RecAbortConflict;
      St.End = St.CommitTime > 0 ? St.CommitTime - 1 : 0;
      St.CommitTime = 0;
      St.Mode = 0;
      break;
    }
  }

  // Rebuild the recorded configuration on the simulated engine. The
  // fault plan is deliberately not re-armed: the schedule already
  // encodes every injected outcome as a recorded abort.
  JanusConfig Cfg;
  Cfg.Threads = std::max(1u, Meta.Threads);
  Cfg.Engine = EngineKind::Simulated;
  Cfg.Detector = Meta.Detector == "writeset" ? DetectorKind::WriteSet
                                             : DetectorKind::Sequence;
  Cfg.Sequence.UseAbstraction = Meta.Abstraction;
  Cfg.Sequence.OnlineFallback = Meta.Fallback;
  Cfg.Training.InferWAWRelaxation = true;
  Cfg.Training.MaxConcat = 8;
  Cfg.RecordTrace = true; // The divergence check reads the replayed trace.
  Cfg.Obs.Enabled = true; // Replay runs under full instrumentation.
  std::vector<std::string> Problems;
  Cfg.Replay = &Sched;
  Cfg.ReplayProblems = &Problems;
  Janus J(Cfg);
  W->setup(J);

  if (Cfg.Detector == DetectorKind::Sequence)
    for (const PayloadSpec &P :
         W->trainingPayloads(static_cast<int>(Meta.Rounds)))
      J.train(W->makeTasks(P));

  PayloadSpec Payload{Meta.Seed, Meta.Production != 0};
  std::vector<stm::TaskFn> Tasks = W->makeTasks(Payload);
  if (Tasks.size() != Sched.MaxTid) {
    std::fprintf(stderr,
                 "janus: error: the recording holds %u tasks but the "
                 "workload produced %zu — wrong seed or payload?\n",
                 Sched.MaxTid, Tasks.size());
    return 1;
  }
  RunOutcome O = W->ordered() ? J.runInOrder(Tasks) : J.runOutOfOrder(Tasks);
  (void)O;

  analysis::DivergenceReport DR =
      analysis::checkDivergence(Sched, J.lastTrace());
  // Execution-time problems (a step that could not re-execute at all)
  // are divergence evidence too; surface them ahead of the comparisons.
  DR.Findings.insert(DR.Findings.begin(), Problems.begin(), Problems.end());
  analysis::AuditReport AR =
      analysis::audit(J.lastTrace(), Tasks, J.registry());

  uint64_t ReplayedCommits = 0, ReplayedAborts = 0;
  for (const stm::TraceEvent &E : J.lastTrace().Events)
    (E.Committed ? ReplayedCommits : ReplayedAborts) += 1;

  if (!Opts.Json) {
    std::printf("recording  : %s (%s, %s engine, %u threads, %u shards%s%s)\n",
                Opts.ReplayFile.c_str(), Meta.Workload.c_str(),
                Meta.Engine.c_str(), Meta.Threads, Meta.Shards,
                Meta.Reason.empty() ? "" : ", reason: ",
                Meta.Reason.c_str());
    std::printf("schedule   : %u tasks, %zu steps, %zu recorded commits\n",
                Sched.MaxTid, Sched.Steps.size(), Sched.CommitRef.size());
    if (Opts.ProbeDivergence)
      std::printf("probe      : final commit rewritten into a conflict "
                  "abort; divergence expected\n");
    std::printf("replay     : %llu commits, %llu conflict aborts "
                "re-executed\n",
                (unsigned long long)ReplayedCommits,
                (unsigned long long)ReplayedAborts);
    std::printf("divergence : %s\n", DR.summary().c_str());
    std::printf("%s\n", AR.summary().c_str());
    if (const obs::Observer *Ob = J.observer())
      std::printf("%s", Ob->metricsTable().c_str());
  }
  if (!exportTrace(J, Opts))
    return 1;
  if (Opts.Json || !Opts.JsonOut.empty()) {
    JsonWriter Wr;
    Wr.beginObject();
    Wr.field("schema_version", JsonSchemaVersion);
    Wr.field("tool", "janus");
    Wr.field("command", "replay");
    Wr.field("file", std::string_view(Opts.ReplayFile));
    Wr.field("workload", std::string_view(Meta.Workload));
    Wr.field("recorded_engine", std::string_view(Meta.Engine));
    Wr.field("reason", std::string_view(Meta.Reason));
    Wr.field("tasks", static_cast<uint64_t>(Sched.MaxTid));
    Wr.field("steps", static_cast<uint64_t>(Sched.Steps.size()));
    Wr.field("replayed_commits", ReplayedCommits);
    Wr.field("replayed_conflict_aborts", ReplayedAborts);
    Wr.field("divergence_clean", DR.clean());
    Wr.key("divergence_findings");
    Wr.beginArray();
    for (const std::string &F : DR.Findings)
      Wr.value(std::string_view(F));
    Wr.endArray();
    Wr.field("audit_clean", AR.clean());
    Wr.endObject();
    if (!emitJsonReport(Wr.str(), Opts))
      return 1;
  }
  if (!DR.clean())
    return 5;
  return AR.clean() ? 0 : 3;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage();
    return 1;
  }
  // Replay reconstructs its configuration from the recording's header,
  // so the CLI shard/engine combination check does not apply to it.
  if (Opts.Shards > 1 && Opts.Engine != EngineKind::Threaded &&
      Opts.Command != "replay") {
    std::fprintf(stderr, "janus: error: --shards %u requires --engine "
                         "threads (the simulator has no sharded pipeline)\n",
                 Opts.Shards);
    return 1;
  }
  if (Opts.Command == "list")
    return cmdList();
  if (Opts.Command == "train")
    return cmdTrain(Opts);
  if (Opts.Command == "run")
    return cmdRun(Opts);
  if (Opts.Command == "audit")
    return cmdAudit(Opts);
  if (Opts.Command == "explain")
    return cmdExplain(Opts);
  if (Opts.Command == "verify")
    return cmdVerify(Opts);
  if (Opts.Command == "serve")
    return cmdServe(Opts);
  if (Opts.Command == "replay")
    return cmdReplay(Opts);
  usage();
  return 1;
}
