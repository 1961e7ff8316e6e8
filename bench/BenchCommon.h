//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the figure/table harnesses: the paper's
/// experimental schedule (§7.1) — 5 training runs, 10 production runs
/// with the first (cold) run excluded — applied to one workload under
/// one configuration, returning the aggregate measurements.
///
/// Also hosts the machine-readable perf-trajectory emitter: every bench
/// binary accepts `--json` (optionally `--json-out=PATH`) and then
/// writes its measurements as rows to `BENCH_<name>.json`, so runs can
/// be diffed across commits instead of eyeballing tables.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_BENCH_BENCHCOMMON_H
#define JANUS_BENCH_BENCHCOMMON_H

#include "janus/support/Format.h"
#include "janus/support/Json.h"
#include "janus/workloads/Workload.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace janus {
namespace bench {

/// One experiment's aggregated measurements.
struct Measurement {
  double Speedup = 0.0;     ///< Mean over counted production runs.
  double RetryRatio = 0.0;  ///< Total retries / total commits.
  uint64_t Commits = 0;
  uint64_t Retries = 0;
  size_t UniqueQueries = 0; ///< Sequence detector only.
  size_t UniqueMisses = 0;  ///< Sequence detector only.
  double MissRate() const {
    return UniqueQueries
               ? static_cast<double>(UniqueMisses) /
                     static_cast<double>(UniqueQueries)
               : 0.0;
  }
};

/// Experiment knobs.
struct ExperimentSpec {
  unsigned Threads = 8;
  core::DetectorKind Detector = core::DetectorKind::Sequence;
  bool UseAbstraction = true;
  /// On a cache miss, run the exact online check (the Figure 9/10
  /// default here) instead of the paper's write-set fallback (used by
  /// the Figure 11 miss-rate accounting, where aborting on misses is
  /// part of the measured dynamics).
  bool OnlineFallback = true;
  /// Disable the define-before-use fast path so every query exercises
  /// the cache (Figure 11 accounting).
  bool DisableFastPath = false;
  int TrainingRounds = 5;
  int ProductionRounds = 4; ///< First is discarded as cold.
  bool ProductionSized = true;
};

/// Runs the full schedule for \p WorkloadName and \returns the
/// aggregated measurement. Fresh Janus instance per call.
inline Measurement runExperiment(const std::string &WorkloadName,
                                 const ExperimentSpec &Spec) {
  using namespace janus::core;
  using namespace janus::workloads;

  auto W = workloadByName(WorkloadName);
  JANUS_ASSERT(W != nullptr, "unknown workload");

  JanusConfig Cfg;
  Cfg.Threads = Spec.Threads;
  Cfg.Detector = Spec.Detector;
  Cfg.Sequence.UseAbstraction = Spec.UseAbstraction;
  // Cache first; on a miss run the exact online check (our concrete
  // per-location evaluator is linear-time, unlike the SAT-backed check
  // the paper deemed too slow to run online — see EXPERIMENTS.md).
  Cfg.Sequence.OnlineFallback = Spec.OnlineFallback;
  Cfg.Sequence.RelaxationFastPath = !Spec.DisableFastPath;
  // Tier-1 spec tables on, matching the CLI default: spec-covered
  // locations (declared ADTs) short-circuit the learned pipeline.
  Cfg.Sequence.Specs = janus::conflict::SpecMode::On;
  Cfg.Training.InferWAWRelaxation = true;
  Cfg.Training.MaxConcat = 8;
  Janus J(Cfg);
  W->setup(J);

  if (Spec.Detector == DetectorKind::Sequence)
    for (const PayloadSpec &P : W->trainingPayloads(Spec.TrainingRounds))
      J.train(W->makeTasks(P));

  Measurement M;
  double SpeedupSum = 0.0;
  int Counted = 0;
  uint64_t BaseCommits = 0, BaseRetries = 0;
  auto Payloads = W->productionPayloads(Spec.ProductionRounds);
  for (int Round = 0; Round != Spec.ProductionRounds; ++Round) {
    PayloadSpec P = Payloads[Round];
    P.Production = Spec.ProductionSized;
    RunOutcome O = W->runOn(J, P);
    if (Round == 0) {
      // Discard the cold run (paper §7.1), including its statistics.
      BaseCommits = J.runStats().Commits.load();
      BaseRetries = J.runStats().Retries.load();
      if (auto *SD = J.sequenceDetector())
        SD->resetUniqueQueryTracking();
      continue;
    }
    SpeedupSum += O.speedup();
    ++Counted;
  }
  M.Speedup = Counted ? SpeedupSum / Counted : 0.0;
  M.Commits = J.runStats().Commits.load() - BaseCommits;
  M.Retries = J.runStats().Retries.load() - BaseRetries;
  M.RetryRatio = M.Commits ? static_cast<double>(M.Retries) /
                                 static_cast<double>(M.Commits)
                           : 0.0;
  if (auto *SD = J.sequenceDetector()) {
    M.UniqueQueries = SD->uniqueQueries();
    M.UniqueMisses = SD->uniqueMisses();
  }
  return M;
}

/// The five benchmark names in Table 5 order, followed by the two
/// spec-table stress kernels (DESIGN.md §14) so the perf trajectory
/// tracks the tier-1 fast path too.
inline std::vector<std::string> benchmarkNames() {
  return {"JFileSync", "JGraphT-1", "JGraphT-2", "PMD",
          "Weka",      "HashChurn", "SSCA2"};
}

/// A scalar cell of a bench-report row: string, integer, floating
/// point, or boolean, constructed implicitly so call sites can mix
/// types in one brace list.
class JsonValue {
public:
  JsonValue(const char *S) : Text(quote(S)) {}
  JsonValue(const std::string &S) : Text(quote(S)) {}
  JsonValue(double D) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.6g", D);
    Text = Buf;
  }
  JsonValue(int I) : Text(std::to_string(I)) {}
  JsonValue(unsigned I) : Text(std::to_string(I)) {}
  JsonValue(long I) : Text(std::to_string(I)) {}
  JsonValue(unsigned long I) : Text(std::to_string(I)) {}
  JsonValue(long long I) : Text(std::to_string(I)) {}
  JsonValue(unsigned long long I) : Text(std::to_string(I)) {}
  JsonValue(bool B) : Text(B ? "true" : "false") {}

  /// The value rendered as a JSON literal.
  const std::string &render() const { return Text; }

private:
  /// Shared with every other JSON artifact (support/Json.h) so all
  /// emitters agree on escaping — the hand-rolled version here only
  /// covered quote/backslash/newline and produced invalid JSON for
  /// other control characters.
  static std::string quote(const std::string &S) { return jsonQuote(S); }

  std::string Text;
};

/// One measurement row: ordered (field, value) pairs.
using JsonRow = std::vector<std::pair<std::string, JsonValue>>;

/// The shared `--json` emitter. Construct from argv; call addRow() for
/// every measurement; call write() before exiting. Without `--json` on
/// the command line everything is a no-op, so the human-readable table
/// output stays the default.
class BenchReport {
public:
  /// \param Name the binary's short name; output goes to
  ///        `BENCH_<Name>.json` in the working directory unless
  ///        `--json-out=PATH` overrides it.
  BenchReport(std::string Name, int Argc, char **Argv)
      : Name(std::move(Name)) {
    Path = "BENCH_" + this->Name + ".json";
    for (int I = 1; I < Argc; ++I) {
      std::string Arg = Argv[I];
      if (Arg == "--json")
        Enabled = true;
      else if (Arg.rfind("--json-out=", 0) == 0) {
        Enabled = true;
        Path = Arg.substr(std::string("--json-out=").size());
      }
    }
  }

  bool enabled() const { return Enabled; }

  /// Adds one top-level metadata field (emitted next to the rows).
  void setMeta(const std::string &Key, JsonValue V) {
    Meta.emplace_back(Key, std::move(V));
  }

  void addRow(JsonRow Row) {
    if (Enabled)
      Rows.push_back(std::move(Row));
  }

  /// Writes `{"schema_version": N, "bench": <name>, <meta...>,
  /// "rows": [...]}`. \returns false when writing was requested but
  /// failed.
  bool write() const {
    if (!Enabled)
      return true;
    std::ofstream Out(Path, std::ios::trunc);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
      return false;
    }
    Out << "{\n  \"schema_version\": " << JsonSchemaVersion;
    Out << ",\n  \"bench\": " << JsonValue(Name).render();
    for (const auto &[Key, Val] : Meta)
      Out << ",\n  " << JsonValue(Key).render() << ": " << Val.render();
    Out << ",\n  \"rows\": [";
    for (size_t R = 0; R != Rows.size(); ++R) {
      Out << (R ? ",\n    {" : "\n    {");
      for (size_t F = 0; F != Rows[R].size(); ++F)
        Out << (F ? ", " : "") << JsonValue(Rows[R][F].first).render()
            << ": " << Rows[R][F].second.render();
      Out << "}";
    }
    Out << "\n  ]\n}\n";
    std::fprintf(stderr, "wrote %s (%zu rows)\n", Path.c_str(),
                 Rows.size());
    return static_cast<bool>(Out);
  }

private:
  std::string Name;
  std::string Path;
  bool Enabled = false;
  std::vector<std::pair<std::string, JsonValue>> Meta;
  std::vector<JsonRow> Rows;
};

/// The host's CPU model (the first `model name` of /proc/cpuinfo), for
/// stamping wall-clock BENCH files with the machine they came from;
/// "unknown" where that file is absent.
inline std::string cpuModel() {
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

} // namespace bench
} // namespace janus

#endif // JANUS_BENCH_BENCHCOMMON_H
