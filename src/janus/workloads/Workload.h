//===----------------------------------------------------------------------===//
///
/// \file
/// Common interface of the five benchmark workloads (paper Table 5).
///
/// Each workload reproduces the parallelized loop of one evaluation
/// benchmark — the code the paper shows in Figures 1–5 — driven by
/// synthetic inputs sized per Table 6 (see DESIGN.md for the
/// substitution rationale). A workload knows how to:
///   - register its shared data structures (with the abstraction /
///     relaxation specifications the paper's authors supplied, §7.1);
///   - build its task set for a payload (training or production);
///   - verify the semantic invariants of the final shared state.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_WORKLOADS_WORKLOAD_H
#define JANUS_WORKLOADS_WORKLOAD_H

#include "janus/core/Janus.h"

#include <memory>
#include <string>
#include <vector>

namespace janus {
namespace workloads {

/// Identifies one input instance. Training payloads are intentionally
/// small (paper §5.2: generalization "allows use of small yet
/// sufficiently representative inputs during training").
struct PayloadSpec {
  uint64_t Seed = 1;
  bool Production = false;
};

/// One benchmark workload.
class Workload {
public:
  virtual ~Workload();

  /// Benchmark name as the paper reports it, e.g. "JFileSync".
  virtual std::string name() const = 0;

  /// Table 5 "Description".
  virtual std::string description() const = 0;

  /// Table 5 "Prevalent Patterns".
  virtual std::string patterns() const = 0;

  /// Table 6 input descriptions.
  virtual std::string trainingInputDesc() const = 0;
  virtual std::string productionInputDesc() const = 0;

  /// Whether the parallel loop must commit in task order (e.g. the
  /// greedy coloring mandates ordered traversal).
  virtual bool ordered() const = 0;

  /// Registers shared objects against \p J and seeds initial state.
  /// Must be called exactly once per Janus instance before tasks are
  /// built.
  virtual void setup(core::Janus &J) = 0;

  /// Builds the task set for \p Payload.
  virtual std::vector<stm::TaskFn> makeTasks(const PayloadSpec &Payload) = 0;

  /// Verifies the semantic invariants of \p J's shared state after the
  /// payload ran (order-insensitive properties for out-of-order
  /// workloads). \returns true when the state is correct.
  virtual bool verify(core::Janus &J, const PayloadSpec &Payload) = 0;

  /// Runs the workload in the given order mode.
  core::RunOutcome runOn(core::Janus &J, const PayloadSpec &Payload) {
    std::vector<stm::TaskFn> Tasks = makeTasks(Payload);
    return ordered() ? J.runInOrder(Tasks) : J.runOutOfOrder(Tasks);
  }

  /// The paper's experimental schedule: 5 training rounds then 10
  /// production rounds (the first production run is discarded as cold
  /// by the harness).
  std::vector<PayloadSpec> trainingPayloads(int Count = 5) const;
  std::vector<PayloadSpec> productionPayloads(int Count = 10) const;
};

/// \returns fresh instances of all workloads: the five paper
/// benchmarks in Table 5 order (JFileSync, JGraphT-1, JGraphT-2, PMD,
/// Weka) followed by the spec-table stress kernels (HashChurn, SSCA2;
/// DESIGN.md §14).
std::vector<std::unique_ptr<Workload>> allWorkloads();

/// \returns one workload by name, or nullptr.
std::unique_ptr<Workload> workloadByName(const std::string &Name);

/// \returns the key \p Prefix followed by \p N in decimal ("n12").
/// Appends rather than `"n" + std::to_string(N)`, for which GCC 12 at
/// -O3 raises a false -Wrestrict.
inline std::string indexedKey(char Prefix, int64_t N) {
  std::string Key(1, Prefix);
  Key += std::to_string(N);
  return Key;
}

} // namespace workloads
} // namespace janus

#endif // JANUS_WORKLOADS_WORKLOAD_H
