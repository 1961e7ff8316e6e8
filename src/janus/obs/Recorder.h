//===----------------------------------------------------------------------===//
///
/// \file
/// Flight recorder: an always-on, bounded, lock-free event stream.
///
/// Spans (Trace.h) answer "what did this sampled transaction do?";
/// the recorder answers a different question — "what exactly happened
/// just before that anomaly?" — and so has different constraints:
///
///  - **Complete by default.** Replay (`janus replay`) needs *every*
///    attempt's begin/abort/commit, so the default sampling period is
///    1 and the record is a fixed 40 bytes. SampleEvery > 1 degrades
///    the recorder to an inspection stream (replay refuses it).
///  - **Bounded.** Each lane owns a fixed-capacity ring that wraps by
///    overwriting its oldest records (spans instead *drop* new ones);
///    for a flight recorder the recent past is the valuable part.
///    Overwrites are accounted so a dump can say what was lost.
///  - **Lock-free.** One writer per lane (the same single-writer
///    discipline as TraceBuffer); the only shared word is the global
///    sequence counter, a relaxed fetch_add. There is no concurrent
///    reader: snapshot() is specified for quiesced engines only
///    (between batches, or after run() returned).
///
/// Events carry the dense commit clock (Theorem 4.1), which is what
/// makes the stream *replayable*: the total order of commits, each
/// attempt's begin point, and each shard's acquisition stamp are
/// exactly the schedule coordinates SimRuntime needs to re-execute
/// the interleaving deterministically (stm/Replay.h).
///
/// Like Obs.h, this header is include-only on the hot path so the
/// engines can record without linking janus_obs; the codec (`.jrec`
/// encode/decode) lives in Recorder.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_OBS_RECORDER_H
#define JANUS_OBS_RECORDER_H

#include "janus/support/Striped.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace janus {
namespace obs {

/// Event taxonomy. Values are part of the `.jrec` format; append only.
enum class RecKind : uint8_t {
  Begin = 1,        ///< Attempt began; Clock = clock at CREATETRANSACTION.
  Commit = 2,       ///< Attempt committed; Clock = dense CommitTime.
  Abort = 3,        ///< Attempt aborted; Aux = RecAbort* reason.
  ShardAcquire = 4, ///< Lazy shard acquisition; Aux = shard, Clock = stamp.
  Escalation = 5,   ///< CM escalated (Aux = ladder action ordinal).
  Cancel = 6,       ///< Cooperative cancellation (Aux = CancelReason).
  ServeTag = 7,     ///< Serve batch member: Aux = client, Clock = SubId.
};

/// Abort reasons (RecKind::Abort's Aux field).
inline constexpr uint32_t RecAbortConflict = 1;
inline constexpr uint32_t RecAbortInjected = 2;
inline constexpr uint32_t RecAbortException = 3;
inline constexpr uint32_t RecAbortCancelled = 4;

/// One fixed-size record. 40 bytes; encoded little-endian field by
/// field (Recorder.cpp), so the in-memory layout never leaks into the
/// file format. Mode is stm::CommitMode's raw value (this header must
/// not depend on stm).
struct RecEvent {
  uint64_t Seq = 0;    ///< Global total order (1-based).
  uint64_t Clock = 0;  ///< Kind-dependent dense-clock stamp.
  uint64_t TimeUs = 0; ///< Microseconds since recorder creation.
  uint32_t Tid = 0;    ///< 1-based task id (0 for engine-level events).
  uint32_t Attempt = 0;
  uint32_t Aux = 0;    ///< Kind-dependent (abort reason, shard, client...).
  uint8_t Kind = 0;    ///< RecKind.
  uint8_t Mode = 0;    ///< stm::CommitMode raw value (commits only).
  uint16_t Lane = 0;   ///< Writer lane (worker slot / control lane).
};

/// Recorder tuning.
struct RecorderConfig {
  bool Enabled = false;
  /// Sampling period; > 1 makes the stream inspection-only (replay
  /// requires every event).
  uint32_t SampleEvery = 1;
  /// Per-lane ring capacity in events (40 bytes each).
  uint32_t PerLaneCap = 1u << 16;
  /// Anomaly snapshots keep only the last this-many microseconds;
  /// 0 = the whole ring.
  int64_t SnapshotWindowUs = 0;
};

/// The per-lane ring store. Writers call record() from their own lane
/// only; snapshot()/written()/clear() require a quiesced engine (no
/// writer between batches or after run() returned).
class Recorder {
public:
  Recorder(RecorderConfig Config, unsigned NumLanes)
      : Config(Config), Start(std::chrono::steady_clock::now()),
        Lanes(std::max(1u, NumLanes)) {
    const uint32_t Cap = std::max<uint32_t>(Config.PerLaneCap, 16);
    for (LaneRing &L : Lanes)
      L.Ring.resize(Cap);
  }

  bool enabled() const { return Config.Enabled; }
  unsigned lanes() const { return static_cast<unsigned>(Lanes.size()); }
  const RecorderConfig &config() const { return Config; }

  /// Same task-keyed sampling rule as Observer::sampled.
  bool sampled(uint32_t Tid) const {
    const uint32_t N = Config.SampleEvery;
    return N <= 1 || Tid % N == 1 % N;
  }

  uint64_t nowUs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
  }

  /// Appends one event to \p Lane's ring (single writer per lane),
  /// overwriting the lane's oldest record when full. Seq is the global
  /// total order; relaxed is enough — cross-lane ordering is derived
  /// from the dense clock values, never from memory effects.
  void record(unsigned Lane, RecKind Kind, uint32_t Tid, uint32_t Attempt,
              uint64_t Clock, uint32_t Aux = 0, uint8_t Mode = 0) {
    LaneRing &L = Lanes[Lane < Lanes.size() ? Lane : Lanes.size() - 1];
    RecEvent &E = L.Ring[L.Written % L.Ring.size()];
    E.Seq = GlobalSeq.fetch_add(1, std::memory_order_relaxed) + 1;
    E.Clock = Clock;
    E.TimeUs = nowUs();
    E.Tid = Tid;
    E.Attempt = Attempt;
    E.Aux = Aux;
    E.Kind = static_cast<uint8_t>(Kind);
    E.Mode = Mode;
    E.Lane = static_cast<uint16_t>(Lane);
    ++L.Written;
  }

  /// Events written (including those since overwritten).
  uint64_t written() const {
    uint64_t N = 0;
    for (const LaneRing &L : Lanes)
      N += L.Written;
    return N;
  }

  /// Events lost to ring wrap-around.
  uint64_t overwritten() const {
    uint64_t N = 0;
    for (const LaneRing &L : Lanes) {
      const uint64_t Cap = L.Ring.size();
      N += L.Written > Cap ? L.Written - Cap : 0;
    }
    return N;
  }

  /// All surviving events in global Seq order, optionally limited to
  /// the trailing \p WindowUs microseconds (0 = everything). Quiesced
  /// engines only — see the class comment.
  std::vector<RecEvent> snapshot(int64_t WindowUs = 0) const {
    std::vector<RecEvent> Out;
    const uint64_t Cutoff =
        WindowUs > 0 ? (nowUs() > static_cast<uint64_t>(WindowUs)
                            ? nowUs() - static_cast<uint64_t>(WindowUs)
                            : 0)
                     : 0;
    for (const LaneRing &L : Lanes) {
      const uint64_t Cap = L.Ring.size();
      const uint64_t N = std::min(L.Written, Cap);
      for (uint64_t I = 0; I != N; ++I) {
        const RecEvent &E = L.Ring[I];
        if (E.TimeUs >= Cutoff)
          Out.push_back(E);
      }
    }
    std::sort(Out.begin(), Out.end(),
              [](const RecEvent &A, const RecEvent &B) { return A.Seq < B.Seq; });
    return Out;
  }

  void clear() {
    for (LaneRing &L : Lanes)
      L.Written = 0;
    GlobalSeq.store(0, std::memory_order_relaxed);
  }

private:
  struct alignas(CacheLineSize) LaneRing {
    std::vector<RecEvent> Ring;
    uint64_t Written = 0;
  };

  RecorderConfig Config;
  std::chrono::steady_clock::time_point Start;
  std::vector<LaneRing> Lanes;
  std::atomic<uint64_t> GlobalSeq{0};
};

/// Dump metadata: everything replay needs to reconstruct the run
/// configuration (identical re-training included) plus provenance for
/// a human reading the file. Serialized as a flat JSON object in the
/// `.jrec` header.
struct RecMeta {
  std::string Workload;
  std::string Engine;   ///< "threads" | "sim" (sharded runs say threads).
  uint64_t Seed = 0;
  uint32_t Threads = 0;
  uint32_t Shards = 1;
  uint32_t Production = 0; ///< Production payload scale (0 = default).
  uint32_t Rounds = 0;     ///< Training rounds the run used.
  std::string Detector;    ///< "writeset" | "sequence".
  bool Abstraction = false;
  bool Fallback = false;   ///< SAT fallback enabled.
  std::string Faults;      ///< FaultPlan spec string ("" = none).
  std::string Reason;      ///< Why the dump happened (sigusr2, watchdog...).
  uint64_t Written = 0;    ///< Recorder totals at dump time.
  uint64_t Overwritten = 0;
  uint32_t NumLanes = 0;
  uint32_t SampleEvery = 1;
};

/// Encodes \p Events with \p Meta into the binary `.jrec` format at
/// \p Path. \returns false (with \p Err set) on I/O failure.
bool writeJrec(const std::string &Path, const RecMeta &Meta,
               const std::vector<RecEvent> &Events, std::string *Err);

/// Decodes a `.jrec` file. Rejects truncated or corrupt input (magic,
/// version, header, event count, checksum) with a clean error message.
bool readJrec(const std::string &Path, RecMeta &Meta,
              std::vector<RecEvent> &Events, std::string *Err);

/// Runtime gate: nullptr when recording is off. Unlike janusObs() it
/// is not compiled out under -DJANUS_OBS=OFF — recording and replay are
/// correctness tooling, so a lean build can still record and replay.
inline Recorder *janusRec(Recorder *R) {
  return R && R->enabled() ? R : nullptr;
}

} // namespace obs
} // namespace janus

#endif // JANUS_OBS_RECORDER_H
