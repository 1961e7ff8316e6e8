//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the flight recorder and deterministic replay (DESIGN.md
/// §13): the bounded per-lane ring and its drop accounting, the binary
/// `.jrec` codec (round-trip plus corruption rejection), schedule
/// reconstruction's completeness validation, record→replay round trips
/// on both recording engines with the bit-for-bit divergence check,
/// and the serve-side anomaly dump triggers.
///
//===----------------------------------------------------------------------===//

#include "janus/analysis/Divergence.h"
#include "janus/core/Janus.h"
#include "janus/obs/Recorder.h"
#include "janus/serve/Serve.h"
#include "janus/stm/Replay.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace janus;
using namespace janus::core;
using namespace janus::obs;
using stm::TaskFn;
using stm::TxContext;

namespace {

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + Name;
}

RecMeta sampleMeta() {
  RecMeta M;
  M.Workload = "Weka";
  M.Engine = "threads";
  M.Seed = 100;
  M.Threads = 8;
  M.Shards = 4;
  M.Production = 1;
  M.Rounds = 5;
  M.Detector = "sequence";
  M.Abstraction = true;
  M.Fallback = true;
  M.Faults = "abort@*.1;throw@2.1;delay@*.2=3";
  M.Reason = "watchdog";
  M.Written = 1234;
  M.Overwritten = 0;
  M.NumLanes = 9;
  M.SampleEvery = 1;
  return M;
}

std::vector<RecEvent> sampleEvents(size_t N) {
  std::vector<RecEvent> Out;
  for (size_t I = 0; I != N; ++I) {
    RecEvent E;
    E.Seq = I + 1;
    E.Clock = I / 2 + 1;
    E.TimeUs = 10 * I;
    E.Tid = static_cast<uint32_t>(I / 2 + 1);
    E.Attempt = 1;
    E.Aux = I % 2 ? 0 : RecAbortConflict;
    E.Kind = static_cast<uint8_t>(I % 2 ? RecKind::Commit : RecKind::Begin);
    E.Mode = 0;
    E.Lane = static_cast<uint16_t>(I % 3);
    Out.push_back(E);
  }
  return Out;
}

/// Conflicting counter tasks: every task adds to the same counter, so
/// write-set detection produces real conflict aborts to record.
std::vector<TaskFn> counterTasks(const Location &C, int N) {
  std::vector<TaskFn> Tasks;
  for (int I = 1; I <= N; ++I)
    Tasks.push_back([C, I](TxContext &Tx) {
      Tx.add(C, I);
      Tx.localWork(2.0);
    });
  return Tasks;
}

JanusConfig recordingConfig(EngineKind Engine, unsigned Shards = 1) {
  JanusConfig Cfg;
  Cfg.Engine = Engine;
  Cfg.Shards = Shards;
  Cfg.Detector = DetectorKind::WriteSet; // No training needed.
  Cfg.Threads = 4;
  Cfg.Record.Enabled = true;
  return Cfg;
}

/// Records a run of \p N conflicting tasks, replays the dump on the
/// simulated engine, and returns the divergence report (with any
/// execution problems merged in, like `janus replay` does).
analysis::DivergenceReport
recordAndReplay(EngineKind Engine, unsigned Shards, int N,
                int64_t *RecordedValue = nullptr,
                int64_t *ReplayedValue = nullptr) {
  Janus J(recordingConfig(Engine, Shards));
  Location C(J.registry().registerObject("counter"));
  J.runOutOfOrder(counterTasks(C, N));
  if (RecordedValue)
    *RecordedValue = J.valueAt(C).asInt();

  stm::ReplaySchedule Sched;
  std::string Err;
  EXPECT_TRUE(buildReplaySchedule(J.recorder()->snapshot(), Shards, Sched,
                                  &Err))
      << Err;
  EXPECT_EQ(Sched.MaxTid, static_cast<uint32_t>(N));

  std::vector<std::string> Problems;
  JanusConfig RCfg;
  RCfg.Engine = EngineKind::Simulated;
  RCfg.Detector = DetectorKind::WriteSet;
  RCfg.Threads = 4;
  RCfg.RecordTrace = true;
  RCfg.Replay = &Sched;
  RCfg.ReplayProblems = &Problems;
  Janus R(RCfg);
  Location RC(R.registry().registerObject("counter"));
  R.runOutOfOrder(counterTasks(RC, N));
  if (ReplayedValue)
    *ReplayedValue = R.valueAt(RC).asInt();

  analysis::DivergenceReport DR =
      analysis::checkDivergence(Sched, R.lastTrace());
  DR.Findings.insert(DR.Findings.begin(), Problems.begin(), Problems.end());
  return DR;
}

} // namespace

//===----------------------------------------------------------------------===//
// Ring buffer
//===----------------------------------------------------------------------===//

TEST(RecorderTest, RingWrapOverwritesOldestAndAccountsDrops) {
  RecorderConfig Cfg;
  Cfg.Enabled = true;
  Cfg.PerLaneCap = 16;
  Recorder R(Cfg, /*NumLanes=*/2);
  for (uint32_t I = 1; I <= 50; ++I)
    R.record(/*Lane=*/0, RecKind::Begin, I, 1, I);
  EXPECT_EQ(R.written(), 50u);
  EXPECT_EQ(R.overwritten(), 34u);

  std::vector<RecEvent> S = R.snapshot();
  ASSERT_EQ(S.size(), 16u);
  // The survivors are the most recent records, in global order.
  for (size_t I = 0; I != S.size(); ++I)
    EXPECT_EQ(S[I].Seq, 35 + I);
}

TEST(RecorderTest, LanesAreIndependentAndMergedBySeq) {
  RecorderConfig Cfg;
  Cfg.Enabled = true;
  Recorder R(Cfg, 3);
  R.record(0, RecKind::Begin, 1, 1, 0);
  R.record(2, RecKind::Begin, 2, 1, 0);
  R.record(1, RecKind::Commit, 1, 1, 1, 0, 1);
  std::vector<RecEvent> S = R.snapshot();
  ASSERT_EQ(S.size(), 3u);
  EXPECT_EQ(S[0].Lane, 0u);
  EXPECT_EQ(S[1].Lane, 2u);
  EXPECT_EQ(S[2].Lane, 1u);
  EXPECT_EQ(R.overwritten(), 0u);
}

TEST(RecorderTest, SamplingRuleMatchesObserver) {
  RecorderConfig Cfg;
  Cfg.Enabled = true;
  Cfg.SampleEvery = 4;
  Recorder R(Cfg, 1);
  EXPECT_TRUE(R.sampled(1));
  EXPECT_FALSE(R.sampled(2));
  EXPECT_TRUE(R.sampled(5));
  Cfg.SampleEvery = 1;
  Recorder All(Cfg, 1);
  for (uint32_t T = 1; T <= 8; ++T)
    EXPECT_TRUE(All.sampled(T));
}

//===----------------------------------------------------------------------===//
// .jrec codec
//===----------------------------------------------------------------------===//

TEST(JrecCodecTest, RoundTripPreservesMetaAndEvents) {
  const std::string Path = tempPath("roundtrip.jrec");
  RecMeta In = sampleMeta();
  std::vector<RecEvent> Events = sampleEvents(20);
  std::string Err;
  ASSERT_TRUE(writeJrec(Path, In, Events, &Err)) << Err;

  RecMeta Out;
  std::vector<RecEvent> Decoded;
  ASSERT_TRUE(readJrec(Path, Out, Decoded, &Err)) << Err;
  EXPECT_EQ(Out.Workload, In.Workload);
  EXPECT_EQ(Out.Engine, In.Engine);
  EXPECT_EQ(Out.Seed, In.Seed);
  EXPECT_EQ(Out.Threads, In.Threads);
  EXPECT_EQ(Out.Shards, In.Shards);
  EXPECT_EQ(Out.Production, In.Production);
  EXPECT_EQ(Out.Rounds, In.Rounds);
  EXPECT_EQ(Out.Detector, In.Detector);
  EXPECT_EQ(Out.Abstraction, In.Abstraction);
  EXPECT_EQ(Out.Fallback, In.Fallback);
  EXPECT_EQ(Out.Faults, In.Faults);
  EXPECT_EQ(Out.Reason, In.Reason);
  EXPECT_EQ(Out.Written, In.Written);
  EXPECT_EQ(Out.Overwritten, In.Overwritten);
  EXPECT_EQ(Out.NumLanes, In.NumLanes);
  EXPECT_EQ(Out.SampleEvery, In.SampleEvery);

  ASSERT_EQ(Decoded.size(), Events.size());
  for (size_t I = 0; I != Events.size(); ++I) {
    EXPECT_EQ(Decoded[I].Seq, Events[I].Seq);
    EXPECT_EQ(Decoded[I].Clock, Events[I].Clock);
    EXPECT_EQ(Decoded[I].TimeUs, Events[I].TimeUs);
    EXPECT_EQ(Decoded[I].Tid, Events[I].Tid);
    EXPECT_EQ(Decoded[I].Attempt, Events[I].Attempt);
    EXPECT_EQ(Decoded[I].Aux, Events[I].Aux);
    EXPECT_EQ(Decoded[I].Kind, Events[I].Kind);
    EXPECT_EQ(Decoded[I].Mode, Events[I].Mode);
    EXPECT_EQ(Decoded[I].Lane, Events[I].Lane);
  }
}

TEST(JrecCodecTest, EmptyDumpRoundTrips) {
  const std::string Path = tempPath("empty.jrec");
  std::string Err;
  ASSERT_TRUE(writeJrec(Path, sampleMeta(), {}, &Err)) << Err;
  RecMeta Out;
  std::vector<RecEvent> Decoded;
  ASSERT_TRUE(readJrec(Path, Out, Decoded, &Err)) << Err;
  EXPECT_TRUE(Decoded.empty());
}

TEST(JrecCodecTest, RejectsEveryTruncationAndByteFlip) {
  const std::string Path = tempPath("fuzz_src.jrec");
  std::string Err;
  ASSERT_TRUE(writeJrec(Path, sampleMeta(), sampleEvents(8), &Err)) << Err;
  std::ifstream In(Path, std::ios::binary);
  std::string Data((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  ASSERT_GT(Data.size(), 100u);

  const std::string Mutant = tempPath("fuzz_mut.jrec");
  auto Rejects = [&](const std::string &Bytes) {
    std::ofstream Out(Mutant, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    Out.close();
    RecMeta M;
    std::vector<RecEvent> E;
    std::string E2;
    return !readJrec(Mutant, M, E, &E2);
  };

  // Every truncation is caught (short prefix, sliced event, lost
  // trailer alike).
  for (size_t Len = 0; Len < Data.size(); Len += 7)
    EXPECT_TRUE(Rejects(Data.substr(0, Len))) << "truncated to " << Len;
  // Every single-byte corruption is caught by the checksum (or, for the
  // trailer bytes themselves, by the mismatch against the body).
  for (size_t Off = 0; Off < Data.size(); Off += 13) {
    std::string Flipped = Data;
    Flipped[Off] = static_cast<char>(Flipped[Off] ^ 0xff);
    EXPECT_TRUE(Rejects(Flipped)) << "byte flipped at " << Off;
  }
  std::remove(Mutant.c_str());
}

//===----------------------------------------------------------------------===//
// Schedule reconstruction
//===----------------------------------------------------------------------===//

TEST(ReplayScheduleTest, RejectsMissingBeginEvents) {
  // A speculative commit with no begin event: the stream is incomplete
  // (sampled or wrapped), so reconstruction must refuse.
  RecEvent E;
  E.Seq = 1;
  E.Clock = 2;
  E.Tid = 1;
  E.Attempt = 1;
  E.Kind = static_cast<uint8_t>(RecKind::Commit);
  E.Mode = 0; // Speculative.
  stm::ReplaySchedule Sched;
  std::string Err;
  EXPECT_FALSE(stm::buildReplaySchedule({E}, 1, Sched, &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(ReplayScheduleTest, RejectsNonDenseCommitClocks) {
  std::vector<RecEvent> Events;
  for (uint32_t T = 1; T <= 2; ++T) {
    RecEvent B;
    B.Seq = Events.size() + 1;
    B.Clock = 1;
    B.Tid = T;
    B.Attempt = 1;
    B.Kind = static_cast<uint8_t>(RecKind::Begin);
    Events.push_back(B);
    RecEvent C = B;
    C.Seq = Events.size() + 1;
    C.Clock = T == 1 ? 2 : 5; // Hole: clocks 3 and 4 are missing.
    C.Kind = static_cast<uint8_t>(RecKind::Commit);
    Events.push_back(C);
  }
  stm::ReplaySchedule Sched;
  std::string Err;
  EXPECT_FALSE(stm::buildReplaySchedule(Events, 1, Sched, &Err));
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// Record → replay round trips
//===----------------------------------------------------------------------===//

TEST(ReplayRoundTripTest, SimRecordingReplaysBitIdentically) {
  int64_t Recorded = 0, Replayed = 0;
  analysis::DivergenceReport DR = recordAndReplay(
      EngineKind::Simulated, 1, 24, &Recorded, &Replayed);
  EXPECT_TRUE(DR.clean()) << DR.summary();
  EXPECT_EQ(Recorded, Replayed);
}

TEST(ReplayRoundTripTest, ThreadedRecordingReplaysBitIdentically) {
  int64_t Recorded = 0, Replayed = 0;
  analysis::DivergenceReport DR = recordAndReplay(
      EngineKind::Threaded, 1, 32, &Recorded, &Replayed);
  EXPECT_TRUE(DR.clean()) << DR.summary();
  EXPECT_EQ(Recorded, Replayed);
}

TEST(ReplayRoundTripTest, ShardedRecordingReplaysBitIdentically) {
  int64_t Recorded = 0, Replayed = 0;
  analysis::DivergenceReport DR = recordAndReplay(
      EngineKind::Threaded, 8, 32, &Recorded, &Replayed);
  EXPECT_TRUE(DR.clean()) << DR.summary();
  EXPECT_EQ(Recorded, Replayed);
}

TEST(ReplayRoundTripTest, TamperedScheduleDiverges) {
  Janus J(recordingConfig(EngineKind::Threaded));
  Location C(J.registry().registerObject("counter"));
  const int N = 16;
  J.runOutOfOrder(counterTasks(C, N));

  stm::ReplaySchedule Sched;
  std::string Err;
  ASSERT_TRUE(buildReplaySchedule(J.recorder()->snapshot(), 1, Sched, &Err))
      << Err;
  // The `janus replay --probe-divergence` tamper: the final commit
  // becomes a conflict abort while the commit reference stays intact.
  for (size_t I = Sched.Steps.size(); I-- > 0;) {
    stm::ReplayStep &St = Sched.Steps[I];
    if (!St.Committed)
      continue;
    St.Committed = false;
    St.AbortReason = RecAbortConflict;
    St.End = St.CommitTime - 1;
    St.CommitTime = 0;
    St.Mode = 0;
    break;
  }

  std::vector<std::string> Problems;
  JanusConfig RCfg;
  RCfg.Engine = EngineKind::Simulated;
  RCfg.Detector = DetectorKind::WriteSet;
  RCfg.Threads = 4;
  RCfg.RecordTrace = true;
  RCfg.Replay = &Sched;
  RCfg.ReplayProblems = &Problems;
  Janus R(RCfg);
  Location RC(R.registry().registerObject("counter"));
  R.runOutOfOrder(counterTasks(RC, N));

  analysis::DivergenceReport DR =
      analysis::checkDivergence(Sched, R.lastTrace());
  EXPECT_FALSE(DR.clean());
}

TEST(ReplayDivergenceTest, ConflictWindowOpensAtShardAcquisitionStamp) {
  // A committer bumps the global clock before it publishes its shard
  // state, so an attempt can begin at clock k, acquire the shard state
  // from before commit k (stamp k-1), and conflict with commit k. The
  // recorded conflict is real; the divergence check must find it in
  // the window (k-1, k], not in the empty (k, k].
  std::vector<RecEvent> Events;
  auto Push = [&Events](RecKind Kind, uint32_t Tid, uint32_t Attempt,
                        uint64_t Clock, uint32_t Aux = 0) {
    RecEvent E;
    E.Seq = Events.size() + 1;
    E.Kind = static_cast<uint8_t>(Kind);
    E.Tid = Tid;
    E.Attempt = Attempt;
    E.Clock = Clock;
    E.Aux = Aux;
    Events.push_back(E);
  };
  Push(RecKind::Begin, 1, 1, 1);
  Push(RecKind::ShardAcquire, 1, 1, 1, /*Shard=*/0);
  Push(RecKind::Commit, 1, 1, 2);
  Push(RecKind::Begin, 2, 1, 2);                     // Begin clock k.
  Push(RecKind::ShardAcquire, 2, 1, 1, /*Shard=*/0); // Stamp k-1.
  Push(RecKind::Abort, 2, 1, 2, RecAbortConflict);   // Detect-end k.
  Push(RecKind::Begin, 2, 2, 2);
  Push(RecKind::ShardAcquire, 2, 2, 2, /*Shard=*/0);
  Push(RecKind::Commit, 2, 2, 3);

  stm::ReplaySchedule Sched;
  std::string Err;
  ASSERT_TRUE(stm::buildReplaySchedule(Events, 1, Sched, &Err)) << Err;

  std::vector<std::string> Problems;
  JanusConfig RCfg;
  RCfg.Engine = EngineKind::Simulated;
  RCfg.Detector = DetectorKind::WriteSet;
  RCfg.RecordTrace = true;
  RCfg.Replay = &Sched;
  RCfg.ReplayProblems = &Problems;
  Janus R(RCfg);
  Location RC(R.registry().registerObject("counter"));
  R.runOutOfOrder(counterTasks(RC, 2));

  EXPECT_TRUE(Problems.empty());
  analysis::DivergenceReport DR =
      analysis::checkDivergence(Sched, R.lastTrace());
  EXPECT_TRUE(DR.clean()) << DR.summary();
}

TEST(ReplayRoundTripTest, EndToEndThroughJrecFile) {
  // The full pipeline the CLI runs: record, encode, decode, rebuild,
  // replay.
  Janus J(recordingConfig(EngineKind::Threaded));
  Location C(J.registry().registerObject("counter"));
  const int N = 20;
  J.runOutOfOrder(counterTasks(C, N));

  const std::string Path = tempPath("end_to_end.jrec");
  RecMeta Meta;
  Meta.Workload = "unit";
  Meta.Engine = "threads";
  Meta.Shards = 1;
  Meta.Written = J.recorder()->written();
  Meta.Overwritten = J.recorder()->overwritten();
  std::string Err;
  ASSERT_TRUE(writeJrec(Path, Meta, J.recorder()->snapshot(), &Err)) << Err;

  RecMeta MetaIn;
  std::vector<RecEvent> Events;
  ASSERT_TRUE(readJrec(Path, MetaIn, Events, &Err)) << Err;
  EXPECT_EQ(MetaIn.Overwritten, 0u);

  stm::ReplaySchedule Sched;
  ASSERT_TRUE(buildReplaySchedule(Events, MetaIn.Shards, Sched, &Err))
      << Err;

  std::vector<std::string> Problems;
  JanusConfig RCfg;
  RCfg.Engine = EngineKind::Simulated;
  RCfg.Detector = DetectorKind::WriteSet;
  RCfg.Threads = 4;
  RCfg.RecordTrace = true;
  RCfg.Replay = &Sched;
  RCfg.ReplayProblems = &Problems;
  Janus R(RCfg);
  Location RC(R.registry().registerObject("counter"));
  R.runOutOfOrder(counterTasks(RC, N));

  analysis::DivergenceReport DR =
      analysis::checkDivergence(Sched, R.lastTrace());
  DR.Findings.insert(DR.Findings.begin(), Problems.begin(), Problems.end());
  EXPECT_TRUE(DR.clean()) << DR.summary();
  EXPECT_EQ(J.valueAt(C), R.valueAt(RC));
}

//===----------------------------------------------------------------------===//
// Serve anomaly dumps
//===----------------------------------------------------------------------===//

TEST(ServeDumpTest, DumpFlagTriggersQuiescedDump) {
  using namespace janus::serve;
  JanusConfig Cfg;
  Cfg.Engine = EngineKind::Threaded;
  Cfg.Detector = DetectorKind::WriteSet;
  Cfg.Threads = 2;
  Cfg.Record.Enabled = true;
  Janus J(Cfg);
  Location C(J.registry().registerObject("counter"));
  std::vector<TaskFn> Pool{[C](TxContext &Tx) { Tx.add(C, 1); }};

  std::atomic<bool> DumpFlag{true}; // Pre-armed, as if SIGUSR2 arrived.
  std::vector<std::string> Reasons;
  ServeConfig SC;
  SC.BatchMax = 8;
  SC.DumpFlag = &DumpFlag;
  SC.DumpFn = [&](const char *Reason) {
    Reasons.push_back(Reason);
    // Quiesced: the snapshot races with no writer here. (It may be
    // empty — the poll can fire before the first batch runs.)
    (void)J.recorder()->snapshot();
  };
  Service S(J, Pool, SC);
  S.setReplySink([](const Reply &) {});
  for (int I = 0; I != 12; ++I)
    ASSERT_TRUE(S.submit(1, I, 0));
  S.requestStop();
  S.serve();

  ASSERT_FALSE(Reasons.empty());
  EXPECT_EQ(Reasons.front(), "sigusr2");
  EXPECT_FALSE(DumpFlag.load()); // Consumed, not re-fired.
  // The batches themselves were recorded (dumpable after the fact).
  EXPECT_GT(J.recorder()->snapshot().size(), 0u);
  EXPECT_TRUE(S.report().clean());
}

TEST(ServeDumpTest, ServeTagEventsCarryClientAndSubmission) {
  using namespace janus::serve;
  JanusConfig Cfg;
  Cfg.Engine = EngineKind::Threaded;
  Cfg.Detector = DetectorKind::WriteSet;
  Cfg.Threads = 2;
  Cfg.Record.Enabled = true;
  Janus J(Cfg);
  Location C(J.registry().registerObject("counter"));
  std::vector<TaskFn> Pool{[C](TxContext &Tx) { Tx.add(C, 1); }};

  Service S(J, Pool, ServeConfig{});
  S.setReplySink([](const Reply &) {});
  for (int I = 1; I <= 6; ++I)
    ASSERT_TRUE(S.submit(/*Client=*/7, /*SubId=*/100 + I, 0));
  S.requestStop();
  S.serve();

  size_t Tags = 0;
  for (const RecEvent &E : J.recorder()->snapshot())
    if (E.Kind == static_cast<uint8_t>(RecKind::ServeTag)) {
      ++Tags;
      EXPECT_EQ(E.Aux, 7u);       // Client id.
      EXPECT_GE(E.Clock, 101u);   // Submission id.
      EXPECT_LE(E.Clock, 106u);
    }
  EXPECT_EQ(Tags, 6u);
}
