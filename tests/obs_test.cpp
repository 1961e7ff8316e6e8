//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for janus::obs: counters, latency histograms, the trace
/// buffer and its Chrome trace-event export, the sampling decision, and
/// the abort-attribution report (including its determinism guarantee
/// over the simulator).
///
//===----------------------------------------------------------------------===//

#include "janus/adt/TxMap.h"
#include "janus/core/Janus.h"
#include "janus/obs/Attribution.h"
#include "janus/obs/Obs.h"

#include <gtest/gtest.h>

using namespace janus;
using namespace janus::obs;

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAccumulatesAndResets) {
  Counter C;
  EXPECT_EQ(C.load(), 0u);
  ++C;
  C.add(41);
  EXPECT_EQ(C.load(), 42u);
  C.reset();
  EXPECT_EQ(C.load(), 0u);
}

TEST(MetricsTest, HistogramBucketsByPowerOfTwoMicros) {
  LatencyHistogram H;
  H.record(0.5);    // [0, 1us) -> bucket 0.
  H.record(1.0);    // [1, 2us) -> bucket 1.
  H.record(3.0);    // [2, 4us) -> bucket 2.
  H.record(1000.0); // [512, 1024us) -> bucket 10.
  LatencyHistogram::Snapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 4u);
  EXPECT_EQ(S.Counts[0], 1u);
  EXPECT_EQ(S.Counts[1], 1u);
  EXPECT_EQ(S.Counts[2], 1u);
  EXPECT_EQ(S.Counts[10], 1u);
  EXPECT_NEAR(S.SumMicros, 1004.5, 0.01);
  EXPECT_NEAR(S.meanMicros(), 1004.5 / 4.0, 0.01);
}

TEST(MetricsTest, HistogramQuantileIsConservativeBucketBound) {
  LatencyHistogram H;
  for (int I = 0; I != 99; ++I)
    H.record(1.5); // Bucket 1: [1, 2us).
  H.record(700.0); // Bucket 10: [512, 1024us).
  LatencyHistogram::Snapshot S = H.snapshot();
  // The estimate is the inclusive upper bucket bound.
  EXPECT_EQ(S.quantileUs(0.5), 2.0);
  EXPECT_EQ(S.quantileUs(0.99), 2.0);
  EXPECT_EQ(S.quantileUs(1.0), 1024.0);
  // Out-of-range and degenerate inputs stay finite.
  EXPECT_EQ(LatencyHistogram::bucketBoundUs(LatencyHistogram::NumBuckets + 5),
            LatencyHistogram::bucketBoundUs(LatencyHistogram::NumBuckets - 1));
  EXPECT_EQ(LatencyHistogram::Snapshot().quantileUs(0.5), 0.0);
}

TEST(MetricsTest, HistogramHugeAndNegativeSamplesStayBounded) {
  LatencyHistogram H;
  H.record(1e12); // Way past the last bound: lands in the last bucket.
  H.record(-5.0); // Clock skew: clamps to bucket 0, contributes 0 sum.
  LatencyHistogram::Snapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 2u);
  EXPECT_EQ(S.Counts[LatencyHistogram::NumBuckets - 1], 1u);
  EXPECT_EQ(S.Counts[0], 1u);
}

TEST(MetricsTest, RegistryReturnsStableRefsAndSortedValues) {
  MetricsRegistry R;
  Counter &A = R.counter("b.second");
  Counter &B = R.counter("a.first");
  EXPECT_EQ(&R.counter("b.second"), &A); // Same name, same instrument.
  ++A;
  ++A;
  ++B;
  R.histogram("lat").record(4.0);
  auto Counters = R.counterValues();
  ASSERT_EQ(Counters.size(), 2u);
  EXPECT_EQ(Counters[0].first, "a.first"); // Sorted by name.
  EXPECT_EQ(Counters[0].second, 1u);
  EXPECT_EQ(Counters[1].second, 2u);
  auto Hists = R.histogramValues();
  ASSERT_EQ(Hists.size(), 1u);
  EXPECT_EQ(Hists[0].second.Count, 1u);
  R.reset();
  EXPECT_EQ(R.counterValues()[0].second, 0u);
  EXPECT_EQ(R.histogramValues()[0].second.Count, 0u);
}

// ---------------------------------------------------------------------------
// Trace buffer and Observer.
// ---------------------------------------------------------------------------

TEST(TraceBufferTest, LaneCapDropsAndCounts) {
  TraceBuffer B(/*NumLanes=*/2, /*MaxEventsPerLane=*/3);
  SpanRecord R;
  R.Name = "body";
  for (int I = 0; I != 5; ++I)
    B.append(0, R);
  B.append(1, R);
  B.append(99, R); // Out-of-range lane clamps to the last lane.
  EXPECT_EQ(B.size(), 5u);
  EXPECT_EQ(B.dropped(), 2u);
  EXPECT_EQ(B.merged().size(), 5u);
  B.clear();
  EXPECT_EQ(B.size(), 0u);
  EXPECT_EQ(B.dropped(), 0u);
}

TEST(ObserverTest, SamplingKeepsTaskOnesCongruenceClass) {
  ObsConfig Off;
  EXPECT_FALSE(Observer(Off, 2).sampled(1)); // Disabled: nothing sampled.

  ObsConfig Every;
  Every.Enabled = true;
  Observer OEvery(Every, 2);
  for (uint32_t Tid = 1; Tid != 8; ++Tid)
    EXPECT_TRUE(OEvery.sampled(Tid));

  ObsConfig Quarter;
  Quarter.Enabled = true;
  Quarter.SampleEvery = 4;
  Observer OQuarter(Quarter, 2);
  // Task 1's class: 1, 5, 9, ... — deterministic across runs.
  EXPECT_TRUE(OQuarter.sampled(1));
  EXPECT_TRUE(OQuarter.sampled(5));
  EXPECT_TRUE(OQuarter.sampled(9));
  EXPECT_FALSE(OQuarter.sampled(2));
  EXPECT_FALSE(OQuarter.sampled(3));
  EXPECT_FALSE(OQuarter.sampled(4));
}

TEST(ObserverTest, SpansFeedCounterTraceAndExport) {
  ObsConfig Cfg;
  Cfg.Enabled = true;
  Observer O(Cfg, /*NumLanes=*/3);
  EXPECT_EQ(O.auxLane(), 2u);
  O.span(0, "commit", /*Tid=*/7, /*Attempt=*/2, 10.0, 5.0, "clock", 3.0);
  O.instant(1, "abort", 8, 1, 12.0, "conflict");
  O.span(O.auxLane(), "sat", 0, 0, 20.0, 2.5, "conflicts", 4.0);
  EXPECT_EQ(O.trace().size(), 3u);

  std::string Json = O.chromeTraceJson();
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(Json.find("\"commit\""), std::string::npos);
  EXPECT_NE(Json.find("\"abort\""), std::string::npos);
  EXPECT_NE(Json.find("\"conflict\""), std::string::npos);
  // Lanes are named via metadata events.
  EXPECT_NE(Json.find("\"thread_name\""), std::string::npos);

  std::string Metrics = O.metricsJson();
  EXPECT_NE(Metrics.find("\"obs.spans_recorded\":3"), std::string::npos)
      << Metrics;

  O.commitLatency().record(5.0);
  EXPECT_NE(O.metricsTable().find("commit_latency_us"), std::string::npos);

  O.clear();
  EXPECT_EQ(O.trace().size(), 0u);
  EXPECT_NE(O.metricsJson().find("\"obs.spans_recorded\":0"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine integration: spans recorded by a real (simulated) run.
// ---------------------------------------------------------------------------

namespace {

core::JanusConfig contendedConfig() {
  core::JanusConfig Cfg;
  Cfg.Engine = core::EngineKind::Simulated;
  Cfg.Threads = 4;
  // The write-set detector flags every overlapping same-key access, so
  // the read-modify-write tasks below are guaranteed to abort and give
  // the attribution report something to rank.
  Cfg.Detector = core::DetectorKind::WriteSet;
  Cfg.RecordTrace = true;
  return Cfg;
}

/// Eight tasks doing a read-modify-write of the same map key (plus one
/// private key each): a deterministic contention hotspot.
std::vector<stm::TaskFn> contendedTasks(const adt::TxMap &M) {
  std::vector<stm::TaskFn> Tasks;
  for (int I = 0; I != 8; ++I)
    Tasks.push_back([&M, I](stm::TxContext &Tx) {
      std::optional<Value> Cur = M.get(Tx, "hot");
      int64_t Base = Cur ? Cur->asInt() : 0;
      M.put(Tx, "hot", Value::of(Base + 1));
      M.put(Tx, "private" + std::to_string(I), Value::of(int64_t(I)));
    });
  return Tasks;
}

/// One full contended run; \returns the rendered attribution table and
/// JSON through the out-params.
void runContended(bool EnableObs, std::string &Table, std::string &Json,
                  uint64_t &TotalAborts, size_t &Spans) {
  core::JanusConfig Cfg = contendedConfig();
  Cfg.Obs.Enabled = EnableObs;
  core::Janus J(Cfg);
  adt::TxMap M = adt::TxMap::create(J.registry(), "m");
  J.setInitial(M.locationAt("hot"), Value::of(int64_t(0)));
  J.runInOrder(contendedTasks(M));
  AbortAttribution A = attributeAborts(J.lastTrace(), J.registry());
  Table = A.toTable();
  Json = A.toJson();
  TotalAborts = A.TotalAborts;
  Spans = J.observer() ? J.observer()->trace().size() : 0;
}

} // namespace

TEST(AttributionTest, RanksTheContendedKeyFirst) {
  std::string Table, Json;
  uint64_t Aborts = 0;
  size_t Spans = 0;
  runContended(/*EnableObs=*/true, Table, Json, Aborts, Spans);
  ASSERT_GT(Aborts, 0u);
  // The hot key is the top-ranked conflict source, ahead of the
  // uncontended private keys (which never abort anything).
  size_t HotPos = Table.find("m[\"hot\"]");
  ASSERT_NE(HotPos, std::string::npos) << Table;
  EXPECT_EQ(Table.find("m[\"private"), std::string::npos) << Table;
  EXPECT_NE(Json.find("\"total_aborts\""), std::string::npos);
  EXPECT_NE(Json.find("m[\\\"hot\\\"]"), std::string::npos) << Json;
  // The observed run also produced spans (virtual-time tracing) —
  // unless the build compiles spans out (-DJANUS_OBS=OFF), in which
  // case it must produce none.
#if JANUS_OBS_ENABLED
  EXPECT_GT(Spans, 0u);
#else
  EXPECT_EQ(Spans, 0u);
#endif
}

TEST(AttributionTest, IdenticalRunsYieldIdenticalReports) {
  // The simulator is deterministic and attribution ranks by
  // (count desc, key asc): two identical runs must render the exact
  // same table and JSON, byte for byte — with and without the observer
  // attached (observation must not perturb the schedule).
  std::string T1, J1, T2, J2, T3, J3;
  uint64_t A1 = 0, A2 = 0, A3 = 0;
  size_t S = 0;
  runContended(true, T1, J1, A1, S);
  runContended(true, T2, J2, A2, S);
  runContended(false, T3, J3, A3, S);
  EXPECT_EQ(T1, T2);
  EXPECT_EQ(J1, J2);
  EXPECT_EQ(A1, A2);
  EXPECT_EQ(T1, T3);
  EXPECT_EQ(J1, J3);
}

TEST(AttributionTest, EmptyTraceAttributesNothing) {
  stm::AuditTrace Empty;
  ObjectRegistry Reg;
  AbortAttribution A = attributeAborts(Empty, Reg);
  EXPECT_EQ(A.TotalAborts, 0u);
  EXPECT_TRUE(A.Rows.empty());
  EXPECT_NE(A.toTable().find("0 aborted attempts"), std::string::npos);
}
