//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests for the conflict module: DECOMPOSE, the
/// online CONFLICT test of Figure 8, the commutativity cache (incl.
/// serialization round-trips) and the sequence-based detector's
/// fallback chain.
///
//===----------------------------------------------------------------------===//

#include "janus/adt/TxMap.h"
#include "janus/conflict/CommutativityCache.h"
#include "janus/conflict/Decompose.h"
#include "janus/conflict/Explain.h"
#include "janus/conflict/OnlineConflict.h"
#include "janus/conflict/SequenceDetector.h"
#include "janus/conflict/SpecTable.h"
#include "janus/support/Rng.h"

#include <gtest/gtest.h>

#include <map>
#include <unordered_set>

using namespace janus;
using namespace janus::conflict;
using namespace janus::symbolic;
using stm::LogEntry;
using stm::TxLog;
using stm::TxLogRef;

namespace {

TxLogRef logOf(std::initializer_list<LogEntry> Entries) {
  return std::make_shared<const TxLog>(Entries);
}

} // namespace

// ---------------------------------------------------------------------------
// DECOMPOSE.
// ---------------------------------------------------------------------------

TEST(DecomposeTest, SplitsByLocationPreservingOrder) {
  ObjectId A{1}, B{2}, C{3};
  TxLog Log{{Location(A), LocOp::add(1)},
            {Location(B), LocOp::write(Value::of(5))},
            {Location(A), LocOp::add(-1)},
            {Location(A, 3), LocOp::read()},
            {Location(C), LocOp::read()}};
  // The history touches every location but C.
  auto Theirs = logOf({{Location(B), LocOp::read()},
                       {Location(A, 3), LocOp::add(2)},
                       {Location(A), LocOp::read()}});
  WindowJoin J;
  J.join(Log, {Theirs});
  ASSERT_EQ(J.shared().size(), 3u);
  // Ascending Location order: A, A[3], B.
  const stm::TxLog::Run &RA = *J.shared()[0];
  EXPECT_EQ(J.loc(RA), Location(A));
  EXPECT_EQ(J.mine(RA), (LocOpSeq{LocOp::add(1), LocOp::add(-1)}));
  EXPECT_EQ(J.theirs(RA), (LocOpSeq{LocOp::read()}));
  EXPECT_EQ(J.loc(*J.shared()[1]), Location(A, 3));
  EXPECT_EQ(J.mine(*J.shared()[1]), (LocOpSeq{LocOp::read()}));
  EXPECT_EQ(J.loc(*J.shared()[2]), Location(B));
  EXPECT_EQ(J.theirs(*J.shared()[2]), (LocOpSeq{LocOp::read()}));
}

TEST(DecomposeTest, ConcatenatesCommittedLogsInOrder) {
  ObjectId A{1};
  TxLog Mine{{Location(A), LocOp::read()}};
  auto L1 = logOf({{Location(A), LocOp::write(Value::of(1))}});
  auto L2 = logOf({{Location(A, 1), LocOp::write(Value::of(9))}});
  auto L3 = logOf({{Location(A), LocOp::write(Value::of(2))}});
  WindowJoin J;
  J.join(Mine, {L1, L2, L3});
  ASSERT_EQ(J.shared().size(), 1u);
  const LocOpSeq &Theirs = J.theirs(*J.shared()[0]);
  ASSERT_EQ(Theirs.size(), 2u);
  EXPECT_EQ(Theirs[0].Operand, Value::of(1));
  EXPECT_EQ(Theirs[1].Operand, Value::of(2));
  // The buffers are reused: a disjoint window leaves nothing behind.
  J.join(Mine, {L2});
  EXPECT_TRUE(J.shared().empty());
}

// ---------------------------------------------------------------------------
// Online CONFLICT (Figure 8).
// ---------------------------------------------------------------------------

TEST(OnlineConflictTest, AddsNeverConflict) {
  LocOpSeq Mine{LocOp::add(3)};
  LocOpSeq Theirs{LocOp::add(-7)};
  EXPECT_FALSE(conflictOnline(Value::of(0), Mine, Theirs));
}

TEST(OnlineConflictTest, IdentityVsIdentityNoConflict) {
  LocOpSeq Mine{LocOp::add(4), LocOp::add(-4)};
  LocOpSeq Theirs{LocOp::add(9), LocOp::add(-9)};
  EXPECT_FALSE(conflictOnline(Value::of(10), Mine, Theirs));
}

TEST(OnlineConflictTest, ReadVsWriteConflictsUnlessValueRestored) {
  LocOpSeq Mine{LocOp::read()};
  LocOpSeq SameWrite{LocOp::write(Value::of(5))};
  LocOpSeq OtherWrite{LocOp::write(Value::of(6))};
  EXPECT_FALSE(conflictOnline(Value::of(5), Mine, SameWrite));
  EXPECT_TRUE(conflictOnline(Value::of(5), Mine, OtherWrite));
}

TEST(OnlineConflictTest, EqualWritesDoNotConflict) {
  LocOpSeq Mine{LocOp::write(Value::of("black"))};
  LocOpSeq Theirs{LocOp::write(Value::of("black"))};
  EXPECT_FALSE(conflictOnline(Value::absent(), Mine, Theirs));
  LocOpSeq Other{LocOp::write(Value::of("white"))};
  EXPECT_TRUE(conflictOnline(Value::absent(), Mine, Other));
}

TEST(OnlineConflictTest, SameReadCatchesControlFlowDependence) {
  // The paper's §5.3 counterexample: COMMUTE alone is insufficient —
  // a read whose value differs between orders must conflict even if the
  // final value agrees.
  LocOpSeq Mine{LocOp::read(), LocOp::write(Value::of(1))};
  LocOpSeq Theirs{LocOp::write(Value::of(1))};
  // Final value is 1 in both orders (COMMUTE holds), but Mine's read
  // sees 0 vs 1.
  EXPECT_TRUE(conflictOnline(Value::of(0), Mine, Theirs));
}

TEST(OnlineConflictTest, RelaxationsDropChecks) {
  LocOpSeq Mine{LocOp::read()};
  LocOpSeq Theirs{LocOp::write(Value::of(6))};
  ChecksSpec RelaxRAW;
  RelaxRAW.SameReadA = RelaxRAW.SameReadB = false;
  EXPECT_FALSE(conflictOnline(Value::of(5), Mine, Theirs, RelaxRAW));

  LocOpSeq W1{LocOp::write(Value::of(1))};
  LocOpSeq W2{LocOp::write(Value::of(2))};
  ChecksSpec RelaxWAW;
  RelaxWAW.Commute = false;
  EXPECT_FALSE(conflictOnline(Value::of(0), W1, W2, RelaxWAW));
  EXPECT_TRUE(conflictOnline(Value::of(0), W1, W2));
}

// ---------------------------------------------------------------------------
// Cache.
// ---------------------------------------------------------------------------

TEST(CommutativityCacheTest, InsertLookup) {
  CommutativityCache C;
  CacheKey K{"work", "[A(p1), A(-p1)]+", "[A(p1), A(-p1)]+"};
  EXPECT_EQ(C.lookup(K), std::nullopt);
  C.insert(K, Condition::valid());
  ASSERT_TRUE(C.lookup(K).has_value());
  EXPECT_TRUE(C.lookup(K)->isValid());
  EXPECT_EQ(C.size(), 1u);
  // Distinct keys are distinct entries.
  CacheKey K2 = K;
  K2.TheirsSig = "W(p1)";
  EXPECT_EQ(C.lookup(K2), std::nullopt);
}

TEST(CommutativityCacheTest, SerializationRoundTrip) {
  CommutativityCache C;
  C.insert(CacheKey{"work", "A(p1)", "A(p1)"}, Condition::valid());
  C.insert(CacheKey{"flag", "W(q1)", "W(q1)"}, Condition::never());
  Condition Conditional = Condition::valid();
  Conditional.requireEqual(Term::opaqueSym(1),
                           Term::opaqueSym(1 + TheirParamOffset));
  Conditional.requireEqual(Term::intSym(EntrySym),
                           Term::constant(Value::of(7)));
  C.insert(CacheKey{"pixel", "W(q1)", "W(q2)"}, Conditional);

  std::string Text = C.serialize();
  CommutativityCache D;
  ASSERT_TRUE(D.deserializeInto(Text));
  EXPECT_EQ(D.size(), 3u);
  EXPECT_TRUE(D.lookup(CacheKey{"work", "A(p1)", "A(p1)"})->isValid());
  EXPECT_TRUE(D.lookup(CacheKey{"flag", "W(q1)", "W(q1)"})->isNever());
  auto Cond = D.lookup(CacheKey{"pixel", "W(q1)", "W(q2)"});
  ASSERT_TRUE(Cond.has_value());
  EXPECT_TRUE(Cond->isConditional());
  EXPECT_EQ(Cond->atoms().size(), 2u);
  // Re-serialization is stable.
  EXPECT_EQ(D.serialize(), Text);
}

TEST(CommutativityCacheTest, DeserializeRejectsGarbage) {
  CommutativityCache C;
  EXPECT_FALSE(C.deserializeInto("not a cache"));
  EXPECT_FALSE(C.deserializeInto("janus-commutativity-cache v1\nbogus"));
  EXPECT_TRUE(C.deserializeInto("janus-commutativity-cache v1\n"));
  EXPECT_EQ(C.size(), 0u);
}

// ---------------------------------------------------------------------------
// Sequence detector fallback chain.
// ---------------------------------------------------------------------------

namespace {

struct DetectorWorld {
  ObjectRegistry Reg;
  ObjectId Work;
  std::shared_ptr<CommutativityCache> Cache;
  DetectorWorld() : Cache(std::make_shared<CommutativityCache>()) {
    Work = Reg.registerObject("work");
  }
};

} // namespace

TEST(SequenceDetectorTest, EmptyHistoryNeverConflicts) {
  DetectorWorld W;
  SequenceDetector D(W.Cache);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {}, W.Reg));
}

TEST(SequenceDetectorTest, MissWithWriteSetFallbackIsConservative) {
  DetectorWorld W;
  SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = false;
  SequenceDetector D(W.Cache, Cfg);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});
  // Empty cache: write-set fallback flags the add/add pair.
  EXPECT_TRUE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
  EXPECT_EQ(D.stats().CacheMisses.load(), 1u);
  EXPECT_EQ(D.stats().WriteSetChecks.load(), 1u);
}

TEST(SequenceDetectorTest, MissWithOnlineFallbackIsPrecise) {
  DetectorWorld W;
  SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
  EXPECT_EQ(D.stats().OnlineChecks.load(), 1u);
}

TEST(SequenceDetectorTest, CacheHitAnswersQuery) {
  DetectorWorld W;
  SequenceDetector D(W.Cache);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});

  // Populate the cache the way the trainer would.
  PairQuery Q = buildPairQuery("work", {LocOp::add(1)}, {LocOp::add(2)},
                               /*UseAbstraction=*/true);
  W.Cache->insert(Q.Key, Condition::valid());

  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
  EXPECT_EQ(D.stats().CacheHits.load(), 1u);
  EXPECT_EQ(D.stats().CacheMisses.load(), 0u);
}

TEST(SequenceDetectorTest, CachedNeverConditionConflicts) {
  DetectorWorld W;
  SequenceDetector D(W.Cache);
  TxLog Mine{{Location(W.Work), LocOp::write(Value::of(1))}};
  auto Theirs = logOf({{Location(W.Work), LocOp::write(Value::of(2))}});
  PairQuery Q = buildPairQuery("work", {LocOp::write(Value::of(1))},
                               {LocOp::write(Value::of(2))}, true);
  W.Cache->insert(Q.Key, Condition::never());
  EXPECT_TRUE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
}

TEST(SequenceDetectorTest, ConditionalEntryEvaluatesBindings) {
  // Equal-writes: cache "W(q1) vs W(q2) commute iff q1 == q2".
  DetectorWorld W;
  SequenceDetector D(W.Cache);
  PairQuery Q = buildPairQuery("work", {LocOp::write(Value::of("a"))},
                               {LocOp::write(Value::of("b"))}, true);
  Condition Cond = Condition::valid();
  Cond.requireEqual(Term::opaqueSym(1),
                    Term::opaqueSym(1 + TheirParamOffset));
  W.Cache->insert(Q.Key, Cond);

  auto Check = [&](const char *MineVal, const char *TheirVal) {
    TxLog Mine{{Location(W.Work), LocOp::write(Value::of(MineVal))}};
    auto Theirs = logOf({{Location(W.Work), LocOp::write(Value::of(TheirVal))}});
    return D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg);
  };
  EXPECT_FALSE(Check("black", "black")); // Equal writes commute.
  EXPECT_TRUE(Check("black", "white"));  // Different values conflict.
}

TEST(SequenceDetectorTest, UniqueQueryTracking) {
  DetectorWorld W;
  SequenceDetector D(W.Cache);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});
  // The same query repeated counts once (Figure 11 methodology).
  for (int I = 0; I != 5; ++I)
    D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg);
  EXPECT_EQ(D.uniqueQueries(), 1u);
  EXPECT_EQ(D.uniqueMisses(), 1u);
  EXPECT_EQ(D.stats().CacheMisses.load(), 5u);
  D.resetUniqueQueryTracking();
  EXPECT_EQ(D.uniqueQueries(), 0u);
}

TEST(SequenceDetectorTest, RelaxedObjectsUseRelaxedChecks) {
  // maxColor-style spurious reads: with tolerate-RAW, a pure read never
  // conflicts with a write (online fallback path).
  DetectorWorld W;
  ObjectId MaxColor = W.Reg.registerObject(
      "maxColor", "", RelaxationSpec{/*TolerateRAW=*/true,
                                     /*TolerateWAW=*/false});
  SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  TxLog Mine{{Location(MaxColor), LocOp::read()}};
  auto Theirs = logOf({{Location(MaxColor), LocOp::write(Value::of(7))}});
  stm::Snapshot S;
  S = S.set(Location(MaxColor), Value::of(3));
  EXPECT_FALSE(D.detectConflicts(S, Mine, {Theirs}, W.Reg));
}

// ---------------------------------------------------------------------------
// Property: the online CONFLICT answer matches brute-force two-order
// evaluation across random sequences, and sequence detection is never
// *less* precise than write-set when falling back online.
// ---------------------------------------------------------------------------

namespace {

LocOpSeq randomSeq(Rng &R) {
  LocOpSeq Seq;
  for (int I = 0, E = 1 + static_cast<int>(R.below(4)); I != E; ++I) {
    switch (R.below(3)) {
    case 0:
      Seq.push_back(LocOp::read());
      break;
    case 1:
      Seq.push_back(LocOp::add(R.range(-3, 3)));
      break;
    default:
      Seq.push_back(LocOp::write(Value::of(R.range(0, 4))));
      break;
    }
  }
  return Seq;
}

bool bruteForceCommute(const Value &Entry, const LocOpSeq &A,
                       const LocOpSeq &B) {
  SeqEval AloneA = evalSequence(Entry, A);
  SeqEval AloneB = evalSequence(Entry, B);
  SeqEval AAfterB = evalSequence(AloneB.Final, A);
  SeqEval BAfterA = evalSequence(AloneA.Final, B);
  return BAfterA.Final == AAfterB.Final && AloneA.Reads == AAfterB.Reads &&
         AloneB.Reads == BAfterA.Reads;
}

} // namespace

class OnlineConflictProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OnlineConflictProperty, MatchesBruteForce) {
  Rng R(GetParam());
  for (int Iter = 0; Iter != 1000; ++Iter) {
    LocOpSeq A = randomSeq(R), B = randomSeq(R);
    Value Entry = Value::of(R.range(-3, 3));
    EXPECT_EQ(conflictOnline(Entry, A, B),
              !bruteForceCommute(Entry, A, B))
        << "iteration " << Iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineConflictProperty,
                         ::testing::Values(3, 5, 7, 11));

TEST(SequenceDetectorTest, SignatureMemoDoesNotChangeVerdicts) {
  // Same queries with and without the memo must produce identical
  // answers and identical cache-hit accounting.
  DetectorWorld W1, W2;
  PairQuery Q = buildPairQuery("work", {LocOp::add(1), LocOp::add(-1)},
                               {LocOp::add(2), LocOp::add(-2)}, true);
  W1.Cache->insert(Q.Key, Condition::valid());
  W2.Cache->insert(Q.Key, Condition::valid());

  SequenceDetectorConfig WithMemo;
  WithMemo.MemoizeSignatures = true;
  SequenceDetectorConfig NoMemo;
  NoMemo.MemoizeSignatures = false;
  SequenceDetector D1(W1.Cache, WithMemo), D2(W2.Cache, NoMemo);

  for (int I = 0; I != 20; ++I) {
    TxLog Mine{{Location(W1.Work), LocOp::add(I + 1)},
               {Location(W1.Work), LocOp::add(-(I + 1))}};
    auto Theirs = logOf({{Location(W1.Work), LocOp::add(5)},
                         {Location(W1.Work), LocOp::add(-5)}});
    bool V1 = D1.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W1.Reg);
    // W2 has the same object layout (same registration order).
    bool V2 = D2.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W2.Reg);
    EXPECT_EQ(V1, V2) << "iteration " << I;
    EXPECT_FALSE(V1);
  }
  EXPECT_EQ(D1.stats().CacheHits.load(), D2.stats().CacheHits.load());
}

TEST(SequenceDetectorTest, MemoDistinguishesReadResults) {
  // Two sequences with identical kinds/operands but different read
  // results symbolize differently (read-plus patterns); the memo key
  // must not conflate them.
  DetectorWorld W;
  SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);

  stm::Snapshot S5;
  S5 = S5.set(Location(W.Work), Value::of(int64_t(5)));
  // Mine reads 5 and writes 6 (read-plus). Theirs writes 6 as well:
  // equal writes + consistent read ⇒ no conflict.
  TxLog MineA{{Location(W.Work), LocOp::read(Value::of(int64_t(5)))},
              {Location(W.Work), LocOp::write(Value::of(int64_t(6)))}};
  auto TheirsSame = logOf({{Location(W.Work), LocOp::write(Value::of(int64_t(6)))}});
  // Read 5 then their write 6: my read differs across orders → conflict.
  EXPECT_TRUE(D.detectConflicts(S5, MineA, {TheirsSame}, W.Reg));

  // Identical ops but the read observed 6 (snapshot already 6): in both
  // orders my read sees 6 and both final writes agree → no conflict.
  stm::Snapshot S6;
  S6 = S6.set(Location(W.Work), Value::of(int64_t(6)));
  TxLog MineB{{Location(W.Work), LocOp::read(Value::of(int64_t(6)))},
              {Location(W.Work), LocOp::write(Value::of(int64_t(6)))}};
  EXPECT_FALSE(D.detectConflicts(S6, MineB, {TheirsSame}, W.Reg));
}

// ---------------------------------------------------------------------------
// Edge cases: empty logs, single-op sequences, self-conflicting
// transactions and log reuse across an abort/retry.
// ---------------------------------------------------------------------------

TEST(OnlineConflictTest, EmptySequencesNeverConflict) {
  EXPECT_FALSE(conflictOnline(Value::of(3), {}, {}));
  EXPECT_FALSE(conflictOnline(Value::of(3), {}, {LocOp::write(Value::of(9))}));
  EXPECT_FALSE(conflictOnline(Value::of(3), {LocOp::write(Value::of(9))}, {}));
}

TEST(SequenceDetectorTest, EmptyMineLogNeverConflicts) {
  DetectorWorld W;
  SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  TxLog Empty;
  auto Theirs = logOf({{Location(W.Work), LocOp::write(Value::of(1))}});
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Empty, {Theirs}, W.Reg));
  // Empty committed window: nothing to conflict with either.
  TxLog Mine{{Location(W.Work), LocOp::write(Value::of(2))}};
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {}, W.Reg));
  // An empty committed log inside a non-empty window is also inert.
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {logOf({})}, W.Reg));
}

TEST(OnlineConflictTest, SingleOpPairs) {
  Value E = Value::of(int64_t(4));
  // Read/read: insensitive to order.
  EXPECT_FALSE(conflictOnline(E, {LocOp::read()}, {LocOp::read()}));
  // Equal single writes commute; different ones do not.
  EXPECT_FALSE(conflictOnline(E, {LocOp::write(Value::of(7))},
                              {LocOp::write(Value::of(7))}));
  EXPECT_TRUE(conflictOnline(E, {LocOp::write(Value::of(7))},
                             {LocOp::write(Value::of(8))}));
  // Single adds always commute.
  EXPECT_FALSE(conflictOnline(E, {LocOp::add(2)}, {LocOp::add(-9)}));
  // Read vs write: conflicts unless the write restores the entry value.
  EXPECT_TRUE(conflictOnline(E, {LocOp::read()}, {LocOp::write(Value::of(5))}));
  EXPECT_FALSE(conflictOnline(E, {LocOp::read()},
                              {LocOp::write(Value::of(int64_t(4)))}));
}

TEST(OnlineConflictTest, SelfConflictingSequence) {
  // A read-modify-write run against a copy of itself: whichever copy
  // goes second reads the other's write, so SAMEREAD fails — a
  // transaction's log can conflict with its own kind.
  Value E = Value::of(int64_t(0));
  symbolic::LocOpSeq Rmw{LocOp::read(Value::of(int64_t(0))),
                         LocOp::write(Value::of(int64_t(1)))};
  EXPECT_TRUE(conflictOnline(E, Rmw, Rmw));
  // Semantic adds self-commute; pure reads trivially so.
  EXPECT_FALSE(conflictOnline(E, {LocOp::add(1)}, {LocOp::add(1)}));
  EXPECT_FALSE(conflictOnline(E, {LocOp::read()}, {LocOp::read()}));
}

// ---------------------------------------------------------------------------
// Conflict explanations (the diagnostic behind `janus explain` and the
// obs abort-attribution report).
// ---------------------------------------------------------------------------

namespace {

/// Runs \p Body as a transaction against \p S and returns its log.
template <typename Fn>
TxLog logOfTx(const stm::Snapshot &S, uint32_t Tid,
              const ObjectRegistry &Reg, Fn Body) {
  stm::TxContext Tx(S, Tid, Reg);
  Body(Tx);
  return Tx.log();
}

} // namespace

TEST(ExplainTest, TxMapGetVsPutSameKeyNamesLocationOpsAndReason) {
  // PMD-style attribute store: my get() raced a committed put() on the
  // same key. The explanation must name the concrete (object, key)
  // location, render both sides' sequences, and blame SAMEREAD.
  ObjectRegistry Reg;
  adt::TxMap Attrs = adt::TxMap::create(Reg, "attrs");
  stm::Snapshot S;
  S = S.set(Attrs.locationAt("suppressed"), Value::of(int64_t(0)));

  TxLog Mine = logOfTx(S, 1, Reg, [&](stm::TxContext &Tx) {
    ASSERT_TRUE(Attrs.get(Tx, "suppressed").has_value());
  });
  auto Theirs =
      std::make_shared<const TxLog>(logOfTx(S, 2, Reg, [&](stm::TxContext &Tx) {
        Attrs.put(Tx, "suppressed", Value::of(int64_t(1)));
      }));

  ConflictExplanation Ex = explainConflict(S, Mine, {Theirs}, Reg);
  ASSERT_TRUE(Ex.Conflicting);
  EXPECT_EQ(Ex.Loc, Attrs.locationAt("suppressed"));
  EXPECT_EQ(Ex.LocationName, "attrs[\"suppressed\"]");
  EXPECT_EQ(Ex.MineSeq, "R");
  EXPECT_EQ(Ex.TheirsSeq, "W(1)");
  EXPECT_NE(Ex.Reason.find("SAMEREAD violated"), std::string::npos)
      << Ex.Reason;
  // The one-line rendering carries all three pieces.
  std::string Line = Ex.toString();
  EXPECT_NE(Line.find("attrs[\"suppressed\"]"), std::string::npos) << Line;
  EXPECT_NE(Line.find("mine: R"), std::string::npos) << Line;
  EXPECT_NE(Line.find("theirs: W(1)"), std::string::npos) << Line;
}

TEST(ExplainTest, TxMapPutVsPutSameKeyIsCommuteViolation) {
  // Two puts of different values to the same key: no reads, so the
  // SAMEREAD checks pass and the final-value COMMUTE check fires.
  ObjectRegistry Reg;
  adt::TxMap Attrs = adt::TxMap::create(Reg, "attrs");
  stm::Snapshot S;

  TxLog Mine = logOfTx(S, 1, Reg, [&](stm::TxContext &Tx) {
    Attrs.put(Tx, "k", Value::of(int64_t(1)));
  });
  auto Theirs =
      std::make_shared<const TxLog>(logOfTx(S, 2, Reg, [&](stm::TxContext &Tx) {
        Attrs.put(Tx, "k", Value::of(int64_t(2)));
      }));

  ConflictExplanation Ex = explainConflict(S, Mine, {Theirs}, Reg);
  ASSERT_TRUE(Ex.Conflicting);
  EXPECT_EQ(Ex.LocationName, "attrs[\"k\"]");
  EXPECT_NE(Ex.Reason.find("COMMUTE violated"), std::string::npos)
      << Ex.Reason;
  // Both orders' final values are named in the reason.
  EXPECT_NE(Ex.Reason.find("2 (mine first)"), std::string::npos) << Ex.Reason;
  EXPECT_NE(Ex.Reason.find("1 (history first)"), std::string::npos)
      << Ex.Reason;
}

TEST(ExplainTest, DistinctKeysAndCommutingOpsDoNotConflict) {
  ObjectRegistry Reg;
  adt::TxMap Attrs = adt::TxMap::create(Reg, "attrs");
  stm::Snapshot S;

  // Different keys of the same map are different locations.
  TxLog Mine = logOfTx(S, 1, Reg, [&](stm::TxContext &Tx) {
    Attrs.put(Tx, "a", Value::of(int64_t(1)));
  });
  auto OtherKey =
      std::make_shared<const TxLog>(logOfTx(S, 2, Reg, [&](stm::TxContext &Tx) {
        Attrs.put(Tx, "b", Value::of(int64_t(2)));
      }));
  EXPECT_FALSE(explainConflict(S, Mine, {OtherKey}, Reg).Conflicting);

  // Same key, commuting reduction updates (addAt): no conflict either.
  TxLog MineAdd = logOfTx(S, 1, Reg, [&](stm::TxContext &Tx) {
    Attrs.addAt(Tx, "hits", 1);
  });
  auto TheirAdd =
      std::make_shared<const TxLog>(logOfTx(S, 2, Reg, [&](stm::TxContext &Tx) {
        Attrs.addAt(Tx, "hits", 5);
      }));
  ConflictExplanation Ex = explainConflict(S, MineAdd, {TheirAdd}, Reg);
  EXPECT_FALSE(Ex.Conflicting);
  EXPECT_EQ(Ex.toString(), "no conflict");
}

TEST(ExplainTest, ExplanationIsDeterministicAcrossRepeats) {
  // The attribution report aggregates explanation strings by key;
  // identical inputs must therefore explain identically every time,
  // including which location is blamed when several conflict.
  ObjectRegistry Reg;
  adt::TxMap Attrs = adt::TxMap::create(Reg, "attrs");
  stm::Snapshot S;
  S = S.set(Attrs.locationAt("x"), Value::of(int64_t(10)));
  S = S.set(Attrs.locationAt("y"), Value::of(int64_t(20)));

  // Mine touches two keys that both conflict with the committed log.
  TxLog Mine = logOfTx(S, 1, Reg, [&](stm::TxContext &Tx) {
    ASSERT_TRUE(Attrs.get(Tx, "x").has_value());
    ASSERT_TRUE(Attrs.get(Tx, "y").has_value());
  });
  auto Theirs =
      std::make_shared<const TxLog>(logOfTx(S, 2, Reg, [&](stm::TxContext &Tx) {
        Attrs.put(Tx, "y", Value::of(int64_t(21)));
        Attrs.put(Tx, "x", Value::of(int64_t(11)));
      }));

  std::string First = explainConflict(S, Mine, {Theirs}, Reg).toString();
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(explainConflict(S, Mine, {Theirs}, Reg).toString(), First);
}

TEST(SequenceDetectorTest, RetriedLogRevalidatesDeterministically) {
  // Abort-then-retry reuses the detector against a grown window: the
  // same (Mine, Theirs) pair must keep its verdict, and extending the
  // window with a commuting commit must not flip a clean validation.
  DetectorWorld W;
  SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  auto First = logOf({{Location(W.Work), LocOp::add(5)}});
  auto Second = logOf({{Location(W.Work), LocOp::add(-2)}});
  bool V1 = D.detectConflicts(stm::Snapshot(), Mine, {First}, W.Reg);
  bool V2 = D.detectConflicts(stm::Snapshot(), Mine, {First}, W.Reg);
  EXPECT_EQ(V1, V2);
  EXPECT_FALSE(V1);
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {First, Second},
                                 W.Reg));
  // A non-commuting commit in the retry window does flip the verdict.
  auto Clobber = logOf({{Location(W.Work), LocOp::write(Value::of(9))}});
  TxLog Reader{{Location(W.Work), LocOp::read()}};
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Reader, {}, W.Reg));
  EXPECT_TRUE(D.detectConflicts(stm::Snapshot(), Reader,
                                {First, Clobber}, W.Reg));
}

// ---------------------------------------------------------------------------
// SPEC TABLES (tier-1 dispatch, DESIGN.md §14).
// ---------------------------------------------------------------------------

namespace {

/// Evaluates the spec for \p Kind on one (entry, mine, theirs) point
/// with the default (all-on) checks.
SpecVerdict specOn(AdtKind Kind, const Value &Entry, const LocOpSeq &Mine,
                   const LocOpSeq &Theirs) {
  SpecFn Fn = specFor(Kind);
  EXPECT_NE(Fn, nullptr);
  return Fn(Entry, Mine, Theirs, ChecksSpec{});
}

} // namespace

TEST(SpecTableTest, CounterAddsAlwaysCommute) {
  EXPECT_EQ(specOn(AdtKind::Counter, Value::of(int64_t(5)),
                   {LocOp::add(1)}, {LocOp::add(-7)}),
            SpecVerdict::Commutes);
  EXPECT_EQ(specOn(AdtKind::Counter, Value::absent(),
                   {LocOp::add(2), LocOp::add(3)}, {LocOp::add(4)}),
            SpecVerdict::Commutes);
}

TEST(SpecTableTest, CounterReadVsNonzeroAddConflicts) {
  EXPECT_EQ(specOn(AdtKind::Counter, Value::of(int64_t(0)),
                   {LocOp::read()}, {LocOp::add(1)}),
            SpecVerdict::Conflicts);
  // A zero net add leaves the read stable.
  EXPECT_EQ(specOn(AdtKind::Counter, Value::of(int64_t(0)),
                   {LocOp::read()}, {LocOp::add(3), LocOp::add(-3)}),
            SpecVerdict::Commutes);
}

TEST(SpecTableTest, CounterAbstainsOnWrites) {
  // The counter table only claims add/read shapes; writes defer to the
  // learned tiers.
  EXPECT_EQ(specOn(AdtKind::Counter, Value::of(int64_t(0)),
                   {LocOp::write(Value::of(int64_t(1)))}, {LocOp::add(1)}),
            SpecVerdict::Abstain);
}

TEST(SpecTableTest, MapEqualPutsCommuteUnequalConflict) {
  LocOpSeq PutA{LocOp::write(Value::of("a"))};
  LocOpSeq PutB{LocOp::write(Value::of("b"))};
  EXPECT_EQ(specOn(AdtKind::Map, Value::of("x"), PutA, PutA),
            SpecVerdict::Commutes);
  EXPECT_EQ(specOn(AdtKind::Map, Value::of("x"), PutA, PutB),
            SpecVerdict::Conflicts);
}

TEST(SpecTableTest, MapGetVsPutDependsOnEntryPreservation) {
  LocOpSeq Get{LocOp::read()};
  // Overwriting the entry with its current value preserves the read.
  EXPECT_EQ(specOn(AdtKind::Map, Value::of("x"),
                   Get, {LocOp::write(Value::of("x"))}),
            SpecVerdict::Commutes);
  EXPECT_EQ(specOn(AdtKind::Map, Value::of("x"),
                   Get, {LocOp::write(Value::of("y"))}),
            SpecVerdict::Conflicts);
}

TEST(SpecTableTest, QueueDequeueVsDequeueConflicts) {
  // Competing dequeues both consume the same cell (write Absent after
  // reading it): order-dependent.
  LocOpSeq Dequeue{LocOp::read(), LocOp::write(Value::absent())};
  EXPECT_EQ(specOn(AdtKind::Queue, Value::of(int64_t(42)), Dequeue, Dequeue),
            SpecVerdict::Conflicts);
}

TEST(SpecTableTest, QueueAbstainsOnAdds) {
  EXPECT_EQ(specOn(AdtKind::Queue, Value::of(int64_t(0)),
                   {LocOp::add(1)}, {LocOp::add(1)}),
            SpecVerdict::Abstain);
}

TEST(SpecTableTest, BitSetIdempotentSetsCommuteSetVsClearConflicts) {
  LocOpSeq Set{LocOp::write(Value::of(true))};
  LocOpSeq Clear{LocOp::write(Value::of(false))};
  EXPECT_EQ(specOn(AdtKind::BitSet, Value::of(false), Set, Set),
            SpecVerdict::Commutes);
  EXPECT_EQ(specOn(AdtKind::BitSet, Value::of(false), Set, Clear),
            SpecVerdict::Conflicts);
}

TEST(SpecTableTest, EveryTableEntryHasNameAndFn) {
  for (const SpecTableEntry &E : SpecTables) {
    EXPECT_NE(E.Fn, nullptr);
    EXPECT_NE(E.Name, nullptr);
    EXPECT_EQ(specFor(E.Kind), E.Fn);
  }
  EXPECT_EQ(specFor(AdtKind::None), nullptr);
}

TEST(SpecDispatchTest, SpecHitSkipsCacheAndOnline) {
  DetectorWorld W;
  W.Reg.declareAdt(W.Work, AdtKind::Counter);
  SequenceDetectorConfig Cfg;
  Cfg.Specs = SpecMode::On;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
  EXPECT_EQ(D.stats().SpecHits.load(), 1u);
  EXPECT_EQ(D.stats().CacheHits.load(), 0u);
  EXPECT_EQ(D.stats().CacheMisses.load(), 0u);
  EXPECT_EQ(D.stats().OnlineChecks.load(), 0u);
}

TEST(SpecDispatchTest, AbstainFallsThroughToLearnedTier) {
  DetectorWorld W;
  W.Reg.declareAdt(W.Work, AdtKind::Counter);
  SequenceDetectorConfig Cfg;
  Cfg.Specs = SpecMode::On;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  // Writes make the counter table abstain; the online tier answers.
  TxLog Mine{{Location(W.Work), LocOp::write(Value::of(int64_t(1)))}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});
  EXPECT_TRUE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
  EXPECT_EQ(D.stats().SpecAbstains.load(), 1u);
  EXPECT_EQ(D.stats().SpecHits.load(), 0u);
  EXPECT_EQ(D.stats().OnlineChecks.load(), 1u);
}

TEST(SpecDispatchTest, SpecsOffNeverConsultTables) {
  DetectorWorld W;
  W.Reg.declareAdt(W.Work, AdtKind::Counter);
  SequenceDetectorConfig Cfg;
  Cfg.Specs = SpecMode::Off;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
  EXPECT_EQ(D.stats().SpecHits.load(), 0u);
  EXPECT_EQ(D.stats().SpecAbstains.load(), 0u);
}

TEST(SpecDispatchTest, OnlyModeBypassesLearnedTiersOnAbstain) {
  DetectorWorld W;
  W.Reg.declareAdt(W.Work, AdtKind::Counter);
  SequenceDetectorConfig Cfg;
  Cfg.Specs = SpecMode::Only;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  // Abstain in Only mode goes straight to the write-set test — the
  // write/add pair conflicts there, and no learned tier runs.
  TxLog Mine{{Location(W.Work), LocOp::write(Value::of(int64_t(1)))}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});
  EXPECT_TRUE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
  EXPECT_EQ(D.stats().SpecAbstains.load(), 1u);
  EXPECT_EQ(D.stats().WriteSetChecks.load(), 1u);
  EXPECT_EQ(D.stats().OnlineChecks.load(), 0u);
  EXPECT_EQ(D.stats().CacheMisses.load(), 0u);
}

TEST(SpecDispatchTest, UndeclaredObjectsSkipSpecTier) {
  DetectorWorld W; // No declareAdt: AdtKind::None.
  SequenceDetectorConfig Cfg;
  Cfg.Specs = SpecMode::On;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
  EXPECT_EQ(D.stats().SpecHits.load(), 0u);
  EXPECT_EQ(D.stats().SpecAbstains.load(), 0u);
  EXPECT_EQ(D.stats().OnlineChecks.load(), 1u);
}

TEST(SpecDispatchTest, SpecVerdictsMatchOnlineReference) {
  // On spec-covered pairs the tier-1 verdict must agree with the exact
  // online check (soundness AND exactness, the same obligation the
  // verify gate replays exhaustively).
  std::vector<LocOpSeq> Seqs = {
      {},
      {LocOp::read()},
      {LocOp::add(1)},
      {LocOp::add(-1), LocOp::add(1)},
      {LocOp::read(), LocOp::add(2)},
  };
  for (const LocOpSeq &Mine : Seqs)
    for (const LocOpSeq &Theirs : Seqs) {
      Value Entry = Value::of(int64_t(3));
      SpecVerdict V = specOn(AdtKind::Counter, Entry, Mine, Theirs);
      if (V == SpecVerdict::Abstain)
        continue;
      bool Ref = conflictOnline(Entry, Mine, Theirs);
      EXPECT_EQ(V == SpecVerdict::Conflicts, Ref)
          << sequenceToString(Mine) << " vs " << sequenceToString(Theirs);
    }
}

// ---------------------------------------------------------------------------
// Differential test: the index join against the map-based DECOMPOSE.
// ---------------------------------------------------------------------------

namespace {

/// Reference copy of the map-based decomposition and access sets the
/// detectors computed per call before logs were indexed by location.
namespace reference {

using Decomposition = std::map<Location, LocOpSeq>;

Decomposition decompose(const TxLog &Log) {
  Decomposition Out;
  for (const LogEntry &E : Log)
    Out[E.Loc].push_back(E.Op);
  return Out;
}

Decomposition decomposeAll(const std::vector<TxLogRef> &Logs) {
  Decomposition Out;
  for (const TxLogRef &Log : Logs)
    for (const LogEntry &E : *Log)
      Out[E.Loc].push_back(E.Op);
  return Out;
}

struct AccessSets {
  std::unordered_set<Location> Read;
  std::unordered_set<Location> Write;
};

AccessSets accessSets(const TxLog &Log) {
  AccessSets Sets;
  for (const LogEntry &E : Log) {
    switch (E.Op.Kind) {
    case LocOpKind::Read:
      Sets.Read.insert(E.Loc);
      break;
    case LocOpKind::Write:
      Sets.Write.insert(E.Loc);
      break;
    case LocOpKind::Add:
      Sets.Read.insert(E.Loc);
      Sets.Write.insert(E.Loc);
      break;
    }
  }
  return Sets;
}

bool writeSetsConflict(const AccessSets &Mine, const AccessSets &Their) {
  auto Overlaps = [](const std::unordered_set<Location> &A,
                     const std::unordered_set<Location> &B) {
    for (const Location &L : A)
      if (B.count(L))
        return true;
    return false;
  };
  return Overlaps(Mine.Write, Their.Write) ||
         Overlaps(Mine.Write, Their.Read) || Overlaps(Mine.Read, Their.Write);
}

/// The write-set detector over the reference access sets.
bool writeSetDetect(stm::DetectorStats &Stats, const TxLog &Mine,
                    const std::vector<TxLogRef> &Committed) {
  if (Committed.empty())
    return false;
  AccessSets MySets = accessSets(Mine);
  ++Stats.PairQueries;
  for (const TxLogRef &Log : Committed)
    if (writeSetsConflict(MySets, accessSets(*Log))) {
      ++Stats.ConflictsFound;
      return true;
    }
  return false;
}

/// The sequence detector over the reference decomposition: each common
/// location, in ascending order, is handed to \p D as a one-location
/// query (whose decomposition is trivial), so \p D answers exactly the
/// per-location queries the map-based detector asked, in its order.
bool sequenceDetect(SequenceDetector &D, const stm::Snapshot &Entry,
                    const TxLog &Mine, const std::vector<TxLogRef> &Committed,
                    const ObjectRegistry &Reg) {
  if (Committed.empty())
    return false;
  auto LogAt = [](const Location &Loc, const LocOpSeq &Seq) {
    stm::LogEntries Log;
    for (const LocOp &Op : Seq)
      Log.push_back({Loc, Op});
    return TxLog(std::move(Log));
  };
  Decomposition MineD = decompose(Mine);
  Decomposition TheirsD = decomposeAll(Committed);
  for (const auto &[Loc, MySeq] : MineD) {
    auto It = TheirsD.find(Loc);
    if (It == TheirsD.end())
      continue;
    auto Theirs = std::make_shared<const TxLog>(LogAt(Loc, It->second));
    if (D.detectConflicts(Entry, LogAt(Loc, MySeq), {Theirs}, Reg))
      return true;
  }
  return false;
}

} // namespace reference

std::vector<uint64_t> statsOf(const stm::DetectorStats &S) {
  return {S.PairQueries.load(),    S.SpecHits.load(),
          S.SpecAbstains.load(),   S.CacheHits.load(),
          S.CacheMisses.load(),    S.OnlineChecks.load(),
          S.WriteSetChecks.load(), S.ConflictsFound.load(),
          S.DegradedQueries.load(), S.SignatureInternHits.load()};
}

/// Random logs over objects of every spec'd ADT kind, relaxed and
/// plain objects, with unkeyed, integer and string locations. Each
/// object keeps one value type, so Adds only ever meet integers.
struct DiffWorld {
  enum class Keys { None, Int, String };
  enum class Vals { Int, String, Bool };
  struct Obj {
    ObjectId Id;
    Keys K;
    Vals V;
  };
  ObjectRegistry Reg;
  std::vector<Obj> Objs;

  DiffWorld() {
    auto Add = [this](const char *Name, AdtKind Kind, RelaxationSpec Relax,
                      Keys K, Vals V) {
      ObjectId Id = Reg.registerObject(Name, "", Relax);
      Reg.declareAdt(Id, Kind);
      Objs.push_back({Id, K, V});
    };
    Add("counter", AdtKind::Counter, {}, Keys::None, Vals::Int);
    Add("counters", AdtKind::Counter, {}, Keys::Int, Vals::Int);
    Add("map", AdtKind::Map, {}, Keys::String, Vals::Int);
    Add("names", AdtKind::Map, {}, Keys::String, Vals::String);
    Add("queue", AdtKind::Queue, {}, Keys::Int, Vals::Int);
    Add("bits", AdtKind::BitSet, {}, Keys::Int, Vals::Bool);
    Add("maxColor", AdtKind::None, {/*TolerateRAW=*/true, false}, Keys::None,
        Vals::Int);
    Add("ctx", AdtKind::None, {false, /*TolerateWAW=*/true}, Keys::Int,
        Vals::Int);
    Add("cells", AdtKind::None, {}, Keys::Int, Vals::Int);
  }

  /// A location of object \p O; \p Far picks keys no near location
  /// uses, so windows can be made disjoint from the attempt.
  Location loc(Rng &R, const Obj &O, bool Far) const {
    const int64_t K = R.range(0, 3) + (Far ? 100 : 0);
    switch (O.K) {
    case Keys::None:
      return Far ? Location(O.Id, K) : Location(O.Id);
    case Keys::Int:
      return Location(O.Id, K);
    case Keys::String:
      return Location(O.Id, std::string(1, static_cast<char>('a' + K % 26)) +
                                std::to_string(K));
    }
    return Location(O.Id);
  }

  Value value(Rng &R, const Obj &O) const {
    switch (O.V) {
    case Vals::Int:
      return Value::of(R.range(-2, 3));
    case Vals::String:
      return Value::of(std::string(R.below(2) ? "x" : "y"));
    case Vals::Bool:
      return Value::of(R.below(2) == 1);
    }
    return Value::absent();
  }

  LocOp op(Rng &R, const Obj &O) const {
    switch (R.below(O.V == Vals::Int ? 3 : 2)) {
    case 0:
      return LocOp::read(R.below(3) ? value(R, O) : Value::absent());
    case 1:
      return LocOp::write(value(R, O));
    default:
      return LocOp::add(R.range(-2, 2));
    }
  }

  TxLog log(Rng &R, bool Far) const {
    stm::LogEntries Log;
    for (int I = 0, E = static_cast<int>(R.below(9)); I != E; ++I) {
      const Obj &O = Objs[R.below(Objs.size())];
      Log.push_back({loc(R, O, Far), op(R, O)});
    }
    return TxLog(std::move(Log));
  }

  stm::Snapshot entry(Rng &R) const {
    stm::Snapshot S;
    for (const Obj &O : Objs)
      for (int I = 0; I != 3; ++I)
        if (R.below(2))
          S = S.set(loc(R, O, false), value(R, O));
    return S;
  }
};

} // namespace

TEST(DetectorDifferentialTest, IndexJoinMatchesMapDecomposition) {
  DiffWorld W;
  struct Variant {
    SpecMode Specs;
    bool Online;
    uint64_t OpBudget;
  };
  std::vector<Variant> Variants;
  for (SpecMode M : {SpecMode::Off, SpecMode::On, SpecMode::Only})
    for (Variant V : {Variant{M, true, 0}, Variant{M, false, 0},
                      Variant{M, true, 6}})
      Variants.push_back(V);

  std::vector<uint64_t> Reached(statsOf(stm::DetectorStats()).size());
  for (const Variant &V : Variants) {
    SequenceDetectorConfig Cfg;
    Cfg.Specs = V.Specs;
    Cfg.OnlineFallback = V.Online;
    Cfg.MemoizeOnline = V.Online;
    Cfg.OnlineOpBudget = V.OpBudget;
    // Each side learns online from its own query stream: equal streams
    // keep the two caches (and memos) equal.
    SequenceDetector New(std::make_shared<CommutativityCache>(), Cfg);
    SequenceDetector Ref(std::make_shared<CommutativityCache>(), Cfg);
    stm::WriteSetDetector NewWs;
    stm::DetectorStats RefWs;
    Rng R(0x5eed + static_cast<uint64_t>(V.Specs) * 7 + V.Online * 3 +
          V.OpBudget);
    uint64_t Conflicts = 0;
    for (int Iter = 0; Iter != 1000; ++Iter) {
      stm::Snapshot Entry = W.entry(R);
      TxLog Mine = W.log(R, /*Far=*/false);
      // 0–8 committed logs; about one window in four is disjoint from
      // the attempt's keys.
      const bool Disjoint = R.below(4) == 0;
      std::vector<TxLogRef> Committed;
      for (int I = 0, E = static_cast<int>(R.below(9)); I != E; ++I)
        Committed.push_back(std::make_shared<const TxLog>(
            W.log(R, Disjoint || R.below(5) == 0)));

      std::string Where = std::string("spec ") + specModeName(V.Specs) +
                          " online " + std::to_string(V.Online) +
                          " budget " + std::to_string(V.OpBudget) +
                          " iteration " + std::to_string(Iter);
      const bool Got = New.detectConflicts(Entry, Mine, Committed, W.Reg);
      const bool Want =
          reference::sequenceDetect(Ref, Entry, Mine, Committed, W.Reg);
      ASSERT_EQ(Got, Want) << Where;
      ASSERT_EQ(statsOf(New.stats()), statsOf(Ref.stats())) << Where;

      const bool GotWs = NewWs.detectConflicts(Entry, Mine, Committed, W.Reg);
      const bool WantWs = reference::writeSetDetect(RefWs, Mine, Committed);
      ASSERT_EQ(GotWs, WantWs) << Where;
      ASSERT_EQ(statsOf(NewWs.stats()), statsOf(RefWs)) << Where;
      Conflicts += Got;
    }
    // The generator must exercise both verdicts and real queries.
    EXPECT_GT(Conflicts, 100u) << specModeName(V.Specs);
    EXPECT_GT(New.stats().PairQueries.load(), 400u) << specModeName(V.Specs);
    std::vector<uint64_t> S = statsOf(New.stats());
    for (size_t I = 0; I != S.size(); ++I)
      Reached[I] += S[I];
  }
  // Across the variants every tier and counter is reached.
  for (size_t I = 0; I != Reached.size(); ++I)
    EXPECT_GT(Reached[I], 0u) << "DetectorStats counter #" << I;
}
