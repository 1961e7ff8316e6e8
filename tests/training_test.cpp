//===----------------------------------------------------------------------===//
///
/// \file
/// Unit, integration and property tests for the training phase
/// (paper §5.1): dependence-graph construction, sequence mining,
/// condition computation, SAT cross-checking, relaxation inference —
/// and the end-to-end soundness property that cache-answered queries
/// always agree with the exact online check.
///
//===----------------------------------------------------------------------===//

#include "janus/conflict/OnlineConflict.h"
#include "janus/conflict/SequenceDetector.h"
#include "janus/support/Rng.h"
#include "janus/training/DependenceGraph.h"
#include "janus/verify/RelationalCheck.h"
#include "janus/training/Trainer.h"

#include <gtest/gtest.h>

using namespace janus;
using namespace janus::training;
using namespace janus::verify;
using namespace janus::symbolic;
using conflict::CommutativityCache;
using conflict::PairQuery;
using stm::LogEntry;
using stm::Snapshot;
using stm::TaskFn;
using stm::TxContext;
using stm::TxLog;

// ---------------------------------------------------------------------------
// Dependence graph.
// ---------------------------------------------------------------------------

TEST(DependenceGraphTest, ChainsPerLocation) {
  ObjectId A{1}, B{2};
  std::vector<TxLog> Logs = {
      {{Location(A), LocOp::add(1)}, {Location(B), LocOp::read()}},
      {{Location(A), LocOp::add(-1)}},
  };
  DependenceGraph G(Logs);
  EXPECT_EQ(G.nodes().size(), 3u);
  // Edges: task 2's add on A depends on task 1's add on A.
  ASSERT_EQ(G.edges().size(), 1u);
  EXPECT_EQ(G.nodes()[G.edges()[0].first].Task, 2u);
  EXPECT_EQ(G.nodes()[G.edges()[0].second].Task, 1u);
  EXPECT_EQ(G.locationChains().at(Location(A)).size(), 2u);
  EXPECT_EQ(G.locationChains().at(Location(B)).size(), 1u);
}

TEST(DependenceGraphTest, TaskSubsequencePartitioning) {
  ObjectId A{1};
  std::vector<TxLog> Logs = {
      {{Location(A), LocOp::add(2)}, {Location(A), LocOp::add(-2)}},
      {{Location(A), LocOp::add(5)}},
      {{Location(A), LocOp::read()}},
  };
  DependenceGraph G(Logs);
  auto Subs = G.taskSubsequences();
  ASSERT_EQ(Subs[Location(A)].size(), 3u);
  EXPECT_EQ(Subs[Location(A)][0].Task, 1u);
  EXPECT_EQ(Subs[Location(A)][0].Seq.size(), 2u);
  EXPECT_EQ(Subs[Location(A)][1].Task, 2u);
  EXPECT_EQ(Subs[Location(A)][2].Seq[0].Kind, LocOpKind::Read);
}

// ---------------------------------------------------------------------------
// Relational / SAT cross-check.
// ---------------------------------------------------------------------------

TEST(RelationalCheckTest, LoweringWritesAndReads) {
  LocOpSeq Seq{LocOp::write(Value::of(3)), LocOp::read()};
  auto T = lowerToRelational(Value::absent(), Seq);
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->ops().size(), 2u);
}

TEST(RelationalCheckTest, CommuteViaSatAgreesOnClassicCases) {
  // Equal writes commute.
  EXPECT_EQ(commuteViaSat(Value::absent(), {LocOp::write(Value::of(5))},
                          {LocOp::write(Value::of(5))}),
            std::make_optional(true));
  // Different writes do not.
  EXPECT_EQ(commuteViaSat(Value::absent(), {LocOp::write(Value::of(5))},
                          {LocOp::write(Value::of(6))}),
            std::make_optional(false));
  // Balanced add pairs (identity) commute.
  EXPECT_EQ(commuteViaSat(Value::of(10), {LocOp::add(2), LocOp::add(-2)},
                          {LocOp::add(7), LocOp::add(-7)}),
            std::make_optional(true));
  // Plain adds commute (state-wise).
  EXPECT_EQ(commuteViaSat(Value::of(0), {LocOp::add(1)}, {LocOp::add(2)}),
            std::make_optional(true));
}

/// Property: on random sequences the SAT pipeline's state-commutativity
/// verdict matches direct concrete evaluation of both orders.
class SatCrossCheckProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SatCrossCheckProperty, MatchesConcreteStateCommutativity) {
  Rng R(GetParam());
  for (int Iter = 0; Iter != 80; ++Iter) {
    auto RandomSeq = [&R]() {
      LocOpSeq Seq;
      for (int I = 0, E = 1 + static_cast<int>(R.below(3)); I != E; ++I) {
        if (R.chance(1, 2))
          Seq.push_back(LocOp::add(R.range(-2, 2)));
        else
          Seq.push_back(LocOp::write(Value::of(R.range(0, 3))));
      }
      return Seq;
    };
    LocOpSeq A = RandomSeq(), B = RandomSeq();
    Value Entry = Value::of(R.range(-2, 2));

    SeqEval AB = evalSequence(evalSequence(Entry, A).Final, B);
    SeqEval BA = evalSequence(evalSequence(Entry, B).Final, A);
    bool Concrete = AB.Final == BA.Final;

    auto Sat = commuteViaSat(Entry, A, B);
    ASSERT_TRUE(Sat.has_value()) << "iteration " << Iter;
    EXPECT_EQ(*Sat, Concrete)
        << "iteration " << Iter << " A=" << sequenceToString(A)
        << " B=" << sequenceToString(B) << " entry=" << Entry.toString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatCrossCheckProperty,
                         ::testing::Values(13, 17, 19));

// ---------------------------------------------------------------------------
// Trainer.
// ---------------------------------------------------------------------------

namespace {

struct TrainWorld {
  ObjectRegistry Reg;
  ObjectId Work;
  std::shared_ptr<CommutativityCache> Cache;
  TrainWorld() : Cache(std::make_shared<CommutativityCache>()) {
    Work = Reg.registerObject("work");
  }
};

} // namespace

TEST(TrainerTest, LearnsIdentityPattern) {
  // Figure 1's loop: each task adds and subtracts the same weight.
  TrainWorld W;
  Trainer T(W.Reg, W.Cache);
  Snapshot S;
  std::vector<TaskFn> Tasks;
  for (int I = 1; I <= 4; ++I)
    Tasks.push_back([&W, I](TxContext &Tx) {
      Tx.add(Location(W.Work), I);
      Tx.add(Location(W.Work), -I);
    });
  T.trainOn(S, Tasks);
  EXPECT_GT(T.stats().CachedEntries, 0u);

  // Production: a detector answering from the cache sees no conflict
  // for fresh weights never observed in training.
  conflict::SequenceDetector D(W.Cache);
  TxLog Mine{{Location(W.Work), LocOp::add(100)},
             {Location(W.Work), LocOp::add(-100)}};
  auto Theirs = std::make_shared<const TxLog>(
      TxLog{{Location(W.Work), LocOp::add(55)},
            {Location(W.Work), LocOp::add(-55)}});
  EXPECT_FALSE(D.detectConflicts(Snapshot(), Mine, {Theirs}, W.Reg));
  EXPECT_GT(D.stats().CacheHits.load(), 0u);
  EXPECT_EQ(D.stats().CacheMisses.load(), 0u);
}

TEST(TrainerTest, AbstractionGeneralizesAcrossLengths) {
  // Training with 2 repetitions; production sequences have 5. With
  // abstraction the query hits; without, it misses.
  for (bool UseAbs : {true, false}) {
    TrainWorld W;
    TrainerConfig Cfg;
    Cfg.UseAbstraction = UseAbs;
    Trainer T(W.Reg, W.Cache, Cfg);
    Snapshot S;
    std::vector<TaskFn> Tasks(3, [&W](TxContext &Tx) {
      for (int K = 0; K != 2; ++K) {
        Tx.add(Location(W.Work), 7);
        Tx.add(Location(W.Work), -7);
      }
    });
    T.trainOn(S, Tasks);

    conflict::SequenceDetectorConfig DCfg;
    DCfg.UseAbstraction = UseAbs;
    conflict::SequenceDetector D(W.Cache, DCfg);
    TxLog Mine, TheirsLog;
    for (int K = 0; K != 5; ++K) {
      Mine.push_back({Location(W.Work), LocOp::add(9)});
      Mine.push_back({Location(W.Work), LocOp::add(-9)});
      TheirsLog.push_back({Location(W.Work), LocOp::add(3)});
      TheirsLog.push_back({Location(W.Work), LocOp::add(-3)});
    }
    auto Theirs = std::make_shared<const TxLog>(TheirsLog);
    D.detectConflicts(Snapshot(), Mine, {Theirs}, W.Reg);
    if (UseAbs) {
      EXPECT_EQ(D.stats().CacheMisses.load(), 0u) << "with abstraction";
    } else {
      EXPECT_GT(D.stats().CacheMisses.load(), 0u) << "without abstraction";
    }
  }
}

TEST(TrainerTest, EqualWritesConditionIsLearned) {
  // Weka pattern: tasks write colors; condition "values equal" cached.
  TrainWorld W;
  ObjectId Pixel = W.Reg.registerObject("pixel", "pixel.elem");
  Trainer T(W.Reg, W.Cache);
  Snapshot S;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != 3; ++I)
    Tasks.push_back([&W, Pixel](TxContext &Tx) {
      Tx.write(Location(Pixel, 0), Value::of("black"));
    });
  T.trainOn(S, Tasks);

  conflict::SequenceDetector D(W.Cache);
  auto Attempt = [&](const char *MineColor, const char *TheirColor) {
    TxLog Mine{{Location(Pixel, 5), LocOp::write(Value::of(MineColor))}};
    auto Theirs = std::make_shared<const TxLog>(
        TxLog{{Location(Pixel, 5), LocOp::write(Value::of(TheirColor))}});
    return D.detectConflicts(Snapshot(), Mine, {Theirs}, W.Reg);
  };
  // Location (pixel, 5) was never trained on, but the class was.
  EXPECT_FALSE(Attempt("white", "white"));
  EXPECT_TRUE(Attempt("white", "red"));
  EXPECT_EQ(D.stats().CacheMisses.load(), 0u);
}

TEST(TrainerTest, MultipleRoundsAccumulate) {
  TrainWorld W;
  Trainer T(W.Reg, W.Cache);
  std::vector<TaskFn> AddTasks(3, [&W](TxContext &Tx) {
    Tx.add(Location(W.Work), 2);
  });
  std::vector<TaskFn> ReadTasks(3, [&W](TxContext &Tx) {
    Tx.read(Location(W.Work));
  });
  Snapshot S1, S2;
  T.trainOn(S1, AddTasks);
  size_t AfterFirst = W.Cache->size();
  T.trainOn(S2, ReadTasks);
  EXPECT_GT(W.Cache->size(), AfterFirst);
}

TEST(TrainerTest, SatCrossCheckRuns) {
  TrainWorld W;
  TrainerConfig Cfg;
  Cfg.VerifyWithSat = true;
  Trainer T(W.Reg, W.Cache, Cfg);
  Snapshot S;
  std::vector<TaskFn> Tasks(3, [&W](TxContext &Tx) {
    Tx.add(Location(W.Work), 4);
    Tx.add(Location(W.Work), -4);
  });
  T.trainOn(S, Tasks);
  EXPECT_GT(T.stats().SatCrossChecks, 0u);
  EXPECT_EQ(T.stats().SatDisagreements, 0u);
  EXPECT_GT(T.stats().CachedEntries, 0u);
}

TEST(TrainerTest, InfersWAWForDefineBeforeUseObjects) {
  // PMD's ctx fields: every task writes before reading.
  TrainWorld W;
  ObjectId Ctx = W.Reg.registerObject("ctx.sourceCodeFile");
  TrainerConfig Cfg;
  Cfg.InferWAWRelaxation = true;
  Trainer T(W.Reg, W.Cache, Cfg);
  Snapshot S;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != 3; ++I)
    Tasks.push_back([&W, Ctx, I](TxContext &Tx) {
      Tx.write(Location(Ctx), Value::of(int64_t(I))); // Define first.
      Tx.read(Location(Ctx));                         // Use later.
      Tx.read(Location(W.Work)); // work: read-only here, no inference.
    });
  T.trainOn(S, Tasks);
  EXPECT_TRUE(W.Reg.info(Ctx).Relax.TolerateWAW);
  EXPECT_FALSE(W.Reg.info(W.Work).Relax.TolerateWAW);
  EXPECT_EQ(T.stats().InferredWAWObjects, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end soundness property: every cache-answered production query
// agrees with the exact online CONFLICT check.
// ---------------------------------------------------------------------------

namespace {

LocOpSeq randomTaskSeq(Rng &R) {
  LocOpSeq Seq;
  int Kind = static_cast<int>(R.below(4));
  switch (Kind) {
  case 0: { // Identity run.
    int Reps = 1 + static_cast<int>(R.below(3));
    for (int I = 0; I != Reps; ++I) {
      int64_t D = R.range(1, 9);
      Seq.push_back(LocOp::add(D));
      Seq.push_back(LocOp::add(-D));
    }
    break;
  }
  case 1: // Plain reduction.
    Seq.push_back(LocOp::add(R.range(-9, 9)));
    break;
  case 2: // Write (possibly equal across tasks).
    Seq.push_back(LocOp::write(Value::of(R.range(0, 2))));
    break;
  default: // Read-modify-write.
    Seq.push_back(LocOp::read());
    Seq.push_back(LocOp::write(Value::of(R.range(0, 2))));
    break;
  }
  return Seq;
}

TaskFn taskFromSeq(Location Loc, LocOpSeq Seq) {
  return [Loc, Seq = std::move(Seq)](TxContext &Tx) {
    for (const LocOp &Op : Seq) {
      switch (Op.Kind) {
      case LocOpKind::Read:
        Tx.read(Loc);
        break;
      case LocOpKind::Write:
        Tx.write(Loc, Op.Operand);
        break;
      case LocOpKind::Add:
        Tx.add(Loc, Op.Operand.asInt());
        break;
      }
    }
  };
}

} // namespace

class CacheSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheSoundness, CacheHitsAgreeWithOnlineCheck) {
  Rng R(GetParam());
  TrainWorld W;
  Trainer T(W.Reg, W.Cache);

  // Train on random payloads.
  for (int Round = 0; Round != 3; ++Round) {
    Snapshot S;
    S = S.set(Location(W.Work), Value::of(R.range(0, 5)));
    std::vector<TaskFn> Tasks;
    for (int I = 0; I != 6; ++I)
      Tasks.push_back(taskFromSeq(Location(W.Work), randomTaskSeq(R)));
    T.trainOn(S, Tasks);
  }

  // Production queries: the cached verdict (when evaluable) must match
  // the exact online check.
  for (int Iter = 0; Iter != 300; ++Iter) {
    LocOpSeq Mine = randomTaskSeq(R);
    LocOpSeq Theirs = randomTaskSeq(R);
    // Populate read results by evaluating against a random entry.
    Value Entry = Value::of(R.range(0, 5));
    {
      Value Cur = Entry;
      for (LocOp &Op : Theirs) {
        if (Op.Kind == LocOpKind::Read)
          Op.ReadResult = Cur;
        Cur = applyLocOp(Cur, Op);
      }
      Cur = Entry; // Mine starts from the same entry snapshot.
      for (LocOp &Op : Mine) {
        if (Op.Kind == LocOpKind::Read)
          Op.ReadResult = Cur;
        Cur = applyLocOp(Cur, Op);
      }
    }

    PairQuery Q = conflict::buildPairQuery("work", Mine, Theirs, true);
    auto Cached = W.Cache->lookup(Q.Key);
    if (!Cached)
      continue; // Miss: nothing to validate.
    Bindings B = Q.Binds;
    B[EntrySym] = Entry;
    auto Verdict = Cached->evaluate(B);
    if (!Verdict)
      continue; // Unevaluable: the detector would fall back.
    bool Online = !conflict::conflictOnline(Entry, Mine, Theirs);
    EXPECT_EQ(*Verdict, Online)
        << "iteration " << Iter << "\n mine   = " << sequenceToString(Mine)
        << "\n theirs = " << sequenceToString(Theirs)
        << "\n entry  = " << Entry.toString()
        << "\n key    = " << Q.Key.toString()
        << "\n cond   = " << Cached->toString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheSoundness,
                         ::testing::Values(23, 29, 31, 37, 41));
