#include "janus/abstraction/AbstractSeq.h"

#include <unordered_map>

using namespace janus;
using namespace janus::abstraction;
using namespace janus::symbolic;

std::string AbstractSeq::signature() const {
  std::string Out;
  for (size_t I = 0, E = Elems.size(); I != E; ++I) {
    if (I)
      Out += ", ";
    if (Elems[I].IsGroup) {
      Out += '[';
      Out += symSeqToString(Elems[I].Body);
      Out += "]+";
    } else
      Out += Elems[I].Op.toString();
  }
  return Out;
}

SymLocSeq AbstractSeq::expandOnce() const {
  SymLocSeq Out;
  uint32_t EmittedReads = 0;
  // Maps an ungrouped read's ordinal to its emitted global read index.
  std::vector<uint32_t> UngroupedEmitted;

  for (const AbstractElem &E : Elems) {
    if (!E.IsGroup) {
      SymLocOp Op = E.Op;
      if (Op.Kind == LocOpKind::Read) {
        UngroupedEmitted.push_back(EmittedReads++);
      } else if (Op.Operand.kind() == Term::Kind::ReadPlus) {
        uint32_t Ord = Op.Operand.readIndex();
        JANUS_ASSERT(Ord < UngroupedEmitted.size(),
                     "read reference to a future read");
        Op.Operand =
            Term::readPlus(UngroupedEmitted[Ord], Op.Operand.readOffset());
      }
      Out.push_back(Op);
      continue;
    }
    uint32_t GroupReadBase = EmittedReads;
    for (const SymLocOp &BOp : E.Body) {
      SymLocOp Op = BOp;
      if (Op.Kind == LocOpKind::Read) {
        ++EmittedReads;
      } else if (Op.Operand.kind() == Term::Kind::ReadPlus) {
        Op.Operand = Term::readPlus(GroupReadBase + Op.Operand.readIndex(),
                                    Op.Operand.readOffset());
      }
      Out.push_back(Op);
    }
  }
  return Out;
}

/// Shared with commutativityCondition: does the body perform arithmetic
/// on the location value?
static bool usesArithmetic(std::span<const SymLocOp> Seq) {
  for (const SymLocOp &Op : Seq) {
    if (Op.Kind == LocOpKind::Add)
      return true;
    if (Op.Kind == LocOpKind::Write &&
        Op.Operand.kind() == Term::Kind::ReadPlus &&
        Op.Operand.readOffset() != 0)
      return true;
  }
  return false;
}

bool abstraction::isIdempotent(std::span<const SymLocOp> Body) {
  if (Body.empty())
    return false;
  Term X = usesArithmetic(Body) ? Term::intSym(EntrySym)
                                : Term::opaqueSym(EntrySym);
  std::optional<SymSeqEval> E1 = evalSymbolic(X, Body);
  if (!E1)
    return false;

  // Rename the body's parameters to fresh ids: successive repetitions
  // of a pattern carry *different* concrete operands, so idempotence
  // must hold with independent parameters (otherwise collapsing, e.g.,
  // W(p); W(p') to [W(p)]+ would be unsound).
  constexpr SymId FreshOffset = 1u << 20;
  SymLocSeq Renamed;
  Renamed.reserve(Body.size());
  for (const SymLocOp &Op : Body) {
    SymLocOp R = Op;
    if (Op.Kind != LocOpKind::Read)
      R.Operand = Op.Operand.mapSymbols([](SymId S) {
        return S == EntrySym ? S : S + FreshOffset;
      });
    Renamed.push_back(R);
  }

  std::optional<SymSeqEval> E2 = evalSymbolic(E1->Final, Renamed);
  if (!E2)
    return false;
  return E2->Final == E1->Final && E2->Reads == E1->Reads;
}

namespace {

/// A block canonicalized for pattern comparison: parameters renumbered
/// from 1 by first appearance, read references rebased to the block.
struct CanonicalBlock {
  SymLocSeq Body;
  /// LocalToOrig[j] is the original symbol behind local symbol j+1.
  std::vector<SymId> LocalToOrig;
};

std::optional<CanonicalBlock> canonicalizeBlock(std::span<const SymLocOp> Ops,
                                                uint32_t ReadBase) {
  CanonicalBlock Out;
  std::unordered_map<SymId, SymId> Map;
  SymId NextLocal = 1;
  uint32_t ReadsInBlock = 0;

  for (const SymLocOp &Op : Ops) {
    if (Op.Kind == LocOpKind::Read) {
      ++ReadsInBlock;
      Out.Body.push_back(SymLocOp::read());
      continue;
    }
    SymLocOp Canon = Op;
    if (Op.Operand.kind() == Term::Kind::ReadPlus) {
      uint32_t Idx = Op.Operand.readIndex();
      // The reference must target a read inside this block.
      if (Idx < ReadBase || Idx >= ReadBase + ReadsInBlock)
        return std::nullopt;
      Canon.Operand =
          Term::readPlus(Idx - ReadBase, Op.Operand.readOffset());
    } else {
      Canon.Operand = Op.Operand.mapSymbols([&](SymId S) {
        if (S == EntrySym)
          return S;
        auto It = Map.find(S);
        if (It != Map.end())
          return It->second;
        SymId Local = NextLocal++;
        Map.emplace(S, Local);
        Out.LocalToOrig.push_back(S);
        return Local;
      });
    }
    Out.Body.push_back(std::move(Canon));
  }
  return Out;
}

} // namespace

/// Semantic effect canonicalization applied before the Kleene collapse:
///
///  1. *Dead-write elimination*: a Write kills every immediately
///     preceding Write/Add — with no read in between, the overwritten
///     effects are unobservable by any CONFLICT check (neither SAMEREAD
///     nor COMMUTE can distinguish the sequences).
///  2. *Add-run merging*: every maximal run of adjacent Adds becomes a
///     single Add of a fresh parameter bound to the run's concrete
///     total. This generalizes the paper's Kleene treatment of balanced
///     add runs ({work+=x; work-=x;}+ becomes one add of total 0) and
///     additionally makes *unbalanced* reduction runs
///     length-independent.
///
/// Both rewrites only affect signatures and cached conditions; the raw
/// logs (used for replay and the write-set path) are untouched.
static SymbolizeResult canonicalizeEffects(const SymbolizeResult &S) {
  SymbolizeResult Out;
  // Find the first free parameter id for synthetic run totals.
  SymId NextSym = 1;
  for (const auto &[Sym, Val] : S.Binds) {
    (void)Val;
    NextSym = std::max(NextSym, Sym + 1);
  }
  Out.Binds = S.Binds;

  // Pass 1: dead-write elimination.
  SymLocSeq Live;
  Live.reserve(S.Seq.size());
  for (const SymLocOp &Op : S.Seq) {
    if (Op.Kind == LocOpKind::Write) {
      while (!Live.empty() && Live.back().Kind != LocOpKind::Read)
        Live.pop_back();
    }
    Live.push_back(Op);
  }

  // Pass 2: add-run merging.
  size_t I = 0, N = Live.size();
  while (I != N) {
    if (Live[I].Kind != LocOpKind::Add) {
      Out.Seq.push_back(Live[I]);
      ++I;
      continue;
    }
    int64_t Total = 0;
    bool Evaluable = true;
    size_t RunEnd = I;
    while (RunEnd != N && Live[RunEnd].Kind == LocOpKind::Add) {
      std::optional<Value> Delta = Live[RunEnd].Operand.evaluate(S.Binds);
      if (!Delta || !Delta->isInt()) {
        Evaluable = false;
        break;
      }
      Total += Delta->asInt();
      ++RunEnd;
    }
    if (!Evaluable || RunEnd == I + 1) {
      // Single add (or unevaluable): keep verbatim.
      Out.Seq.push_back(Live[I]);
      ++I;
      continue;
    }
    SymId Param = NextSym++;
    Out.Binds[Param] = Value::of(Total);
    Out.Seq.push_back(SymLocOp::add(Term::intSym(Param)));
    I = RunEnd;
  }
  return Out;
}

AbstractResult abstraction::abstractSequence(const SymbolizeResult &SIn,
                                             bool UseKleene) {
  // Effect canonicalization is part of the abstraction (§5.2); the
  // Figure 11 "without sequence abstraction" configuration must keep
  // concrete shapes, so it is gated together with the Kleene collapse.
  const SymbolizeResult S = UseKleene ? canonicalizeEffects(SIn) : SIn;
  const SymLocSeq &Ops = S.Seq;
  const size_t N = Ops.size();

  // Global read index of each op position (number of reads before it).
  std::vector<uint32_t> ReadsBefore(N + 1, 0);
  for (size_t I = 0; I != N; ++I)
    ReadsBefore[I + 1] =
        ReadsBefore[I] + (Ops[I].Kind == LocOpKind::Read ? 1 : 0);

  // Phase 1: collapse runs of idempotent blocks into groups.
  struct Elem {
    bool IsGroup = false;
    size_t OpIdx = 0;              ///< Single: original position.
    SymLocSeq Body;                ///< Group: canonical body.
    std::vector<SymId> LocalToOrig;///< Group: first repetition's params.
  };
  std::vector<Elem> Elems;
  Elems.reserve(N);
  for (size_t I = 0; I != N; ++I)
    Elems.push_back(Elem{false, I, {}, {}});

  // Read references across the sequence: (referencing op position,
  // referenced global read index). A block may only be collapsed when
  // none of its reads is referenced from outside the block — otherwise
  // grouping would leave a dangling reference (and, e.g., collapsing
  // the R of "R, W(read#0+1)" alone would destroy the push pattern).
  std::vector<std::pair<size_t, uint32_t>> Refs;
  for (size_t I = 0; I != N; ++I)
    if (Ops[I].Kind != LocOpKind::Read &&
        Ops[I].Operand.kind() == Term::Kind::ReadPlus)
      Refs.emplace_back(I, Ops[I].Operand.readIndex());
  auto ExternallyReferenced = [&Refs, &ReadsBefore](size_t OpStart,
                                                    size_t OpEnd) {
    uint32_t RLo = ReadsBefore[OpStart], RHi = ReadsBefore[OpEnd];
    for (const auto &[J, RIdx] : Refs)
      if ((J < OpStart || J >= OpEnd) && RIdx >= RLo && RIdx < RHi)
        return true;
    return false;
  };

  if (UseKleene) {
    auto CollapsePass = [&](size_t L, size_t MinReps) {
      std::vector<Elem> Next;
      size_t I = 0;
      auto WindowIsSingles = [&Elems](size_t Pos, size_t Len) {
        if (Pos + Len > Elems.size())
          return false;
        for (size_t J = 0; J != Len; ++J)
          if (Elems[Pos + J].IsGroup)
            return false;
        return true;
      };
      while (I < Elems.size()) {
        if (WindowIsSingles(I, L)) {
          size_t Start = Elems[I].OpIdx;
          auto CB = canonicalizeBlock(
              std::span<const SymLocOp>(&Ops[Start], L), ReadsBefore[Start]);
          if (CB && !ExternallyReferenced(Start, Start + L) &&
              isIdempotent(CB->Body)) {
            // Extend over adjacent pattern-equal repetitions.
            size_t Reps = 1;
            while (WindowIsSingles(I + Reps * L, L)) {
              size_t RepStart = Elems[I + Reps * L].OpIdx;
              auto CB2 = canonicalizeBlock(
                  std::span<const SymLocOp>(&Ops[RepStart], L),
                  ReadsBefore[RepStart]);
              if (!CB2 || CB2->Body != CB->Body ||
                  ExternallyReferenced(RepStart, RepStart + L))
                break;
              ++Reps;
            }
            if (Reps >= MinReps) {
              Next.push_back(Elem{true, Start, std::move(CB->Body),
                                  std::move(CB->LocalToOrig)});
              I += Reps * L;
              continue;
            }
          }
        }
        Next.push_back(Elems[I]);
        ++I;
      }
      Elems = std::move(Next);
    };

    // Pass A: collapse *repeating* idempotent bodies, smallest body
    // first — this discovers the dominant repetition structure (e.g.
    // the per-child push/pop blocks).
    for (size_t L = 1; L <= MaxBodyLen; ++L)
      CollapsePass(L, /*MinReps=*/2);
    // Pass B: normalize remaining single occurrences into groups,
    // largest body first, so a 1-repetition instance gets the same
    // signature as its k-repetition siblings whenever possible.
    for (size_t L = MaxBodyLen; L >= 1; --L)
      CollapsePass(L, /*MinReps=*/1);
  }

  // Phase 2: canonical renumbering and binding extraction.
  AbstractResult Out;
  std::unordered_map<SymId, SymId> GlobalMap;
  SymId NextGlobal = 1;

  // Ungrouped reads get compact ordinals; references into grouped reads
  // force a bail-out to the unabstracted form (their positions depend
  // on repetition counts).
  std::unordered_map<uint32_t, uint32_t> UngroupedReadOrd;
  {
    uint32_t Ord = 0;
    for (const Elem &E : Elems)
      if (!E.IsGroup && Ops[E.OpIdx].Kind == LocOpKind::Read)
        UngroupedReadOrd[ReadsBefore[E.OpIdx]] = Ord++;
  }

  auto RemapGlobal = [&](SymId S) {
    if (S == EntrySym)
      return S;
    auto It = GlobalMap.find(S);
    if (It != GlobalMap.end())
      return It->second;
    SymId G = NextGlobal++;
    GlobalMap.emplace(S, G);
    return G;
  };

  for (const Elem &E : Elems) {
    if (!E.IsGroup) {
      SymLocOp Op = Ops[E.OpIdx];
      if (Op.Kind != LocOpKind::Read) {
        if (Op.Operand.kind() == Term::Kind::ReadPlus) {
          auto It = UngroupedReadOrd.find(Op.Operand.readIndex());
          if (It == UngroupedReadOrd.end()) {
            JANUS_ASSERT(UseKleene, "dangling read reference");
            return abstractSequence(S, /*UseKleene=*/false);
          }
          Op.Operand =
              Term::readPlus(It->second, Op.Operand.readOffset());
        } else {
          Op.Operand = Op.Operand.mapSymbols(RemapGlobal);
        }
      }
      Out.Seq.Elems.push_back(AbstractElem{false, Op, {}});
      continue;
    }

    // Group: fresh global ids for the body's local params, bound to the
    // first repetition's concrete values.
    std::unordered_map<SymId, SymId> LocalMap;
    SymLocSeq Body;
    Body.reserve(E.Body.size());
    for (const SymLocOp &BOp : E.Body) {
      SymLocOp Op = BOp;
      if (Op.Kind != LocOpKind::Read &&
          Op.Operand.kind() != Term::Kind::ReadPlus) {
        Op.Operand = Op.Operand.mapSymbols([&](SymId Local) {
          if (Local == EntrySym)
            return Local;
          auto It = LocalMap.find(Local);
          if (It != LocalMap.end())
            return It->second;
          SymId G = NextGlobal++;
          LocalMap.emplace(Local, G);
          Out.GroupParams.insert(G);
          JANUS_ASSERT(Local - 1 < E.LocalToOrig.size(),
                       "local symbol without origin");
          auto BindIt = S.Binds.find(E.LocalToOrig[Local - 1]);
          if (BindIt != S.Binds.end())
            Out.Binds[G] = BindIt->second;
          return G;
        });
      }
      Body.push_back(std::move(Op));
    }
    Out.Seq.Elems.push_back(AbstractElem{true, {}, std::move(Body)});
  }

  // Bindings for ungrouped params.
  for (const auto &[Orig, Global] : GlobalMap) {
    auto It = S.Binds.find(Orig);
    if (It != S.Binds.end())
      Out.Binds[Global] = It->second;
  }
  return Out;
}
