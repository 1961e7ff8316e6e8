//===----------------------------------------------------------------------===//
///
/// \file
/// The bounded-exhaustive soundness/precision core (Verify.h).
///
/// A per-location sequence pair's joint behaviour is a pure function of
/// the entry value V0 and the operand parameter values, so enumerating
/// a small scope of those inputs and replaying both execution orders
/// under the concrete reference semantics decides, for every enumerated
/// state, whether Figure 8's checks actually hold — the differencing-
/// abstraction reduction of commutativity verification to (bounded)
/// reachability. Soundness requires every state the cached condition
/// admits to pass; the admitted/commuting ratio is the precision score.
///
//===----------------------------------------------------------------------===//

#include "janus/verify/Verify.h"

#include "janus/verify/RelationalCheck.h"

#include <algorithm>

using namespace janus;
using namespace janus::verify;
using namespace janus::symbolic;

const char *verify::verdictName(Verdict V) {
  switch (V) {
  case Verdict::Sound:
    return "sound";
  case Verdict::Unsound:
    return "UNSOUND";
  case Verdict::Unsupported:
    return "unsupported";
  }
  janusUnreachable("invalid Verdict");
}

namespace {

/// Mirrors commutativityCondition's entry-type rule: the entry value is
/// numeric when either sequence does arithmetic on the location.
bool usesArithmetic(const SymLocSeq &Seq) {
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

/// Classifies every parameter symbol of \p Seq as numeric (appears in a
/// linear term) or opaque. \returns false on an inconsistent symbol
/// (used both ways — nothing the symbolizer emits).
bool classifySymbols(const SymLocSeq &Seq, std::map<SymId, bool> &Numeric) {
  for (const SymLocOp &Op : Seq) {
    if (Op.Kind == LocOpKind::Read)
      continue;
    const Term &T = Op.Operand;
    std::map<SymId, bool> Syms;
    T.collectSymbols(Syms);
    bool IsNumeric = T.kind() == Term::Kind::Lin;
    for (const auto &[S, Seen] : Syms) {
      (void)Seen;
      if (S == EntrySym)
        continue;
      auto [It, Inserted] = Numeric.try_emplace(S, IsNumeric);
      if (!Inserted && It->second != IsNumeric)
        return false;
    }
  }
  return true;
}

/// Classifies the symbols a condition mentions. Symbols not bound by
/// either sequence still need a domain (conditions may mention V0 only,
/// which the caller adds separately).
bool classifyCondition(const Condition &Cond, std::map<SymId, bool> &Numeric) {
  if (!Cond.isConditional())
    return true;
  for (const EqAtom &A : Cond.atoms()) {
    for (const Term *T : {&A.L, &A.R}) {
      std::map<SymId, bool> Syms;
      T->collectSymbols(Syms);
      bool IsNumeric = T->kind() == Term::Kind::Lin;
      for (const auto &[S, Seen] : Syms) {
        (void)Seen;
        if (S == EntrySym)
          continue;
        auto [It, Inserted] = Numeric.try_emplace(S, IsNumeric);
        if (!Inserted && It->second != IsNumeric)
          return false;
      }
    }
  }
  return true;
}

/// Concrete replay of a symbolic sequence under \p B (which must bind
/// every parameter; V0 is folded into \p Entry). \returns nullopt when
/// the point is untypable (e.g. a read reference over a non-integer).
std::optional<SeqEval> evalConcrete(const Value &Entry, const SymLocSeq &Seq,
                                    const Bindings &B) {
  SeqEval Out{Entry, {}};
  for (const SymLocOp &Op : Seq) {
    if (Op.Kind == LocOpKind::Read) {
      Out.Reads.push_back(Out.Final);
      continue;
    }
    Value Operand;
    if (Op.Operand.kind() == Term::Kind::ReadPlus) {
      uint32_t Idx = Op.Operand.readIndex();
      if (Idx >= Out.Reads.size() || !Out.Reads[Idx].isInt())
        return std::nullopt;
      Operand = Value::of(Out.Reads[Idx].asInt() + Op.Operand.readOffset());
    } else {
      std::optional<Value> V = Op.Operand.evaluate(B);
      if (!V)
        return std::nullopt;
      Operand = std::move(*V);
    }
    if (Op.Kind == LocOpKind::Write) {
      Out.Final = std::move(Operand);
    } else { // Add
      if (!Operand.isInt() || (!Out.Final.isAbsent() && !Out.Final.isInt()))
        return std::nullopt;
      int64_t Base = Out.Final.isAbsent() ? 0 : Out.Final.asInt();
      Out.Final = Value::of(Base + Operand.asInt());
    }
  }
  return Out;
}

/// Materializes the concrete LocOpSeq a symbolic sequence denotes under
/// the counterexample bindings (for the independent SAT engine, which
/// consumes concrete sequences). Read results are filled by replay from
/// \p Entry.
std::optional<LocOpSeq> concretize(const Value &Entry, const SymLocSeq &Seq,
                                   const Bindings &B) {
  LocOpSeq Out;
  Value Cur = Entry;
  std::vector<Value> Reads;
  for (const SymLocOp &Op : Seq) {
    if (Op.Kind == LocOpKind::Read) {
      Reads.push_back(Cur);
      Out.push_back(LocOp::read(Cur));
      continue;
    }
    Value Operand;
    if (Op.Operand.kind() == Term::Kind::ReadPlus) {
      uint32_t Idx = Op.Operand.readIndex();
      if (Idx >= Reads.size() || !Reads[Idx].isInt())
        return std::nullopt;
      Operand = Value::of(Reads[Idx].asInt() + Op.Operand.readOffset());
    } else {
      std::optional<Value> V = Op.Operand.evaluate(B);
      if (!V)
        return std::nullopt;
      Operand = std::move(*V);
    }
    if (Op.Kind == LocOpKind::Write) {
      Out.push_back(LocOp::write(Operand));
      Cur = Operand;
    } else {
      if (!Operand.isInt())
        return std::nullopt;
      Out.push_back(LocOp::add(Operand.asInt()));
      int64_t Base = Cur.isAbsent() ? 0 : Cur.isInt() ? Cur.asInt() : 0;
      Cur = Value::of(Base + Operand.asInt());
    }
  }
  return Out;
}

std::string renderBindings(const Value &Entry, const Bindings &B) {
  std::string Out = "v0=" + Entry.toString();
  for (const auto &[S, V] : B) {
    if (S == EntrySym)
      continue;
    bool Theirs = S >= conflict::TheirParamOffset;
    SymId Local = Theirs ? S - conflict::TheirParamOffset : S;
    Out += ", ";
    if (Theirs)
      Out += "theirs.";
    Out += 'p';
    Out += std::to_string(Local);
    Out += '=';
    Out += V.toString();
  }
  return Out;
}

} // namespace

PairResult verify::checkPair(const SymLocSeq &Mine, const SymLocSeq &Theirs,
                             const Condition &Cond, ChecksSpec Checks,
                             const VerifyConfig &Config) {
  PairResult R;

  std::map<SymId, bool> Numeric; // Symbol -> is integer-valued.
  if (!classifySymbols(Mine, Numeric) || !classifySymbols(Theirs, Numeric) ||
      !classifyCondition(Cond, Numeric)) {
    R.V = Verdict::Unsupported;
    R.Note = "symbol used both numerically and opaquely";
    return R;
  }

  bool NumericV0 = usesArithmetic(Mine) || usesArithmetic(Theirs);

  // Build the enumeration domains, V0 first, parameters in id order.
  std::vector<Value> IntDomain, OpaqueDomain, V0Domain;
  for (int64_t I = -Config.IntScope; I <= Config.IntScope; ++I)
    IntDomain.push_back(Value::of(I));
  for (unsigned I = 0; I != std::max(1u, Config.OpaqueTokens); ++I)
    OpaqueDomain.push_back(Value::of("tok" + std::to_string(I)));
  // The entry state additionally ranges over Absent: a location no task
  // wrote yet is the common initial state, and conditions that cannot
  // evaluate there must fall back rather than admit.
  V0Domain.push_back(Value::absent());
  for (const Value &V : NumericV0 ? IntDomain : OpaqueDomain)
    V0Domain.push_back(V);

  std::vector<SymId> Params;
  std::vector<const std::vector<Value> *> Domains;
  Domains.push_back(&V0Domain);
  for (const auto &[S, IsNumeric] : Numeric) {
    Params.push_back(S);
    Domains.push_back(IsNumeric ? &IntDomain : &OpaqueDomain);
  }

  // Mixed-radix enumeration, deterministic order, capped at MaxPoints.
  std::vector<size_t> Idx(Domains.size(), 0);
  bool Done = false;
  while (!Done && R.PointsChecked < Config.MaxPoints) {
    Value Entry = (*Domains[0])[Idx[0]];
    Bindings B;
    B[EntrySym] = Entry;
    for (size_t I = 0; I != Params.size(); ++I)
      B[Params[I]] = (*Domains[I + 1])[Idx[I + 1]];

    std::optional<SeqEval> AloneA = evalConcrete(Entry, Mine, B);
    std::optional<SeqEval> AloneB = evalConcrete(Entry, Theirs, B);
    std::optional<SeqEval> BAfterA, AAfterB;
    if (AloneA && AloneB) {
      BAfterA = evalConcrete(AloneA->Final, Theirs, B);
      AAfterB = evalConcrete(AloneB->Final, Mine, B);
    }
    if (BAfterA && AAfterB) {
      ++R.PointsChecked;

      std::string Failed;
      if (Checks.Commute && BAfterA->Final != AAfterB->Final)
        Failed = "COMMUTE";
      else if (Checks.SameReadA && AloneA->Reads != AAfterB->Reads)
        Failed = "SAMEREAD(mine)";
      else if (Checks.SameReadB && AloneB->Reads != BAfterA->Reads)
        Failed = "SAMEREAD(theirs)";
      bool Commutes = Failed.empty();

      // nullopt (condition cannot evaluate here) is "not established":
      // production falls back conservatively, so the point is safe.
      bool Admitted = Cond.evaluate(B).value_or(false);

      if (Commutes)
        ++R.CommutingPoints;
      if (Admitted) {
        ++R.AdmittedPoints;
        if (Commutes)
          ++R.AdmittedCommuting;
      }

      if (Admitted && !Commutes && R.V != Verdict::Unsound) {
        R.V = Verdict::Unsound;
        Counterexample Cex;
        Cex.Entry = Entry;
        Cex.Binds = B;
        Cex.FailedCheck = Failed;
        Cex.Text = renderBindings(Entry, B) + " fails " + Failed +
                   ": mine-then-theirs leaves " +
                   BAfterA->Final.toString() + ", theirs-then-mine leaves " +
                   AAfterB->Final.toString();
        R.Cex = std::move(Cex);
      }
    }

    // Advance the mixed-radix counter.
    for (size_t I = Idx.size();; --I) {
      if (I == 0) {
        Done = true;
        break;
      }
      if (++Idx[I - 1] < Domains[I - 1]->size())
        break;
      Idx[I - 1] = 0;
    }
  }

  if (R.V == Verdict::Sound && R.PointsChecked == 0) {
    R.V = Verdict::Unsupported;
    R.Note = "no enumerable input state (untypable sequences)";
    return R;
  }

  // Cross-confirm a COMMUTE conviction through the independent
  // relational/SAT engine (it checks state effects only, so SAMEREAD
  // convictions are outside its reach).
  if (R.V == Verdict::Unsound && Config.UseSat &&
      R.Cex->FailedCheck == "COMMUTE") {
    std::optional<LocOpSeq> A = concretize(R.Cex->Entry, Mine, R.Cex->Binds);
    std::optional<LocOpSeq> B =
        concretize(R.Cex->Entry, Theirs, R.Cex->Binds);
    if (A && B) {
      std::optional<bool> Sat =
          commuteViaSat(R.Cex->Entry, *A, *B, Config.SatConflictBudget);
      R.SatConfirmed = Sat && !*Sat;
    }
  }

  return R;
}
