#include "janus/sat/PropFormula.h"

#include <algorithm>

using namespace janus;
using namespace janus::sat;

Formula FormulaArena::intern(Node N) {
  uint64_t Key = (static_cast<uint64_t>(N.Conn) << 56) ^
                 (static_cast<uint64_t>(N.A) << 40) ^
                 (static_cast<uint64_t>(N.L) << 20) ^ N.R;
  auto &Bucket = Dedup[Key];
  for (uint32_t Idx : Bucket) {
    const Node &M = Nodes[Idx];
    if (M.Conn == N.Conn && M.A == N.A && M.L == N.L && M.R == N.R)
      return Formula{Idx};
  }
  uint32_t Idx = static_cast<uint32_t>(Nodes.size());
  Nodes.push_back(N);
  Bucket.push_back(Idx);
  return Formula{Idx};
}

Formula FormulaArena::mkTrue() { return intern(Node{Connective::True}); }
Formula FormulaArena::mkFalse() { return intern(Node{Connective::False}); }

Formula FormulaArena::mkAtom(uint32_t AtomId) {
  Node N{Connective::Atom};
  N.A = AtomId;
  return intern(N);
}

Formula FormulaArena::mkNot(Formula F) {
  switch (connective(F)) {
  case Connective::True:
    return mkFalse();
  case Connective::False:
    return mkTrue();
  case Connective::Not:
    return lhs(F);
  default:
    break;
  }
  Node N{Connective::Not};
  N.L = F.Node;
  return intern(N);
}

Formula FormulaArena::mkAnd(Formula F, Formula G) {
  if (connective(F) == Connective::False ||
      connective(G) == Connective::False)
    return mkFalse();
  if (connective(F) == Connective::True)
    return G;
  if (connective(G) == Connective::True)
    return F;
  if (F == G)
    return F;
  if (F.Node > G.Node)
    std::swap(F, G); // Canonical operand order improves sharing.
  Node N{Connective::And};
  N.L = F.Node;
  N.R = G.Node;
  return intern(N);
}

Formula FormulaArena::mkOr(Formula F, Formula G) {
  if (connective(F) == Connective::True || connective(G) == Connective::True)
    return mkTrue();
  if (connective(F) == Connective::False)
    return G;
  if (connective(G) == Connective::False)
    return F;
  if (F == G)
    return F;
  if (F.Node > G.Node)
    std::swap(F, G);
  Node N{Connective::Or};
  N.L = F.Node;
  N.R = G.Node;
  return intern(N);
}

Formula FormulaArena::mkIff(Formula F, Formula G) {
  if (F == G)
    return mkTrue();
  if (connective(F) == Connective::True)
    return G;
  if (connective(G) == Connective::True)
    return F;
  if (connective(F) == Connective::False)
    return mkNot(G);
  if (connective(G) == Connective::False)
    return mkNot(F);
  if (F.Node > G.Node)
    std::swap(F, G);
  Node N{Connective::Iff};
  N.L = F.Node;
  N.R = G.Node;
  return intern(N);
}

Formula FormulaArena::mkAndAll(const std::vector<Formula> &Fs) {
  Formula Acc = mkTrue();
  for (Formula F : Fs)
    Acc = mkAnd(Acc, F);
  return Acc;
}

Formula FormulaArena::mkOrAll(const std::vector<Formula> &Fs) {
  Formula Acc = mkFalse();
  for (Formula F : Fs)
    Acc = mkOr(Acc, F);
  return Acc;
}

void FormulaArena::collectAtoms(Formula F, std::vector<uint32_t> &Out) const {
  std::vector<uint32_t> Work{F.Node};
  std::vector<bool> Visited(Nodes.size(), false);
  while (!Work.empty()) {
    uint32_t Idx = Work.back();
    Work.pop_back();
    if (Idx == ~0u || Visited[Idx])
      continue;
    Visited[Idx] = true;
    const Node &N = Nodes[Idx];
    if (N.Conn == Connective::Atom) {
      if (std::find(Out.begin(), Out.end(), N.A) == Out.end())
        Out.push_back(N.A);
      continue;
    }
    Work.push_back(N.L);
    Work.push_back(N.R);
  }
}

std::string
FormulaArena::toString(Formula F,
                       const std::vector<std::string> &AtomNames) const {
  const Node &N = Nodes[F.Node];
  // Built by appending into one string: GCC 12 at -O3 raises a false
  // -Wrestrict for `"literal" + std::string`.
  auto Binary = [&](const char *Op) {
    std::string Out = "(";
    Out += toString(Formula{N.L}, AtomNames);
    Out += Op;
    Out += toString(Formula{N.R}, AtomNames);
    Out += ')';
    return Out;
  };
  switch (N.Conn) {
  case Connective::True:
    return "true";
  case Connective::False:
    return "false";
  case Connective::Atom: {
    if (N.A < AtomNames.size())
      return AtomNames[N.A];
    std::string Out = "a";
    Out += std::to_string(N.A);
    return Out;
  }
  case Connective::Not: {
    std::string Out = "!";
    Out += toString(Formula{N.L}, AtomNames);
    return Out;
  }
  case Connective::And:
    return Binary(" & ");
  case Connective::Or:
    return Binary(" | ");
  case Connective::Iff:
    return Binary(" <-> ");
  }
  janusUnreachable("invalid connective");
}

bool FormulaArena::evaluate(Formula F,
                            const std::vector<bool> &AtomValues) const {
  const Node &N = Nodes[F.Node];
  switch (N.Conn) {
  case Connective::True:
    return true;
  case Connective::False:
    return false;
  case Connective::Atom:
    JANUS_ASSERT(N.A < AtomValues.size(), "atom value missing");
    return AtomValues[N.A];
  case Connective::Not:
    return !evaluate(Formula{N.L}, AtomValues);
  case Connective::And:
    return evaluate(Formula{N.L}, AtomValues) &&
           evaluate(Formula{N.R}, AtomValues);
  case Connective::Or:
    return evaluate(Formula{N.L}, AtomValues) ||
           evaluate(Formula{N.R}, AtomValues);
  case Connective::Iff:
    return evaluate(Formula{N.L}, AtomValues) ==
           evaluate(Formula{N.R}, AtomValues);
  }
  janusUnreachable("invalid connective");
}

Var Tseitin::atomVar(uint32_t AtomId) {
  auto It = AtomVars.find(AtomId);
  if (It != AtomVars.end())
    return It->second;
  Var V = S.newVar();
  AtomVars.emplace(AtomId, V);
  return V;
}

Lit Tseitin::encode(Formula F) {
  auto Memo = NodeLits.find(F.Node);
  if (Memo != NodeLits.end())
    return Memo->second;

  Lit Result;
  switch (Arena.connective(F)) {
  case Connective::True: {
    Var V = S.newVar();
    S.addUnit(Lit::pos(V));
    Result = Lit::pos(V);
    break;
  }
  case Connective::False: {
    Var V = S.newVar();
    S.addUnit(Lit::neg(V));
    Result = Lit::pos(V);
    break;
  }
  case Connective::Atom:
    Result = Lit::pos(atomVar(Arena.atomId(F)));
    break;
  case Connective::Not:
    Result = ~encode(Arena.lhs(F));
    break;
  case Connective::And: {
    Lit A = encode(Arena.lhs(F)), B = encode(Arena.rhs(F));
    Lit X = Lit::pos(S.newVar());
    S.addBinary(~X, A);
    S.addBinary(~X, B);
    S.addTernary(X, ~A, ~B);
    Result = X;
    break;
  }
  case Connective::Or: {
    Lit A = encode(Arena.lhs(F)), B = encode(Arena.rhs(F));
    Lit X = Lit::pos(S.newVar());
    S.addTernary(~X, A, B);
    S.addBinary(X, ~A);
    S.addBinary(X, ~B);
    Result = X;
    break;
  }
  case Connective::Iff: {
    Lit A = encode(Arena.lhs(F)), B = encode(Arena.rhs(F));
    Lit X = Lit::pos(S.newVar());
    S.addTernary(~X, ~A, B);
    S.addTernary(~X, A, ~B);
    S.addTernary(X, ~A, ~B);
    S.addTernary(X, A, B);
    Result = X;
    break;
  }
  }
  NodeLits.emplace(F.Node, Result);
  return Result;
}

Equivalence sat::checkEquivalent(FormulaArena &Arena, Formula F, Formula G,
                                 const std::vector<Formula> &Axioms,
                                 uint64_t ConflictBudget) {
  Solver S;
  Tseitin T(Arena, S);
  for (Formula Ax : Axioms)
    T.assertFormula(Ax);
  T.assertFormula(Arena.mkNot(Arena.mkIff(F, G)));
  switch (S.solve(ConflictBudget)) {
  case SolveResult::Unsat:
    return Equivalence::Equivalent;
  case SolveResult::Sat:
    return Equivalence::Inequivalent;
  case SolveResult::Unknown:
    return Equivalence::Unknown;
  }
  janusUnreachable("invalid solve result");
}
