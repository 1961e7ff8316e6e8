#include "janus/relational/Relation.h"

#include <algorithm>

using namespace janus;
using namespace janus::relational;

Schema::Schema(std::vector<std::string> Columns)
    : Columns(std::move(Columns)) {}

Schema::Schema(std::vector<std::string> Cols, std::vector<uint32_t> DomainCols)
    : Columns(std::move(Cols)), FDDomain(std::move(DomainCols)) {
  for (uint32_t I = 0, E = static_cast<uint32_t>(Columns.size()); I != E; ++I)
    if (std::find(FDDomain.begin(), FDDomain.end(), I) == FDDomain.end())
      FDRange.push_back(I);
  JANUS_ASSERT(!FDDomain.empty(), "FD domain must be non-empty");
  for (uint32_t C : FDDomain)
    JANUS_ASSERT(C < Columns.size(), "FD domain column out of range");
}

uint32_t Schema::columnIndex(const std::string &Name) const {
  for (uint32_t I = 0, E = static_cast<uint32_t>(Columns.size()); I != E; ++I)
    if (Columns[I] == Name)
      return I;
  janusFatalError("unknown column name");
}

std::string Tuple::toString() const {
  std::string Out = "(";
  for (size_t I = 0, E = Fields.size(); I != E; ++I) {
    if (I)
      Out += ", ";
    Out += Fields[I].toString();
  }
  return Out + ")";
}

TupleFormula TupleFormula::mkTrue() {
  auto N = std::make_shared<NodeData>();
  N->K = Kind::True;
  return TupleFormula(std::move(N));
}

TupleFormula TupleFormula::mkFalse() {
  auto N = std::make_shared<NodeData>();
  N->K = Kind::False;
  return TupleFormula(std::move(N));
}

TupleFormula TupleFormula::mkEq(uint32_t Col, Value V) {
  auto N = std::make_shared<NodeData>();
  N->K = Kind::Eq;
  N->Col = Col;
  N->V = std::move(V);
  return TupleFormula(std::move(N));
}

TupleFormula TupleFormula::mkNot(TupleFormula F) {
  auto N = std::make_shared<NodeData>();
  N->K = Kind::Not;
  N->L = std::move(F.Node);
  return TupleFormula(std::move(N));
}

TupleFormula TupleFormula::mkAnd(TupleFormula A, TupleFormula B) {
  auto N = std::make_shared<NodeData>();
  N->K = Kind::And;
  N->L = std::move(A.Node);
  N->R = std::move(B.Node);
  return TupleFormula(std::move(N));
}

TupleFormula TupleFormula::mkOr(TupleFormula A, TupleFormula B) {
  auto N = std::make_shared<NodeData>();
  N->K = Kind::Or;
  N->L = std::move(A.Node);
  N->R = std::move(B.Node);
  return TupleFormula(std::move(N));
}

bool TupleFormula::satisfiedBy(const Tuple &T) const {
  switch (kind()) {
  case Kind::True:
    return true;
  case Kind::False:
    return false;
  case Kind::Eq:
    return T.at(Node->Col) == Node->V;
  case Kind::Not:
    return !lhs().satisfiedBy(T);
  case Kind::And:
    return lhs().satisfiedBy(T) && rhs().satisfiedBy(T);
  case Kind::Or:
    return lhs().satisfiedBy(T) || rhs().satisfiedBy(T);
  }
  janusUnreachable("invalid TupleFormula kind");
}

std::string TupleFormula::toString(const Schema &S) const {
  switch (kind()) {
  case Kind::True:
    return "true";
  case Kind::False:
    return "false";
  case Kind::Eq:
    return S.columnName(Node->Col) + " = " + Node->V.toString();
  case Kind::Not: {
    std::string Out = "!(";
    Out += lhs().toString(S);
    Out += ')';
    return Out;
  }
  case Kind::And:
  case Kind::Or: {
    std::string Out = "(";
    Out += lhs().toString(S);
    Out += kind() == Kind::And ? " & " : " | ";
    Out += rhs().toString(S);
    Out += ')';
    return Out;
  }
  }
  janusUnreachable("invalid TupleFormula kind");
}

bool Relation::tuplesMatch(const Tuple &A, const Tuple &B) const {
  JANUS_ASSERT(A.size() == Sch->numColumns() && B.size() == Sch->numColumns(),
               "tuple arity mismatch");
  if (Sch->hasFD()) {
    for (uint32_t C : Sch->fdDomain())
      if (A.at(C) != B.at(C))
        return false;
    return true;
  }
  return A == B;
}

std::vector<Tuple> Relation::matchingTuples(const Tuple &T) const {
  std::vector<Tuple> Out;
  for (const Tuple &U : Tuples)
    if (tuplesMatch(U, T))
      Out.push_back(U);
  return Out;
}

Relation Relation::insert(const Tuple &T) const {
  JANUS_ASSERT(T.size() == Sch->numColumns(), "tuple arity mismatch");
  Relation Out(Sch);
  for (const Tuple &U : Tuples)
    if (!tuplesMatch(U, T))
      Out.Tuples.insert(U);
  Out.Tuples.insert(T);
  return Out;
}

Relation Relation::remove(const Tuple &T) const {
  JANUS_ASSERT(T.size() == Sch->numColumns(), "tuple arity mismatch");
  Relation Out(Sch);
  Out.Tuples = Tuples;
  Out.Tuples.erase(T);
  return Out;
}

Relation Relation::select(const TupleFormula &F) const {
  Relation Out(Sch);
  for (const Tuple &U : Tuples)
    if (F.satisfiedBy(U))
      Out.Tuples.insert(U);
  return Out;
}

Relation Relation::unionWith(const Relation &Other) const {
  Relation Out(Sch);
  Out.Tuples = Tuples;
  Out.Tuples.insert(Other.Tuples.begin(), Other.Tuples.end());
  return Out;
}

Relation Relation::intersectWith(const Relation &Other) const {
  Relation Out(Sch);
  for (const Tuple &U : Tuples)
    if (Other.Tuples.count(U))
      Out.Tuples.insert(U);
  return Out;
}

Relation Relation::subtract(const Relation &Other) const {
  Relation Out(Sch);
  for (const Tuple &U : Tuples)
    if (!Other.Tuples.count(U))
      Out.Tuples.insert(U);
  return Out;
}

std::string Relation::toString() const {
  std::string Out = "{";
  bool First = true;
  for (const Tuple &U : Tuples) {
    if (!First)
      Out += ", ";
    First = false;
    Out += U.toString();
  }
  return Out + "}";
}
