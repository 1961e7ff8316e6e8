#include "janus/symbolic/Term.h"

using namespace janus;
using namespace janus::symbolic;

Term Term::constant(Value V) {
  Term T;
  if (V.isInt()) {
    // Canonicalize integer constants as linear terms so arithmetic and
    // equality reasoning treat 3 and (Lin 3) identically.
    T.K = Kind::Lin;
    T.Base = V.asInt();
    return T;
  }
  T.K = Kind::Const;
  T.ConstVal = std::move(V);
  return T;
}

Term Term::intSym(SymId S) {
  Term T;
  T.K = Kind::Lin;
  T.Coefs[S] = 1;
  return T;
}

Term Term::opaqueSym(SymId S) {
  Term T;
  T.K = Kind::Opaque;
  T.Opaque = S;
  return T;
}

Term Term::readPlus(uint32_t ReadIdx, int64_t Offset) {
  Term T;
  T.K = Kind::ReadPlus;
  T.ReadIdx = ReadIdx;
  T.Base = Offset;
  return T;
}

std::optional<Term> Term::plusConst(int64_t C) const {
  if (C == 0)
    return *this;
  switch (K) {
  case Kind::Lin: {
    Term T = *this;
    T.Base += C;
    return T;
  }
  case Kind::ReadPlus: {
    Term T = *this;
    T.Base += C;
    return T;
  }
  case Kind::Const:
  case Kind::Opaque:
    return std::nullopt;
  }
  janusUnreachable("invalid Term kind");
}

std::optional<Term> Term::add(const Term &A, const Term &B) {
  if (A.K != Kind::Lin || B.K != Kind::Lin)
    return std::nullopt;
  Term T = A;
  T.Base += B.Base;
  for (const auto &[S, C] : B.Coefs) {
    T.Coefs[S] += C;
    if (T.Coefs[S] == 0)
      T.Coefs.erase(S);
  }
  return T;
}

std::optional<Term> Term::negated() const {
  if (K != Kind::Lin)
    return std::nullopt;
  Term T = *this;
  T.Base = -T.Base;
  for (auto &[S, C] : T.Coefs)
    C = -C;
  return T;
}

std::optional<bool> Term::staticallyEqual(const Term &A, const Term &B) {
  JANUS_ASSERT(A.K != Kind::ReadPlus && B.K != Kind::ReadPlus,
               "read references must be resolved before comparison");
  if (A.K == Kind::Lin && B.K == Kind::Lin) {
    if (A.Coefs == B.Coefs)
      return A.Base == B.Base;
    return std::nullopt; // Depends on symbol values.
  }
  if (A.K == Kind::Const && B.K == Kind::Const)
    return A.ConstVal == B.ConstVal;
  if (A.K == Kind::Opaque && B.K == Kind::Opaque) {
    if (A.Opaque == B.Opaque)
      return true;
    return std::nullopt;
  }
  // Mixed kinds: a non-integer constant can never equal an integer
  // expression; every other combination depends on the bindings.
  if ((A.K == Kind::Const && B.K == Kind::Lin) ||
      (A.K == Kind::Lin && B.K == Kind::Const))
    return false;
  return std::nullopt;
}

std::optional<Value> Term::evaluate(const Bindings &B) const {
  switch (K) {
  case Kind::Const:
    return ConstVal;
  case Kind::Lin: {
    int64_t Acc = Base;
    for (const auto &[S, C] : Coefs) {
      auto It = B.find(S);
      if (It == B.end() || !It->second.isInt())
        return std::nullopt;
      Acc += C * It->second.asInt();
    }
    return Value::of(Acc);
  }
  case Kind::Opaque: {
    auto It = B.find(Opaque);
    if (It == B.end())
      return std::nullopt;
    return It->second;
  }
  case Kind::ReadPlus:
    return std::nullopt; // Must be resolved against a read trace first.
  }
  janusUnreachable("invalid Term kind");
}

void Term::collectSymbols(std::map<SymId, bool> &Out) const {
  switch (K) {
  case Kind::Const:
  case Kind::ReadPlus:
    return;
  case Kind::Lin:
    for (const auto &[S, C] : Coefs) {
      (void)C;
      Out[S] = true;
    }
    return;
  case Kind::Opaque:
    Out[Opaque] = true;
    return;
  }
}

Term Term::mapSymbols(const std::function<SymId(SymId)> &Map) const {
  switch (K) {
  case Kind::Const:
  case Kind::ReadPlus:
    return *this;
  case Kind::Opaque: {
    Term T = *this;
    T.Opaque = Map(Opaque);
    return T;
  }
  case Kind::Lin: {
    Term T = *this;
    T.Coefs.clear();
    for (const auto &[S, C] : Coefs)
      T.Coefs[Map(S)] += C;
    return T;
  }
  }
  janusUnreachable("invalid Term kind");
}

// The printers below append into one string rather than chaining
// `"literal" + std::string`, for which GCC 12 at -O3 raises a false
// -Wrestrict.
std::string Term::toString() const {
  switch (K) {
  case Kind::Const:
    return ConstVal.toString();
  case Kind::Opaque: {
    std::string Out = "q";
    Out += std::to_string(Opaque);
    return Out;
  }
  case Kind::ReadPlus: {
    std::string Out = "read#";
    Out += std::to_string(ReadIdx);
    if (Base > 0)
      Out += '+';
    if (Base != 0)
      Out += std::to_string(Base);
    return Out;
  }
  case Kind::Lin: {
    std::string Out;
    for (const auto &[S, C] : Coefs) {
      // The first term carries its own sign; later ones are joined by
      // " + " or " - " and print their magnitude.
      int64_t Shown = C;
      if (!Out.empty()) {
        Out += C > 0 ? " + " : " - ";
        Shown = C > 0 ? C : -C;
      } else if (C == -1) {
        Out += '-';
      }
      if (C != 1 && C != -1) {
        Out += std::to_string(Shown);
        Out += '*';
      }
      if (S == EntrySym) {
        Out += "v0";
      } else {
        Out += 'p';
        Out += std::to_string(S);
      }
    }
    if (Out.empty())
      return std::to_string(Base);
    if (Base != 0) {
      Out += Base > 0 ? " + " : " - ";
      Out += std::to_string(Base > 0 ? Base : -Base);
    }
    return Out;
  }
  }
  janusUnreachable("invalid Term kind");
}

// ---------------------------------------------------------------------------
// Serialization. Token grammar (space-separated, single line):
//   value  := 'A' | 'U' | 'B0' | 'B1' | 'I' <int> | 'S' <len> ':' <bytes>
//   term   := 'C' value                  (non-integer constant)
//           | 'L' <base> <k> (<sym> <coef>)*
//           | 'Q' <sym>
//           | 'P' <readIdx> <offset>
// ---------------------------------------------------------------------------

static void serializeValue(const Value &V, std::string &Out) {
  switch (V.kind()) {
  case Value::Kind::Absent:
    Out += "A";
    return;
  case Value::Kind::Unit:
    Out += "U";
    return;
  case Value::Kind::Bool:
    Out += V.asBool() ? "B1" : "B0";
    return;
  case Value::Kind::Int:
    Out += 'I';
    Out += std::to_string(V.asInt());
    return;
  case Value::Kind::Str: {
    const std::string &S = V.asStr();
    JANUS_ASSERT(S.find('\n') == std::string::npos,
                 "newline in serialized string value");
    Out += 'S';
    Out += std::to_string(S.size());
    Out += ':';
    Out += S;
    return;
  }
  }
  janusUnreachable("invalid Value kind");
}

/// Skips blanks and returns the next non-blank character (0 at end).
static char peekAt(const std::string &In, size_t &Pos) {
  while (Pos < In.size() && In[Pos] == ' ')
    ++Pos;
  return Pos < In.size() ? In[Pos] : '\0';
}

static std::optional<int64_t> parseInt(const std::string &In, size_t &Pos) {
  peekAt(In, Pos);
  size_t Start = Pos;
  if (Pos < In.size() && (In[Pos] == '-' || In[Pos] == '+'))
    ++Pos;
  while (Pos < In.size() && In[Pos] >= '0' && In[Pos] <= '9')
    ++Pos;
  if (Pos == Start)
    return std::nullopt;
  return std::stoll(In.substr(Start, Pos - Start));
}

static std::optional<Value> deserializeValue(const std::string &In,
                                             size_t &Pos) {
  char C = peekAt(In, Pos);
  switch (C) {
  case 'A':
    ++Pos;
    return Value::absent();
  case 'U':
    ++Pos;
    return Value::unit();
  case 'B': {
    ++Pos;
    if (Pos >= In.size())
      return std::nullopt;
    char B = In[Pos++];
    if (B != '0' && B != '1')
      return std::nullopt;
    return Value::of(B == '1');
  }
  case 'I': {
    ++Pos;
    auto I = parseInt(In, Pos);
    if (!I)
      return std::nullopt;
    return Value::of(*I);
  }
  case 'S': {
    ++Pos;
    auto Len = parseInt(In, Pos);
    if (!Len || Pos >= In.size() || In[Pos] != ':')
      return std::nullopt;
    ++Pos;
    if (Pos + static_cast<size_t>(*Len) > In.size())
      return std::nullopt;
    std::string S = In.substr(Pos, static_cast<size_t>(*Len));
    Pos += static_cast<size_t>(*Len);
    return Value::of(std::move(S));
  }
  default:
    return std::nullopt;
  }
}

void Term::serialize(std::string &Out) const {
  switch (K) {
  case Kind::Const:
    Out += "C ";
    serializeValue(ConstVal, Out);
    return;
  case Kind::Lin: {
    Out += "L ";
    Out += std::to_string(Base);
    Out += ' ';
    Out += std::to_string(Coefs.size());
    for (const auto &[S, C] : Coefs) {
      Out += ' ';
      Out += std::to_string(S);
      Out += ' ';
      Out += std::to_string(C);
    }
    return;
  }
  case Kind::Opaque:
    Out += "Q ";
    Out += std::to_string(Opaque);
    return;
  case Kind::ReadPlus:
    Out += "P ";
    Out += std::to_string(ReadIdx);
    Out += ' ';
    Out += std::to_string(Base);
    return;
  }
  janusUnreachable("invalid Term kind");
}

std::optional<Term> Term::deserialize(const std::string &In, size_t &Pos) {
  char C = peekAt(In, Pos);
  switch (C) {
  case 'C': {
    ++Pos;
    auto V = deserializeValue(In, Pos);
    if (!V)
      return std::nullopt;
    return Term::constant(std::move(*V));
  }
  case 'L': {
    ++Pos;
    auto Base = parseInt(In, Pos);
    auto Count = parseInt(In, Pos);
    if (!Base || !Count || *Count < 0)
      return std::nullopt;
    Term T;
    T.K = Kind::Lin;
    T.Base = *Base;
    for (int64_t I = 0; I != *Count; ++I) {
      auto Sym = parseInt(In, Pos);
      auto Coef = parseInt(In, Pos);
      if (!Sym || !Coef)
        return std::nullopt;
      T.Coefs[static_cast<SymId>(*Sym)] = *Coef;
    }
    return T;
  }
  case 'Q': {
    ++Pos;
    auto Sym = parseInt(In, Pos);
    if (!Sym)
      return std::nullopt;
    return Term::opaqueSym(static_cast<SymId>(*Sym));
  }
  case 'P': {
    ++Pos;
    auto Idx = parseInt(In, Pos);
    auto Off = parseInt(In, Pos);
    if (!Idx || !Off)
      return std::nullopt;
    return Term::readPlus(static_cast<uint32_t>(*Idx), *Off);
  }
  default:
    return std::nullopt;
  }
}
