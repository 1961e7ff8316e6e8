#include "janus/resilience/FaultPlan.h"

#include <cstdio>
#include <cstdlib>

using namespace janus;
using namespace janus::resilience;

namespace {

/// Splits \p Text on \p Sep, dropping empty pieces.
std::vector<std::string> split(const std::string &Text, char Sep) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (Start <= Text.size()) {
    size_t End = Text.find(Sep, Start);
    if (End == std::string::npos)
      End = Text.size();
    if (End > Start)
      Out.push_back(Text.substr(Start, End - Start));
    Start = End + 1;
  }
  return Out;
}

/// Parses a coordinate: '*' means "any" (0), otherwise a positive
/// decimal. \returns false on anything else.
bool parseCoord(const std::string &Text, uint32_t &Out) {
  if (Text == "*") {
    Out = 0;
    return true;
  }
  if (Text.empty())
    return false;
  uint64_t N = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    N = N * 10 + static_cast<uint64_t>(C - '0');
    if (N > 0xffffffffULL)
      return false;
  }
  Out = static_cast<uint32_t>(N);
  return Out != 0; // 0 is reserved for the wildcard.
}

bool parseArg(const std::string &Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  Out = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    Out = Out * 10 + static_cast<uint64_t>(C - '0');
  }
  return true;
}

/// Parses the coordinate suffix of a clause: '@tid.attempt' (task
/// coordinates) or '@client:sub' (service coordinates, ClientCoords
/// set). The separator — '.' vs ':' — is the only thing that tells the
/// two spaces apart.
bool parseCoords(const std::string &Text, FaultAction &A) {
  if (Text.empty() || Text[0] != '@')
    return false;
  size_t Sep = Text.find('.');
  A.ClientCoords = false;
  if (Sep == std::string::npos) {
    Sep = Text.find(':');
    if (Sep == std::string::npos)
      return false;
    A.ClientCoords = true;
  }
  return parseCoord(Text.substr(1, Sep - 1), A.Tid) &&
         parseCoord(Text.substr(Sep + 1), A.Attempt);
}

} // namespace

std::optional<FaultPlan> FaultPlan::parse(const std::string &Spec,
                                          std::string *Err) {
  FaultPlan Plan;
  auto Fail = [&](const std::string &Clause,
                  const char *Why) -> std::optional<FaultPlan> {
    if (Err)
      *Err = "bad fault clause '" + Clause + "': " + Why;
    return std::nullopt;
  };
  for (const std::string &Clause : split(Spec, ';')) {
    FaultAction A;
    size_t Eq = Clause.find('=');
    std::string Head = Clause.substr(0, Eq);
    if (Clause.rfind("abort", 0) == 0) {
      A.K = FaultAction::Kind::ForceAbort;
      if (Eq != std::string::npos)
        return Fail(Clause, "abort takes no argument");
      if (!parseCoords(Head.substr(5), A))
        return Fail(Clause, "expected abort@TID.ATTEMPT ('*' wildcards)");
    } else if (Clause.rfind("throw", 0) == 0) {
      A.K = FaultAction::Kind::ThrowTask;
      if (Eq != std::string::npos)
        return Fail(Clause, "throw takes no argument");
      if (!parseCoords(Head.substr(5), A))
        return Fail(Clause, "expected throw@TID.ATTEMPT ('*' wildcards)");
    } else if (Clause.rfind("delay", 0) == 0) {
      A.K = FaultAction::Kind::DelayCommit;
      if (Eq == std::string::npos ||
          !parseArg(Clause.substr(Eq + 1), A.Arg))
        return Fail(Clause, "expected delay@TID.ATTEMPT=MICROS");
      if (!parseCoords(Head.substr(5), A))
        return Fail(Clause, "expected delay@TID.ATTEMPT=MICROS");
    } else if (Clause.rfind("acquiredelay", 0) == 0) {
      A.K = FaultAction::Kind::AcquireDelay;
      if (Eq == std::string::npos ||
          !parseArg(Clause.substr(Eq + 1), A.Arg) ||
          !parseCoords(Head.substr(12), A))
        return Fail(Clause, "expected acquiredelay@TID.ATTEMPT=MICROS");
      if (A.ClientCoords)
        return Fail(Clause,
                    "acquiredelay takes task coordinates (TID.ATTEMPT)");
    } else if (Clause.rfind("shed", 0) == 0) {
      A.K = FaultAction::Kind::Shed;
      if (Eq != std::string::npos)
        return Fail(Clause, "shed takes no argument");
      if (!parseCoords(Head.substr(4), A) || !A.ClientCoords)
        return Fail(Clause,
                    "expected shed@CLIENT:SUB ('*' wildcards; shed is an "
                    "admission-time fault)");
    } else if (Clause.rfind("satbudget", 0) == 0) {
      A.K = FaultAction::Kind::SatBudget;
      if (Head != "satbudget" || Eq == std::string::npos ||
          !parseArg(Clause.substr(Eq + 1), A.Arg))
        return Fail(Clause, "expected satbudget=N");
    } else {
      return Fail(Clause, "unknown fault kind (abort/throw/delay/satbudget)");
    }
    Plan.Actions.push_back(A);
  }
  return Plan;
}

FaultPlan FaultPlan::fromEnv() {
  const char *Spec = std::getenv("JANUS_FAULTS");
  if (!Spec || !*Spec)
    return FaultPlan();
  std::string Err;
  std::optional<FaultPlan> Plan = parse(Spec, &Err);
  if (!Plan) {
    std::fprintf(stderr, "janus: ignoring malformed JANUS_FAULTS: %s\n",
                 Err.c_str());
    return FaultPlan();
  }
  return *Plan;
}

const FaultAction *FaultPlan::matches(FaultAction::Kind K, uint32_t Tid,
                                      uint32_t Attempt) const {
  for (const FaultAction &A : Actions) {
    // Client-coordinate clauses live in a different namespace: the
    // engines must never interpret a client id as a task id.
    if (A.ClientCoords || A.K != K)
      continue;
    if (A.Tid != 0 && A.Tid != Tid)
      continue;
    if (A.Attempt != 0 && A.Attempt != Attempt)
      continue;
    return &A;
  }
  return nullptr;
}

const FaultAction *FaultPlan::clientMatch(FaultAction::Kind K,
                                          uint32_t Client,
                                          uint32_t Sub) const {
  for (const FaultAction &A : Actions) {
    if (!A.ClientCoords || A.K != K)
      continue;
    if (A.Tid != 0 && A.Tid != Client)
      continue;
    if (A.Attempt != 0 && A.Attempt != Sub)
      continue;
    return &A;
  }
  return nullptr;
}

std::optional<uint64_t> FaultPlan::satConflictBudget() const {
  for (const FaultAction &A : Actions)
    if (A.K == FaultAction::Kind::SatBudget)
      return A.Arg;
  return std::nullopt;
}

std::string FaultPlan::toString() const {
  auto Coord = [](uint32_t C) {
    return C == 0 ? std::string("*") : std::to_string(C);
  };
  auto Coords = [&](const FaultAction &A) {
    std::string Out = "@";
    Out += Coord(A.Tid);
    Out += A.ClientCoords ? ':' : '.';
    Out += Coord(A.Attempt);
    return Out;
  };
  std::string Out;
  for (const FaultAction &A : Actions) {
    if (!Out.empty())
      Out += ';';
    switch (A.K) {
    case FaultAction::Kind::ForceAbort:
      Out += "abort" + Coords(A);
      break;
    case FaultAction::Kind::ThrowTask:
      Out += "throw" + Coords(A);
      break;
    case FaultAction::Kind::DelayCommit:
      Out += "delay" + Coords(A) + "=" + std::to_string(A.Arg);
      break;
    case FaultAction::Kind::AcquireDelay:
      Out += "acquiredelay" + Coords(A) + "=" + std::to_string(A.Arg);
      break;
    case FaultAction::Kind::Shed:
      Out += "shed" + Coords(A);
      break;
    case FaultAction::Kind::SatBudget:
      Out += "satbudget=" + std::to_string(A.Arg);
      break;
    }
  }
  return Out;
}
