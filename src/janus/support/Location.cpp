#include "janus/support/Location.h"

using namespace janus;

size_t Location::hash() const {
  size_t H = std::hash<uint32_t>()(Obj.Id) * 0x9e3779b97f4a7c15ULL;
  if (const int64_t *I = std::get_if<int64_t>(&Key))
    return H ^ std::hash<int64_t>()(*I);
  if (const std::string *S = std::get_if<std::string>(&Key))
    return H ^ std::hash<std::string>()(*S);
  return H;
}

// Strings are built by appending into one buffer: GCC 12 at -O3 raises
// a false -Wrestrict inside char_traits for `"literal" + std::string`.
static void appendKey(std::string &Out, const LocKey &Key) {
  if (const int64_t *I = std::get_if<int64_t>(&Key)) {
    Out += '[';
    Out += std::to_string(*I);
    Out += ']';
  } else if (const std::string *S = std::get_if<std::string>(&Key)) {
    Out += "[\"";
    Out += *S;
    Out += "\"]";
  }
}

std::string Location::toString() const {
  std::string Out = "obj#";
  Out += std::to_string(Obj.Id);
  appendKey(Out, Key);
  return Out;
}

ObjectId ObjectRegistry::registerObject(std::string Name,
                                        std::string LocClass,
                                        RelaxationSpec Relax) {
  ObjectId Id{static_cast<uint32_t>(Objects.size())};
  if (LocClass.empty())
    LocClass = Name;
  Objects.push_back(ObjectInfo{std::move(Name), std::move(LocClass), Relax});
  return Id;
}

std::string ObjectRegistry::locationName(const Location &Loc) const {
  std::string Out = info(Loc.Obj).Name;
  appendKey(Out, Loc.Key);
  return Out;
}

const char *janus::adtKindName(AdtKind Kind) {
  switch (Kind) {
  case AdtKind::None:
    return "none";
  case AdtKind::Counter:
    return "counter";
  case AdtKind::Map:
    return "map";
  case AdtKind::Queue:
    return "queue";
  case AdtKind::BitSet:
    return "bitset";
  }
  return "none";
}
