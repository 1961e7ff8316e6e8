//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal JSON emission helpers.
///
/// One escaping routine and one streaming writer, shared by every
/// machine-readable artifact the repo produces — the bench
/// perf-trajectory rows (bench/BenchCommon.h), the `janus run --json`
/// report, and the janus::obs trace/metrics exporters — so they agree
/// on escaping and carry the same `schema_version` marker. Emission
/// only; nothing in the repo needs to parse JSON back.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_SUPPORT_JSON_H
#define JANUS_SUPPORT_JSON_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace janus {

/// Version stamp every JSON artifact carries as "schema_version", bumped
/// whenever a field changes meaning (additions are compatible and do
/// not bump it). Version history:
///   1 — implicit: the PR-2 bench rows (no marker).
///   2 — marker added; bench rows, `janus run --json`, obs exports.
///   3 — serve metrics gained per-client/per-lane rollups (the
///       `metrics` socket reply composes Observer::metricsJson() with
///       Service::rollupJson() under "rollups").
inline constexpr int JsonSchemaVersion = 3;

/// \returns \p S with every character that cannot appear raw inside a
/// JSON string escaped (quotes, backslash, and all control characters,
/// per RFC 8259).
inline std::string jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out;
}

/// \returns \p S quoted and escaped as a JSON string literal.
inline std::string jsonQuote(std::string_view S) {
  std::string Out = "\"";
  Out += jsonEscape(S);
  Out += '"';
  return Out;
}

/// \returns \p D rendered as a JSON number. JSON has no NaN/Inf; those
/// are mapped to 0 (they only arise from degenerate zero-duration
/// measurements).
inline std::string jsonNumber(double D) {
  if (D != D || D > 1e308 || D < -1e308)
    return "0";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6g", D);
  return Buf;
}

/// A streaming writer for the flat object/array shapes the exporters
/// emit. Tracks comma placement; the caller supplies structure:
///
///   JsonWriter W;
///   W.beginObject();
///   W.field("schema_version", JsonSchemaVersion);
///   W.key("rows"); W.beginArray();
///   ...
///   W.endArray(); W.endObject();
///   Out << W.str();
class JsonWriter {
public:
  void beginObject() {
    separate();
    Out += '{';
    Fresh = true;
  }
  void endObject() {
    Out += '}';
    Fresh = false;
  }
  void beginArray() {
    separate();
    Out += '[';
    Fresh = true;
  }
  void endArray() {
    Out += ']';
    Fresh = false;
  }

  /// Emits the key of the next value inside an object.
  void key(std::string_view K) {
    separate();
    Out += jsonQuote(K);
    Out += ':';
    Pending = true;
  }

  void value(std::string_view V) { raw(jsonQuote(V)); }
  void value(const char *V) { raw(jsonQuote(V)); }
  void value(double V) { raw(jsonNumber(V)); }
  void value(bool V) { raw(V ? "true" : "false"); }
  void value(int64_t V) { raw(std::to_string(V)); }
  void value(uint64_t V) { raw(std::to_string(V)); }
  void value(int V) { raw(std::to_string(V)); }
  void value(unsigned V) { raw(std::to_string(V)); }

  template <typename T> void field(std::string_view K, T V) {
    key(K);
    value(V);
  }

  /// Appends pre-rendered JSON as the next value.
  void raw(std::string_view Rendered) {
    separate();
    Out += Rendered;
    Fresh = false;
  }

  const std::string &str() const { return Out; }

private:
  /// Inserts the comma between siblings. A value directly after its key
  /// (Pending) or as the first element of a container (Fresh) takes no
  /// comma.
  void separate() {
    if (Pending) {
      Pending = false;
      return;
    }
    if (!Fresh && !Out.empty() && Out.back() != '{' && Out.back() != '[')
      Out += ',';
    Fresh = false;
  }

  std::string Out;
  bool Fresh = true;
  bool Pending = false;
};

} // namespace janus

#endif // JANUS_SUPPORT_JSON_H
