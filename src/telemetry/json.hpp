// Minimal JSON support for the telemetry trace format.
//
// The trace files are JSONL (one object per line) plus one catalog.json
// document, all written and read by DynMo itself — so this is a focused
// round-trip codec, not a general JSON library: objects, arrays, strings,
// numbers, booleans, null.  Doubles are formatted with the shortest
// representation that parses back to the identical bit pattern, which is
// what makes offline trace replay bit-for-bit faithful
// (docs/TELEMETRY.md "Determinism").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dynmo::telemetry {

/// Shortest decimal string that strtod() parses back to exactly `v`.
std::string format_double(double v);

/// Append `s` as a quoted, escaped JSON string.
void append_json_string(std::string& out, std::string_view s);

/// Deepest array/object nesting JsonValue::parse accepts.  The trace
/// format nests at most 5 levels (catalog → tables → table → columns →
/// column); the cap keeps a corrupt file from exhausting the stack.
inline constexpr int kMaxJsonDepth = 64;

/// Parsed JSON value.  Numbers remember whether the source text was
/// integral so int64 columns round-trip without a double cast.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::int64_t integer = 0;
  bool is_integer = false;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered; duplicate keys keep the first occurrence.
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Parse a complete document; throws dynmo::Error on malformed input
  /// (with byte offset), nesting deeper than kMaxJsonDepth, or trailing
  /// garbage.
  static JsonValue parse(std::string_view text);

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  // Checked accessors — throw dynmo::Error on a kind mismatch.
  bool as_bool() const;
  double as_double() const;       ///< accepts integral numbers too
  std::int64_t as_int() const;    ///< requires an integral number
  const std::string& as_string() const;

  const char* kind_name() const;
};

}  // namespace dynmo::telemetry
