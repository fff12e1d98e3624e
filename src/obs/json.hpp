// The repo's one JSON reader and writer.
//
// Every JSON document the repo emits (counter sets, metric registries,
// Chrome trace files, run manifests, bench results) goes through the one
// escaper here, so a counter named `cache "hot" path\n` can never again
// produce an unparseable file. Every JSON document the repo reads —
// fepiad and sweep-coordinator requests off the wire, and the emitted
// documents the trace/CLI tests check with isValidJson — goes through
// the one small reader here: UTF-8 passthrough, \uXXXX decoded to UTF-8
// (surrogate pairs included, unpaired halves rejected), numbers via
// std::from_chars (locale-immune, round-trip exact), objects kept as
// insertion-ordered key/value vectors, recursion capped by the caller.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fepia::obs {

/// Writes `s` as a JSON string literal (including the surrounding
/// quotes): `"` `\` and control characters are escaped per RFC 8259.
void writeJsonString(std::ostream& os, std::string_view s);

/// JSON number for a possibly non-finite double (JSON has no Infinity or
/// NaN; both map to `null`). 17 significant digits — round-trip exact.
void writeJsonNumber(std::ostream& os, double x);

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
/// Insertion-ordered object (request objects are tiny; linear lookup).
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  JsonArray array;
  JsonObject object;

  [[nodiscard]] bool isNull() const noexcept { return kind == Kind::Null; }
  [[nodiscard]] bool isString() const noexcept {
    return kind == Kind::String;
  }
  [[nodiscard]] bool isNumber() const noexcept {
    return kind == Kind::Number;
  }
  [[nodiscard]] bool isObject() const noexcept {
    return kind == Kind::Object;
  }
  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
};

/// Parses one complete JSON document (surrounding whitespace allowed,
/// trailing garbage rejected). Containers nested more than `maxDepth`
/// deep are rejected, never recursed into; the default suits wire
/// requests, which are flat. On failure returns nullopt and, when
/// `error` is non-null, a one-line diagnostic.
[[nodiscard]] std::optional<JsonValue> parseJson(std::string_view text,
                                                 std::string* error = nullptr,
                                                 int maxDepth = 64);

/// Serializes a value back to compact JSON (numbers in the repo's
/// %.17g round-trip form, non-finite numbers as null). Used to echo
/// request ids verbatim into responses.
[[nodiscard]] std::string serializeJson(const JsonValue& value);

/// True when `text` is one valid JSON value with nothing but whitespace
/// around it: parseJson with room for the deeper nesting of emitted
/// documents. It does not reject duplicate keys.
[[nodiscard]] bool isValidJson(std::string_view text);

}  // namespace fepia::obs
