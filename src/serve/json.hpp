// Minimal JSON value / parser / writer for the prediction service protocol
// (docs/SERVE.md). Deliberately small: objects are std::map (sorted keys), so
// json_dump is canonical — the result cache keys on the dumped request, and
// two requests that differ only in field order hash identically.
//
// Numbers: integer literals parse to Int (int64) and render without a
// decimal point, so cycle counts round-trip bit-exactly; everything else is
// Double, rendered with enough digits (%.17g) to round-trip IEEE doubles.
//
// Raw values hold text that is already canonical JSON (typically a cached
// json_dump) and are spliced into json_dump's output verbatim, so a stored
// result is served without a parse/dump round trip. json_parse never
// produces them.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pprophet::serve {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    Null, Bool, Int, Double, String, Array, Object, Raw
  };
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() = default;
  JsonValue(std::nullptr_t) {}
  JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
  JsonValue(int v) : kind_(Kind::Int), int_(v) {}
  JsonValue(std::int64_t v) : kind_(Kind::Int), int_(v) {}
  JsonValue(std::uint64_t v) : kind_(Kind::Int), int_(static_cast<std::int64_t>(v)) {}
  JsonValue(double v) : kind_(Kind::Double), double_(v) {}
  JsonValue(const char* s) : kind_(Kind::String), string_(s) {}
  JsonValue(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
  JsonValue(Array a) : kind_(Kind::Array), array_(std::move(a)) {}
  JsonValue(Object o) : kind_(Kind::Object), object_(std::move(o)) {}

  /// Pre-serialized canonical JSON, written verbatim by json_dump. The
  /// caller vouches that `json` is one well-formed value in json_dump's
  /// canonical form; nothing checks it. The typed accessors throw on it.
  static JsonValue raw(std::string json) {
    JsonValue v;
    v.kind_ = Kind::Raw;
    v.string_ = std::move(json);
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_int() const { return kind_ == Kind::Int; }
  bool is_number() const { return kind_ == Kind::Int || kind_ == Kind::Double; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  /// Typed accessors; throw JsonError on kind mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;       ///< Int only (Double does not narrow)
  std::uint64_t as_u64() const;      ///< Int only; throws on negatives
  double as_double() const;          ///< Int or Double
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();
  const std::string& raw_text() const;  ///< Raw only

  /// Object field lookup; null reference semantics via pointer (nullptr when
  /// absent or when *this is not an object).
  const JsonValue* find(std::string_view key) const;
  /// Object field with a required presence contract; throws JsonError naming
  /// the key when missing.
  const JsonValue& at(std::string_view key) const;
  /// Mutable insertion (creates the object kind on a Null value).
  JsonValue& set(std::string key, JsonValue v);

  /// Raw values compare by their text (no canonicalization), and never
  /// equal a parsed value of another kind.
  bool operator==(const JsonValue& other) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;  ///< String payload, or Raw text
  Array array_;
  Object object_;
};

/// Parses one JSON document; rejects trailing garbage and nesting deeper
/// than 96 levels. Throws JsonError with a byte offset on malformed input.
JsonValue json_parse(std::string_view text);

/// Compact canonical rendering (no whitespace, object keys sorted by the
/// std::map ordering). Raw values are copied through unchanged.
std::string json_dump(const JsonValue& v);

}  // namespace pprophet::serve
