#pragma once
// Minimal JSON emission, validation, and parsing used by the observability
// exporters and the src/svc request protocol.
//
// JsonWriter produces compact, deterministic JSON (keys are emitted in the
// order the caller writes them; doubles use shortest round-trip formatting).
// json_parse() is the one reader: a strict recursive-descent parser
// producing a JsonValue tree with line/column error reporting and
// stable error codes, rejecting non-finite numbers (the same guard GK
// applies to capacities — a 1e999 in a request must fail loudly, not leak
// an inf into solver state). Canonical re-emission (JsonValue::write) is a
// fixpoint: write(parse(write(v))) == write(v) byte for byte, which the
// service journal's replay guarantee builds on.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace flattree::obs {

/// Escapes a string for inclusion in a JSON document (adds no quotes).
std::string json_escape(const std::string& s);

/// Formats a double as a JSON number (round-trip precision; non-finite
/// values are clamped to 0 with a lossless textual marker impossible in
/// JSON, so callers should filter them first — see implementation).
std::string json_number(double value);

/// Incremental writer for one JSON document. Nesting is tracked so commas
/// and closers are placed automatically:
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("argv"); w.begin_array(); w.string_value("bench"); w.end_array();
///   w.key("seed"); w.int_value(42);
///   w.end_object();
///   std::string doc = w.str();
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  /// Emits an object key; must be followed by exactly one value.
  void key(const std::string& k);
  void string_value(const std::string& v);
  void int_value(std::int64_t v);
  void uint_value(std::uint64_t v);
  void double_value(double v);
  void bool_value(bool v);
  void null_value();
  /// Emits a pre-rendered JSON fragment verbatim (caller guarantees syntax).
  void raw_value(const std::string& fragment);

  const std::string& str() const { return out_; }

 private:
  void comma_for_value();
  std::string out_;
  /// One entry per open container: count of values emitted at that level.
  std::string stack_;  ///< 'o' = object, 'a' = array
  std::string counts_;  ///< parallel to stack_: 0 = empty, 1 = non-empty
  bool after_key_ = false;
};

// -- materializing parser ----------------------------------------------------

/// A parsed JSON value. Numbers split into Int (integral token that fits
/// int64, except "-0" which stays a Double so canonical re-emission
/// round-trips) and Double (everything else). Object key order is the
/// document order; duplicate keys are a parse error (the service protocol
/// must be deterministic, so "last key wins" ambiguity is rejected).
class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Int, Double, String, Array, Object };

  JsonValue() = default;
  /// Leaf constructors (arrays/objects are built by mutating the members).
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool v);
  static JsonValue make_int(std::int64_t v);
  static JsonValue make_double(double v);
  static JsonValue make_string(std::string v);
  static JsonValue make_array();
  static JsonValue make_object();

  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_int() const { return kind_ == Kind::Int; }
  bool is_double() const { return kind_ == Kind::Double; }
  /// Int or Double.
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  /// Typed accessors; the kind must match (std::logic_error otherwise).
  bool as_bool() const;
  std::int64_t as_int() const;
  /// Any number as a double (Int converts exactly up to 2^53).
  double as_number() const;
  const std::string& as_string() const;

  /// Array elements / object members (must be the matching kind).
  std::vector<JsonValue>& array();
  const std::vector<JsonValue>& array() const;
  std::vector<std::pair<std::string, JsonValue>>& object();
  const std::vector<std::pair<std::string, JsonValue>>& object() const;

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;

  /// Appends to the canonical compact rendering (ints via decimal,
  /// doubles via json_number, keys in stored order).
  void write(JsonWriter& w) const;
  /// Canonical compact document for this value.
  std::string to_json() const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parse failure description. `code` is stable ("json.trailing",
/// "json.number_nonfinite", ...); line/column are 1-based and point at the
/// offending character.
struct JsonError {
  std::string code;
  std::string message;
  std::size_t line = 0;
  std::size_t column = 0;
};

/// Parses a complete JSON document into `out`. Returns false (and fills
/// `error`, when non-null) on malformed input. Strictly RFC 8259 plus the
/// deterministic-protocol extras: duplicate object keys rejected
/// ("json.duplicate_key"), numbers that overflow to +/-inf rejected
/// ("json.number_nonfinite"), nesting capped at depth 256 ("json.depth").
bool json_parse(const std::string& text, JsonValue& out, JsonError* error = nullptr);

}  // namespace flattree::obs
