#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

namespace flattree::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (ch < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += static_cast<char>(ch);
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  // JSON has no inf/nan; exporters should not produce them, but a stray
  // non-finite must not corrupt the document.
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // Trim to the shortest representation that round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, value);
    double back = 0.0;
    std::sscanf(probe, "%lf", &back);
    if (back == value) return probe;
  }
  return buf;
}

void JsonWriter::comma_for_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    if (counts_.back() != 0) out_ += ',';
    counts_.back() = 1;
  }
}

void JsonWriter::begin_object() {
  comma_for_value();
  out_ += '{';
  stack_ += 'o';
  counts_ += '\0';
}

void JsonWriter::end_object() {
  out_ += '}';
  stack_.pop_back();
  counts_.pop_back();
}

void JsonWriter::begin_array() {
  comma_for_value();
  out_ += '[';
  stack_ += 'a';
  counts_ += '\0';
}

void JsonWriter::end_array() {
  out_ += ']';
  stack_.pop_back();
  counts_.pop_back();
}

void JsonWriter::key(const std::string& k) {
  if (!counts_.empty() && counts_.back() != 0) out_ += ',';
  if (!counts_.empty()) counts_.back() = 1;
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  after_key_ = true;
}

void JsonWriter::string_value(const std::string& v) {
  comma_for_value();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
}

void JsonWriter::int_value(std::int64_t v) {
  comma_for_value();
  out_ += std::to_string(v);
}

void JsonWriter::uint_value(std::uint64_t v) {
  comma_for_value();
  out_ += std::to_string(v);
}

void JsonWriter::double_value(double v) {
  comma_for_value();
  out_ += json_number(v);
}

void JsonWriter::bool_value(bool v) {
  comma_for_value();
  out_ += v ? "true" : "false";
}

void JsonWriter::null_value() {
  comma_for_value();
  out_ += "null";
}

void JsonWriter::raw_value(const std::string& fragment) {
  comma_for_value();
  out_ += fragment;
}

// -- JsonValue ---------------------------------------------------------------

JsonValue JsonValue::make_bool(bool v) {
  JsonValue out;
  out.kind_ = Kind::Bool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::make_int(std::int64_t v) {
  JsonValue out;
  out.kind_ = Kind::Int;
  out.int_ = v;
  return out;
}

JsonValue JsonValue::make_double(double v) {
  JsonValue out;
  out.kind_ = Kind::Double;
  out.double_ = v;
  return out;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue out;
  out.kind_ = Kind::String;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::make_array() {
  JsonValue out;
  out.kind_ = Kind::Array;
  return out;
}

JsonValue JsonValue::make_object() {
  JsonValue out;
  out.kind_ = Kind::Object;
  return out;
}

namespace {

[[noreturn]] void kind_error(const char* want) {
  throw std::logic_error(std::string("JsonValue: not a ") + want);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::Bool) kind_error("bool");
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  if (kind_ != Kind::Int) kind_error("int");
  return int_;
}

double JsonValue::as_number() const {
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  if (kind_ == Kind::Double) return double_;
  kind_error("number");
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::String) kind_error("string");
  return string_;
}

std::vector<JsonValue>& JsonValue::array() {
  if (kind_ != Kind::Array) kind_error("array");
  return array_;
}

const std::vector<JsonValue>& JsonValue::array() const {
  if (kind_ != Kind::Array) kind_error("array");
  return array_;
}

std::vector<std::pair<std::string, JsonValue>>& JsonValue::object() {
  if (kind_ != Kind::Object) kind_error("object");
  return object_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::object() const {
  if (kind_ != Kind::Object) kind_error("object");
  return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

void JsonValue::write(JsonWriter& w) const {
  switch (kind_) {
    case Kind::Null: w.null_value(); break;
    case Kind::Bool: w.bool_value(bool_); break;
    case Kind::Int: w.int_value(int_); break;
    case Kind::Double: w.double_value(double_); break;
    case Kind::String: w.string_value(string_); break;
    case Kind::Array:
      w.begin_array();
      for (const JsonValue& v : array_) v.write(w);
      w.end_array();
      break;
    case Kind::Object:
      w.begin_object();
      for (const auto& [k, v] : object_) {
        w.key(k);
        v.write(w);
      }
      w.end_object();
      break;
  }
}

std::string JsonValue::to_json() const {
  JsonWriter w;
  write(w);
  return w.str();
}

// -- materializing parser ----------------------------------------------------

namespace {

/// Recursive-descent parser with position tracking. Unlike the validator
/// above it materializes values and reports *where* and *why* parsing
/// stopped, with stable dotted codes (tests pin them).
struct TreeParser {
  const char* begin;
  const char* p;
  const char* end;
  int depth = 0;
  JsonError err{};
  bool failed = false;

  bool fail(const char* code, const std::string& message, const char* at) {
    if (failed) return false;  // keep the first (deepest) failure
    failed = true;
    err.code = code;
    err.message = message;
    err.line = 1;
    err.column = 1;
    for (const char* q = begin; q < at; ++q) {
      if (*q == '\n') {
        ++err.line;
        err.column = 1;
      } else {
        ++err.column;
      }
    }
    return false;
  }

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
  }

  bool parse_string(std::string& out) {
    const char* start = p;
    if (p >= end)
      return fail("json.truncated", "input ends where a string was expected", p);
    if (*p != '"') return fail("json.expected_string", "expected '\"'", p);
    ++p;
    out.clear();
    while (p < end) {
      unsigned char c = static_cast<unsigned char>(*p);
      if (c == '"') {
        ++p;
        return true;
      }
      if (c == '\\') {
        const char* esc = p;
        ++p;
        if (p >= end) return fail("json.truncated", "input ends mid-escape", esc);
        char e = *p;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            std::uint32_t cp = 0;
            for (int i = 0; i < 4; ++i) {
              ++p;
              if (p >= end)
                return fail("json.truncated", "input ends mid-\\u escape", esc);
              if (!std::isxdigit(static_cast<unsigned char>(*p)))
                return fail("json.bad_escape", "bad \\u escape", esc);
              char h = *p;
              cp = cp * 16 +
                   static_cast<std::uint32_t>(
                       h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
            }
            // UTF-8 encode the BMP code point (surrogate pairs pass through
            // as two separate 3-byte sequences — exactly what json_escape
            // produced them from, so round trips are byte-stable).
            if (cp < 0x80) {
              out += static_cast<char>(cp);
            } else if (cp < 0x800) {
              out += static_cast<char>(0xC0 | (cp >> 6));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (cp >> 12));
              out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            }
            break;
          }
          default:
            return fail("json.bad_escape", std::string("invalid escape '\\") + e + "'",
                        esc);
        }
        ++p;
      } else if (c < 0x20) {
        return fail("json.control_in_string", "raw control character in string", p);
      } else {
        out += static_cast<char>(c);
        ++p;
      }
    }
    // The input ended inside the string (covers cuts mid-UTF-8 sequence:
    // the lead/continuation bytes were consumed as ordinary string bytes
    // above, never read past `end`).
    return fail("json.truncated", "input ends inside a string", start);
  }

  bool parse_number(JsonValue& out) {
    const char* start = p;
    bool integral = true;
    if (p < end && *p == '-') ++p;
    if (p >= end) return fail("json.truncated", "input ends mid-number", start);
    if (!std::isdigit(static_cast<unsigned char>(*p)))
      return fail("json.bad_number", "malformed number", start);
    if (*p == '0') {
      ++p;
      if (p < end && std::isdigit(static_cast<unsigned char>(*p)))
        return fail("json.bad_number", "leading zero", start);
    } else {
      while (p < end && std::isdigit(static_cast<unsigned char>(*p))) ++p;
    }
    if (p < end && *p == '.') {
      integral = false;
      ++p;
      if (p >= end) return fail("json.truncated", "input ends mid-number", start);
      if (!std::isdigit(static_cast<unsigned char>(*p)))
        return fail("json.bad_number", "missing fraction digits", start);
      while (p < end && std::isdigit(static_cast<unsigned char>(*p))) ++p;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
      integral = false;
      ++p;
      if (p < end && (*p == '+' || *p == '-')) ++p;
      if (p >= end) return fail("json.truncated", "input ends mid-number", start);
      if (!std::isdigit(static_cast<unsigned char>(*p)))
        return fail("json.bad_number", "missing exponent digits", start);
      while (p < end && std::isdigit(static_cast<unsigned char>(*p))) ++p;
    }
    std::string token(start, p);
    if (integral) {
      // "-0" stays a Double so canonical re-emission preserves the sign.
      errno = 0;
      char* tail = nullptr;
      long long v = std::strtoll(token.c_str(), &tail, 10);
      if (errno == 0 && tail != nullptr && *tail == '\0' && !(v == 0 && token[0] == '-')) {
        out = JsonValue::make_int(v);
        return true;
      }
    }
    errno = 0;
    double d = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(d))
      return fail("json.number_nonfinite",
                  "number overflows to a non-finite value: " + token, start);
    out = JsonValue::make_double(d);
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (++depth > 256) {
      --depth;
      return fail("json.depth", "nesting deeper than 256", p);
    }
    skip_ws();
    bool ok = false;
    if (p >= end) {
      // depth > 1 means a container above us is still open, so the input
      // was cut mid-document; depth == 1 is a genuinely empty document.
      ok = depth > 1 ? fail("json.truncated", "input ends mid-document", p)
                     : fail("json.expected_value", "unexpected end of input", p);
    } else if (*p == '{') {
      ++p;
      out = JsonValue::make_object();
      skip_ws();
      if (p < end && *p == '}') {
        ++p;
        ok = true;
      } else {
        std::unordered_set<std::string> seen;
        for (;;) {
          skip_ws();
          const char* key_at = p;
          std::string key;
          if (!parse_string(key)) break;
          if (!seen.insert(key).second) {
            fail("json.duplicate_key", "duplicate object key \"" + key + "\"", key_at);
            break;
          }
          skip_ws();
          if (p >= end) {
            fail("json.truncated", "input ends before ':'", p);
            break;
          }
          if (*p != ':') {
            fail("json.expected_colon", "expected ':' after object key", p);
            break;
          }
          ++p;
          JsonValue member;
          if (!parse_value(member)) break;
          out.object().emplace_back(std::move(key), std::move(member));
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == '}') {
            ++p;
            ok = true;
          } else if (p >= end) {
            fail("json.truncated", "input ends inside an object", p);
          } else {
            fail("json.expected_comma_or_close", "expected ',' or '}'", p);
          }
          break;
        }
      }
    } else if (*p == '[') {
      ++p;
      out = JsonValue::make_array();
      skip_ws();
      if (p < end && *p == ']') {
        ++p;
        ok = true;
      } else {
        for (;;) {
          JsonValue element;
          if (!parse_value(element)) break;
          out.array().push_back(std::move(element));
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == ']') {
            ++p;
            ok = true;
          } else if (p >= end) {
            fail("json.truncated", "input ends inside an array", p);
          } else {
            fail("json.expected_comma_or_close", "expected ',' or ']'", p);
          }
          break;
        }
      }
    } else if (*p == '"') {
      std::string s;
      ok = parse_string(s);
      if (ok) out = JsonValue::make_string(std::move(s));
    } else if (*p == 't' || *p == 'f' || *p == 'n') {
      const char* start = p;
      auto literal = [&](const char* word) {
        std::size_t len = std::strlen(word);
        if (static_cast<std::size_t>(end - p) < len || std::strncmp(p, word, len) != 0)
          return false;
        p += len;
        return true;
      };
      if (literal("true")) {
        out = JsonValue::make_bool(true);
        ok = true;
      } else if (literal("false")) {
        out = JsonValue::make_bool(false);
        ok = true;
      } else if (literal("null")) {
        out = JsonValue::make_null();
        ok = true;
      } else {
        // "tru" / "fals" / "n" at end of input is a cut, not a typo.
        auto cut_of = [&](const char* word) {
          std::size_t avail = static_cast<std::size_t>(end - start);
          return avail < std::strlen(word) && std::strncmp(start, word, avail) == 0;
        };
        if (cut_of("true") || cut_of("false") || cut_of("null"))
          ok = fail("json.truncated", "input ends mid-literal", start);
        else
          ok = fail("json.bad_literal", "expected true/false/null", start);
      }
    } else if (*p == '-' || std::isdigit(static_cast<unsigned char>(*p))) {
      ok = parse_number(out);
    } else {
      ok = fail("json.expected_value", std::string("unexpected character '") + *p + "'",
                p);
    }
    --depth;
    return ok;
  }
};

}  // namespace

bool json_parse(const std::string& text, JsonValue& out, JsonError* error) {
  TreeParser parser{text.data(), text.data(), text.data() + text.size()};
  JsonValue value;
  if (parser.parse_value(value)) {
    parser.skip_ws();
    if (parser.p != parser.end) {
      parser.fail("json.trailing", "trailing characters after document", parser.p);
    } else {
      out = std::move(value);
      return true;
    }
  }
  if (error != nullptr) *error = parser.err;
  return false;
}

}  // namespace flattree::obs
