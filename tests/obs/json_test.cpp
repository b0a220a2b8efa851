#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/parses_as_json.hpp"
#include "util/rng.hpp"

namespace flattree::obs {
namespace {

TEST(JsonEscape, PassesPlainText) {
  EXPECT_EQ(json_escape("hello world"), "hello world");
  EXPECT_EQ(json_escape(""), "");
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonNumber, RoundTripsExactly) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(-2.25), "-2.25");
  // Shortest form that parses back to the same double.
  double v = 0.1;
  EXPECT_EQ(std::stod(json_number(v)), v);
  v = 1.0 / 3.0;
  EXPECT_EQ(std::stod(json_number(v)), v);
  v = 1e300;
  EXPECT_EQ(std::stod(json_number(v)), v);
}

TEST(JsonNumber, NonFiniteClampsToZero) {
  EXPECT_EQ(json_number(std::nan("")), "0");
  EXPECT_EQ(json_number(INFINITY), "0");
}

TEST(JsonWriter, NestedDocument) {
  JsonWriter w;
  w.begin_object();
  w.key("a");
  w.int_value(-3);
  w.key("b");
  w.begin_array();
  w.string_value("x");
  w.uint_value(7);
  w.bool_value(true);
  w.null_value();
  w.end_array();
  w.key("c");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":-3,"b":["x",7,true,null],"c":{}})");
  EXPECT_TRUE(parses_as_json(w.str()));
}

TEST(JsonWriter, EscapesKeysAndStrings) {
  JsonWriter w;
  w.begin_object();
  w.key("he\"y");
  w.string_value("line\nbreak");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"he\\\"y\":\"line\\nbreak\"}");
  EXPECT_TRUE(parses_as_json(w.str()));
}

TEST(JsonValid, AcceptsWellFormed) {
  EXPECT_TRUE(parses_as_json("{}"));
  EXPECT_TRUE(parses_as_json("[]"));
  EXPECT_TRUE(parses_as_json("[1,2.5,-3e10,\"s\",true,false,null]"));
  EXPECT_TRUE(parses_as_json(R"({"a":{"b":[{"c":1}]}})"));
  EXPECT_TRUE(parses_as_json("  {\"k\" : [ 1 , 2 ] }  "));
}

TEST(JsonValid, RejectsMalformed) {
  EXPECT_FALSE(parses_as_json(""));
  EXPECT_FALSE(parses_as_json("{"));
  EXPECT_FALSE(parses_as_json("{\"a\":}"));
  EXPECT_FALSE(parses_as_json("[1,2,]"));
  EXPECT_FALSE(parses_as_json("{\"a\":1,}"));
  EXPECT_FALSE(parses_as_json("{'a':1}"));
  EXPECT_FALSE(parses_as_json("[1] trailing"));
  EXPECT_FALSE(parses_as_json("nul"));
  EXPECT_FALSE(parses_as_json("\"unterminated"));
}

TEST(JsonValid, RejectsRunawayNesting) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(parses_as_json(deep));  // depth cap, not a stack overflow
}

// -- materializing parser (json_parse) ---------------------------------------

/// Parses `text` expecting failure; returns the JsonError for inspection.
JsonError parse_error(const std::string& text) {
  JsonValue v;
  JsonError err;
  EXPECT_FALSE(json_parse(text, v, &err)) << text;
  return err;
}

TEST(JsonParse, MaterializesScalars) {
  JsonValue v;
  ASSERT_TRUE(json_parse("null", v));
  EXPECT_TRUE(v.is_null());
  ASSERT_TRUE(json_parse("true", v));
  EXPECT_TRUE(v.as_bool());
  ASSERT_TRUE(json_parse("-42", v));
  ASSERT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), -42);
  ASSERT_TRUE(json_parse("2.5e-1", v));
  ASSERT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.as_number(), 0.25);
  ASSERT_TRUE(json_parse("\"a\\nb\"", v));
  EXPECT_EQ(v.as_string(), "a\nb");
}

TEST(JsonParse, MaterializesContainersInDocumentOrder) {
  JsonValue v;
  ASSERT_TRUE(json_parse(R"({"z":1,"a":[true,null,{"k":"v"}]})", v));
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.object().size(), 2u);
  EXPECT_EQ(v.object()[0].first, "z");  // document order, not sorted
  EXPECT_EQ(v.object()[1].first, "a");
  const JsonValue* arr = v.find("a");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->array().size(), 3u);
  EXPECT_EQ(arr->array()[2].find("k")->as_string(), "v");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, StableErrorCodes) {
  EXPECT_EQ(parse_error("").code, "json.expected_value");
  EXPECT_EQ(parse_error("{\"a\":}").code, "json.expected_value");
  EXPECT_EQ(parse_error("\"unterminated").code, "json.truncated");
  EXPECT_EQ(parse_error("\"bad \\q escape\"").code, "json.bad_escape");
  EXPECT_EQ(parse_error("\"\\u12g4\"").code, "json.bad_escape");
  EXPECT_EQ(parse_error(std::string("\"a") + '\x01' + "b\"").code,
            "json.control_in_string");
  EXPECT_EQ(parse_error("trux").code, "json.bad_literal");
  EXPECT_EQ(parse_error("01").code, "json.bad_number");
  EXPECT_EQ(parse_error("1.x").code, "json.bad_number");
  EXPECT_EQ(parse_error("1ex").code, "json.bad_number");
  EXPECT_EQ(parse_error("{1:2}").code, "json.expected_string");
  EXPECT_EQ(parse_error("{\"a\" 1}").code, "json.expected_colon");
  EXPECT_EQ(parse_error("[1 2]").code, "json.expected_comma_or_close");
  EXPECT_EQ(parse_error("{\"a\":1 \"b\":2}").code, "json.expected_comma_or_close");
  EXPECT_EQ(parse_error("{} {}").code, "json.trailing");
}

TEST(JsonParse, TruncatedInputIsItsOwnErrorClass) {
  // Every way of cutting a document at end-of-input maps to one stable
  // code, json.truncated, so callers can distinguish "feed me more bytes"
  // from "this will never parse" (ISSUE 10). Each cut class in turn:
  // mid-escape, mid-\u escape, inside a string, mid-UTF-8 sequence,
  // mid-number (sign / fraction / exponent), mid-literal, and inside an
  // open container.
  EXPECT_EQ(parse_error("\"a\\").code, "json.truncated");
  EXPECT_EQ(parse_error("\"a\\u12").code, "json.truncated");
  EXPECT_EQ(parse_error("\"abc").code, "json.truncated");
  EXPECT_EQ(parse_error("\"caf\xC3").code, "json.truncated");          // cut UTF-8 lead
  EXPECT_EQ(parse_error("\"\xE2\x82").code, "json.truncated");         // cut 3-byte seq
  EXPECT_EQ(parse_error("-").code, "json.truncated");
  EXPECT_EQ(parse_error("1.").code, "json.truncated");
  EXPECT_EQ(parse_error("1e").code, "json.truncated");
  EXPECT_EQ(parse_error("1e+").code, "json.truncated");
  EXPECT_EQ(parse_error("tru").code, "json.truncated");
  EXPECT_EQ(parse_error("fals").code, "json.truncated");
  EXPECT_EQ(parse_error("[1,").code, "json.truncated");
  EXPECT_EQ(parse_error("[1").code, "json.truncated");
  EXPECT_EQ(parse_error("{\"a\":").code, "json.truncated");
  EXPECT_EQ(parse_error("{\"a\"").code, "json.truncated");
  EXPECT_EQ(parse_error("{\"a\":1").code, "json.truncated");
  EXPECT_EQ(parse_error("{").code, "json.truncated");

  // The position always lands inside the buffer: a string cut points at
  // its opening quote, a structural cut at the end of what was read.
  JsonError err = parse_error("{\"k\":\n\"abc");
  EXPECT_EQ(err.code, "json.truncated");
  EXPECT_EQ(err.line, 2u);
  EXPECT_EQ(err.column, 1u);
  err = parse_error("[1,2,\n");
  EXPECT_EQ(err.code, "json.truncated");
  EXPECT_EQ(err.line, 2u);
  EXPECT_EQ(err.column, 1u);

  // An empty (or all-whitespace) document is not "truncated": nothing was
  // started, so the original code stands.
  EXPECT_EQ(parse_error("").code, "json.expected_value");
  EXPECT_EQ(parse_error("  \n ").code, "json.expected_value");
}

TEST(JsonParse, RejectsDuplicateKeys) {
  // "Last key wins" would make request handling order-dependent; the
  // protocol rejects the ambiguity outright.
  JsonError err = parse_error(R"({"op":"query","op":"stats"})");
  EXPECT_EQ(err.code, "json.duplicate_key");
  EXPECT_NE(err.message.find("op"), std::string::npos);
  // The position is the duplicate key's opening quote.
  EXPECT_EQ(err.line, 1);
  EXPECT_EQ(err.column, 15);
}

TEST(JsonParse, RejectsNonFiniteNumbers) {
  // A capacity of 1e999 overflows to inf in strtod; leaking that into
  // solver state would poison GK, so the parser fails loudly instead.
  EXPECT_EQ(parse_error("1e999").code, "json.number_nonfinite");
  EXPECT_EQ(parse_error("-1e999").code, "json.number_nonfinite");
  EXPECT_EQ(parse_error(R"({"demand":1e999})").code, "json.number_nonfinite");
  // Bare non-finite tokens are not JSON at all.
  EXPECT_EQ(parse_error("NaN").code, "json.expected_value");
  EXPECT_EQ(parse_error("Infinity").code, "json.expected_value");
}

TEST(JsonParse, RejectsRunawayNesting) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_EQ(parse_error(deep).code, "json.depth");
}

TEST(JsonParse, ReportsLineAndColumn) {
  JsonError err = parse_error("{\"a\":1,\n  \"b\":nul}");
  EXPECT_EQ(err.code, "json.bad_literal");
  EXPECT_EQ(err.line, 2u);
  EXPECT_EQ(err.column, 7u);

  err = parse_error("[1,2,\n3,\n4 5]");
  EXPECT_EQ(err.code, "json.expected_comma_or_close");
  EXPECT_EQ(err.line, 3u);
  EXPECT_EQ(err.column, 3u);

  err = parse_error("x");
  EXPECT_EQ(err.line, 1u);
  EXPECT_EQ(err.column, 1u);
}

TEST(JsonParse, IntVsDoubleSplit) {
  JsonValue v;
  ASSERT_TRUE(json_parse("9007199254740993", v));  // 2^53 + 1, still int64
  EXPECT_TRUE(v.is_int());
  ASSERT_TRUE(json_parse("1.0", v));
  EXPECT_TRUE(v.is_double());
  ASSERT_TRUE(json_parse("1e2", v));  // exponent form stays a double token
  EXPECT_TRUE(v.is_double());
  // -0 must stay a double so canonical re-emission round-trips the sign.
  ASSERT_TRUE(json_parse("-0", v));
  EXPECT_TRUE(v.is_double());
}

TEST(JsonParse, CanonicalReemissionIsAFixpoint) {
  // Whitespace and number spellings normalize once, then never again.
  const char* text = "  {\"a\" : [ 1 , 2.50 , \"x\" ] , \"b\" : true }  ";
  JsonValue v;
  ASSERT_TRUE(json_parse(text, v));
  std::string once = v.to_json();
  JsonValue v2;
  ASSERT_TRUE(json_parse(once, v2));
  EXPECT_EQ(v2.to_json(), once);
  EXPECT_EQ(once, R"({"a":[1,2.5,"x"],"b":true})");
}

/// Random JsonValue tree: every kind reachable, bounded depth/fanout,
/// unique object keys (duplicates are a parse error by design).
JsonValue random_value(util::Rng& rng, int depth) {
  std::uint64_t kind = rng.below(depth >= 3 ? 5 : 7);
  switch (kind) {
    case 0: return JsonValue::make_null();
    case 1: return JsonValue::make_bool(rng.chance(0.5));
    case 2: return JsonValue::make_int(-1000000 + static_cast<std::int64_t>(rng.below(2000001)));
    case 3: {
      double d = -1e9 + 2e9 * rng.uniform();
      if (rng.chance(0.25)) d = rng.uniform();  // exercise fractional spellings
      return JsonValue::make_double(d);
    }
    case 4: {
      static const char* pool[] = {"", "plain", "esc\"ape", "tab\there",
                                   "new\nline", "uni\x01code", "back\\slash"};
      return JsonValue::make_string(pool[rng.below(7)]);
    }
    case 5: {
      JsonValue arr = JsonValue::make_array();
      std::uint64_t n = rng.below(4);
      for (std::uint64_t i = 0; i < n; ++i)
        arr.array().push_back(random_value(rng, depth + 1));
      return arr;
    }
    default: {
      JsonValue obj = JsonValue::make_object();
      std::uint64_t n = rng.below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        std::string key = "k";
        key.append(std::to_string(i));
        obj.object().emplace_back(std::move(key), random_value(rng, depth + 1));
      }
      return obj;
    }
  }
}

TEST(JsonParse, RandomizedWriteParseWriteRoundTrip) {
  util::Rng rng(20260809);
  for (int trial = 0; trial < 500; ++trial) {
    JsonValue v = random_value(rng, 0);
    std::string written = v.to_json();
    ASSERT_TRUE(parses_as_json(written)) << written;
    JsonValue parsed;
    JsonError err;
    ASSERT_TRUE(json_parse(written, parsed, &err))
        << written << " -> " << err.code << ": " << err.message;
    EXPECT_EQ(parsed.to_json(), written);  // byte-equal round trip
  }
}

}  // namespace
}  // namespace flattree::obs
