#include "svc/protocol.hpp"

#include <array>
#include <cmath>

namespace flattree::svc {

namespace {

struct OpToken {
  Op op;
  const char* token;
};

constexpr std::array<OpToken, kOpCount> kOps = {{
    {Op::Hello, "hello"},
    {Op::Build, "build"},
    {Op::Traffic, "traffic"},
    {Op::Fault, "fault"},
    {Op::Convert, "convert"},
    {Op::WhatIf, "what_if"},
    {Op::Expand, "expand"},
    {Op::Query, "query"},
    {Op::Stats, "stats"},
    {Op::Manifest, "manifest"},
    {Op::Design, "design"},
}};

std::string op_list() {
  std::string out;
  for (const auto& t : kOps) {
    if (!out.empty()) out += ", ";
    out += t.token;
  }
  return out;
}

bool bad_field(RequestError& err, const char* key, const std::string& why) {
  err.code = "svc.request.bad_field";
  err.message = std::string("field '") + key + "': " + why;
  return false;
}

}  // namespace

const char* to_string(Op op) {
  for (const auto& t : kOps)
    if (t.op == op) return t.token;
  return "?";
}

bool parse_op(const std::string& token, Op& out) {
  for (const auto& t : kOps)
    if (token == t.token) {
      out = t.op;
      return true;
    }
  return false;
}

bool read_only(Op op) {
  return op == Op::Hello || op == Op::Query || op == Op::WhatIf ||
         op == Op::Design;
}

bool mutating(Op op) {
  return op == Op::Build || op == Op::Traffic || op == Op::Fault ||
         op == Op::Convert || op == Op::Expand;
}

bool req_u64(const obs::JsonValue& body, const char* key, std::uint64_t max,
             std::uint64_t& out, bool& present, RequestError& err) {
  present = false;
  const obs::JsonValue* v = body.find(key);
  if (v == nullptr) return true;
  if (!v->is_int() || v->as_int() < 0)
    return bad_field(err, key, "expected a non-negative integer");
  if (static_cast<std::uint64_t>(v->as_int()) > max)
    return bad_field(err, key, "must be <= " + std::to_string(max));
  out = static_cast<std::uint64_t>(v->as_int());
  present = true;
  return true;
}

bool req_bool(const obs::JsonValue& body, const char* key, bool& out, bool& present,
              RequestError& err) {
  present = false;
  const obs::JsonValue* v = body.find(key);
  if (v == nullptr) return true;
  if (!v->is_bool()) return bad_field(err, key, "expected a boolean");
  out = v->as_bool();
  present = true;
  return true;
}

bool req_string(const obs::JsonValue& body, const char* key, std::string& out,
                bool& present, RequestError& err) {
  present = false;
  const obs::JsonValue* v = body.find(key);
  if (v == nullptr) return true;
  if (!v->is_string()) return bad_field(err, key, "expected a string");
  out = v->as_string();
  present = true;
  return true;
}

std::string nested_u32(const obs::JsonValue& obj, const char* key, std::uint32_t lo,
                       std::uint32_t hi, std::uint32_t& out, bool& present) {
  present = false;
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr) return {};
  if (!v->is_int() || v->as_int() < lo || v->as_int() > hi)
    return "field '" + std::string(key) + "' must be an integer in [" + std::to_string(lo) +
           ", " + std::to_string(hi) + "]";
  out = static_cast<std::uint32_t>(v->as_int());
  present = true;
  return {};
}

bool parse_request(const std::string& line, std::uint64_t seq, Request& out,
                   RequestError& err) {
  out = Request{};
  out.seq = seq;

  obs::JsonValue v;
  obs::JsonError jerr;
  if (!obs::json_parse(line, v, &jerr)) {
    err = RequestError{jerr.code, jerr.message, jerr.line, jerr.column};
    return false;
  }
  if (!v.is_object()) {
    err = RequestError{"svc.request.not_object", "a request must be a JSON object"};
    return false;
  }

  const obs::JsonValue* op = v.find("op");
  if (op == nullptr || !op->is_string()) {
    err = RequestError{"svc.request.missing_op", "field 'op' (string) is required"};
    return false;
  }
  if (!parse_op(op->as_string(), out.op)) {
    err = RequestError{"svc.request.unknown_op",
                       "unknown op '" + op->as_string() + "'; valid ops: " + op_list()};
    return false;
  }

  if (const obs::JsonValue* id = v.find("id"); id != nullptr) {
    if (id->is_array() || id->is_object()) return bad_field(err, "id", "must be a scalar");
    out.id_json = id->to_json();
  }

  bool present = false;
  std::uint64_t session = 0;
  if (!req_u64(v, "session", kMaxSessions - 1, session, present, err)) return false;
  out.session = static_cast<std::uint32_t>(session);

  if (const obs::JsonValue* dl = v.find("deadline_ms"); dl != nullptr) {
    if (!dl->is_number() || dl->as_number() < 0.0)
      return bad_field(err, "deadline_ms", "expected a number >= 0");
    out.deadline_ms = dl->as_number();
  }

  out.canonical = v.to_json();
  out.body = std::move(v);
  return true;
}

namespace {

/// Opens the fixed-order envelope prefix; caller appends payload/error and
/// closes the object.
void begin_envelope(obs::JsonWriter& w, std::uint64_t seq, const std::string& id_json,
                    const char* op_token, bool ok) {
  w.begin_object();
  w.key("schema");
  w.string_value("flattree-svc.v1");
  w.key("seq");
  w.uint_value(seq);
  if (!id_json.empty()) {
    w.key("id");
    w.raw_value(id_json);
  }
  if (op_token != nullptr) {
    w.key("op");
    w.string_value(op_token);
  }
  w.key("ok");
  w.bool_value(ok);
}

void append_error(obs::JsonWriter& w, const RequestError& err) {
  w.key("error");
  w.begin_object();
  w.key("code");
  w.string_value(err.code);
  w.key("message");
  w.string_value(err.message);
  if (err.line > 0) {
    w.key("line");
    w.uint_value(err.line);
    w.key("col");
    w.uint_value(err.column);
  }
  w.end_object();
}

}  // namespace

std::string render_response(const Request& req, const obs::JsonValue& payload) {
  obs::JsonWriter w;
  begin_envelope(w, req.seq, req.id_json, to_string(req.op), /*ok=*/true);
  for (const auto& [key, value] : payload.object()) {
    w.key(key);
    value.write(w);
  }
  w.end_object();
  return w.str();
}

std::string render_error(const Request& req, const RequestError& err) {
  obs::JsonWriter w;
  begin_envelope(w, req.seq, req.id_json, to_string(req.op), /*ok=*/false);
  append_error(w, err);
  w.end_object();
  return w.str();
}

std::string render_line_error(std::uint64_t seq, const RequestError& err) {
  obs::JsonWriter w;
  begin_envelope(w, seq, /*id_json=*/{}, /*op_token=*/nullptr, /*ok=*/false);
  append_error(w, err);
  w.end_object();
  return w.str();
}

}  // namespace flattree::svc
