#pragma once
// flattree-svc.v1: the deterministic JSON-lines request protocol of the
// long-running controller service (DESIGN.md Section 9 has the full
// grammar).
//
// One request per input line, one response per request, in input order.
// Every request is a JSON object with an "op" member; the optional
// envelope fields are shared by all ops:
//
//   "id"          any scalar, echoed verbatim in the response
//   "session"     integer shard selector in [0, kMaxSessions)
//   "deadline_ms" per-request SLO budget (> 0; 0/absent = unlimited),
//                 mapped to a GK augmentation budget by svc/slo.hpp
//
// Responses open with a fixed key order — schema, seq, id (when present),
// op, ok — so response streams are comparable byte for byte across runs.
// seq is the 1-based input line number: blank or malformed lines consume a
// seq and produce an error response, keeping the 1:1 line correspondence.
//
// Determinism contract: parsing uses obs::json_parse (strict, stable error
// codes, duplicate keys and non-finite numbers rejected) and the journal
// stores the *canonical* re-rendering of each accepted request
// (JsonValue::to_json, a fixpoint under parse), so a journal replayed as a
// script reproduces the same state trajectory byte for byte.

#include <array>
#include <cstdint>
#include <string>

#include "obs/json.hpp"

namespace flattree::svc {

/// Session shards per service instance ("session" field range).
inline constexpr std::uint32_t kMaxSessions = 32;

/// Request operations. Read-only ops (read_only()) may be evaluated
/// concurrently inside a batch; every other op is a batch boundary.
enum class Op : std::uint8_t {
  Hello,     ///< protocol handshake, no state touched
  Build,     ///< construct a session's plant (fat-tree k or generic Clos)
  Traffic,   ///< install the session's traffic-matrix snapshot
  Fault,     ///< inject fault::FaultEvents (atomically validated)
  Convert,   ///< begin/advance a staged conversion
  WhatIf,    ///< hypothetical conversion query (non-mutating)
  Expand,    ///< plan (and optionally apply) a pod expansion
  Query,     ///< degraded-state metrics: stranded/APL/lambda
  Stats,     ///< deterministic service counters
  Manifest,  ///< dump the obs metrics manifest to a file
  Design,    ///< conversion-plan search for a declared workload mix
};

/// Number of Op enum values (payload tables are sized by this).
inline constexpr std::size_t kOpCount = 11;

/// Stable lowercase wire token ("hello", "what_if", ...).
const char* to_string(Op op);
/// Inverse of to_string; false when `token` names no op.
bool parse_op(const std::string& token, Op& out);
/// True for ops that never mutate service or session state (Hello, Query,
/// WhatIf, Design) — the batchable subset.
bool read_only(Op op);
/// True for the state-changing session ops (Build, Traffic, Fault,
/// Convert, Expand) — the ones a snapshot history replays. Stats and
/// Manifest are neither read_only nor mutating.
bool mutating(Op op);

/// Why a line was rejected. `code` is stable and namespaced: "json.*" from
/// the parser, "svc.request.*" for envelope violations, "svc.<op>.*" for
/// op-specific failures. line/column are only set for parse errors (1-based
/// within the request line; 0 = not applicable).
struct RequestError {
  std::string code;
  std::string message;
  std::size_t line = 0;
  std::size_t column = 0;
};

/// A parsed, envelope-validated request.
struct Request {
  Op op = Op::Hello;
  std::uint64_t seq = 0;     ///< 1-based input line number
  std::string id_json;       ///< canonical "id" rendering; empty = absent
  std::uint32_t session = 0; ///< shard index, default 0
  double deadline_ms = 0.0;  ///< 0 = no deadline
  obs::JsonValue body;       ///< the full request object
  std::string canonical;     ///< canonical rendering (the journal line)
};

/// Deterministic work accounting for one evaluated request, and the sum
/// over a journal group that its commit frame carries (wall-clock never
/// enters these).
struct EvalTally {
  std::uint64_t solves = 0;
  std::uint64_t truncated = 0;  ///< budget-truncated solves
  std::uint64_t certified = 0;  ///< solves whose certificate passed
  std::uint64_t fault_events = 0;
};

/// Deterministic run counters: what the `stats` op renders and what a
/// snapshot stores (wall-clock quantities are deliberately excluded —
/// they live in bench_service's latency histograms instead).
struct ServiceStats {
  std::uint64_t lines = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t accepted_by_op[kOpCount] = {};  ///< indexed by Op
  std::uint64_t fault_events = 0;
  std::uint64_t solves = 0;
  std::uint64_t truncated_solves = 0;
  std::uint64_t certified_solves = 0;
  std::uint64_t batches = 0;     ///< read-only flushes with >= 1 accepted
  std::uint64_t max_batch = 0;   ///< most accepted requests in one flush
  std::uint64_t journal_lines = 0;
  std::uint64_t shed_oversize = 0;  ///< lines over max_line_bytes
  std::uint64_t shed_queue = 0;     ///< svc.overload.queue_full sheds
  std::uint64_t shed_deadline = 0;  ///< svc.overload.deadline sheds
};

/// One scalar ServiceStats field and its `stats` payload key.
struct StatsField {
  const char* name;
  std::uint64_t ServiceStats::*member;
};

/// The scalar ServiceStats fields in wire order: the `stats` op payload
/// (which puts `ops` right after `rejected`) and the snapshot `stats` line.
inline constexpr std::array<StatsField, 13> kStatsFields = {{
    {"lines", &ServiceStats::lines},
    {"accepted", &ServiceStats::accepted},
    {"rejected", &ServiceStats::rejected},
    {"fault_events", &ServiceStats::fault_events},
    {"solves", &ServiceStats::solves},
    {"truncated_solves", &ServiceStats::truncated_solves},
    {"certified_solves", &ServiceStats::certified_solves},
    {"batches", &ServiceStats::batches},
    {"max_batch", &ServiceStats::max_batch},
    {"journal_lines", &ServiceStats::journal_lines},
    {"shed_oversize", &ServiceStats::shed_oversize},
    {"shed_queue", &ServiceStats::shed_queue},
    {"shed_deadline", &ServiceStats::shed_deadline},
}};

/// Parses one request line and validates the envelope fields. On failure
/// returns false with `err` filled; `out` is unspecified.
bool parse_request(const std::string& line, std::uint64_t seq, Request& out,
                   RequestError& err);

/// Success envelope: {"schema","seq","id"?,"op","ok":true, ...payload
/// members in stored order...}. `payload` must be an Object.
std::string render_response(const Request& req, const obs::JsonValue& payload);
/// Error envelope for a parsed request (id/op echoed).
std::string render_error(const Request& req, const RequestError& err);
/// Error envelope for a line that never became a request (no id/op known).
std::string render_line_error(std::uint64_t seq, const RequestError& err);

// -- payload-building shorthand ---------------------------------------------

/// Integer payload value.
inline obs::JsonValue jint(std::int64_t v) { return obs::JsonValue::make_int(v); }
/// Double payload value (canonical shortest-round-trip spelling).
inline obs::JsonValue jdouble(double v) { return obs::JsonValue::make_double(v); }
/// Boolean payload value.
inline obs::JsonValue jbool(bool v) { return obs::JsonValue::make_bool(v); }
/// String payload value (escaped at render time).
inline obs::JsonValue jstr(std::string v) {
  return obs::JsonValue::make_string(std::move(v));
}
/// Appends `key: v` to an object payload, preserving insertion order.
inline void put(obs::JsonValue& obj, std::string key, obs::JsonValue v) {
  obj.object().emplace_back(std::move(key), std::move(v));
}

// -- body-field extraction ---------------------------------------------------
//
// Each helper returns false (filling `err` with svc.request.bad_field) when
// the field exists with the wrong kind or out-of-range value; an absent
// field succeeds with `present = false` and leaves `out` untouched, so
// callers keep their defaults.

bool req_u64(const obs::JsonValue& body, const char* key, std::uint64_t max,
             std::uint64_t& out, bool& present, RequestError& err);
/// Optional boolean field; see the block comment above.
bool req_bool(const obs::JsonValue& body, const char* key, bool& out, bool& present,
              RequestError& err);
/// Optional string field; see the block comment above.
bool req_string(const obs::JsonValue& body, const char* key, std::string& out,
                bool& present, RequestError& err);

/// Integer member `key` of an object nested in a request array (fault
/// events, design mix components), bounded to [lo, hi]. Returns "" when the
/// member is absent (`present = false`, `out` untouched) or in range (`out`
/// set); otherwise the reason to refuse it, which the caller reports under
/// its op's code. A value above hi is refused, never wrapped to 32 bits.
std::string nested_u32(const obs::JsonValue& obj, const char* key, std::uint32_t lo,
                       std::uint32_t hi, std::uint32_t& out, bool& present);

}  // namespace flattree::svc
