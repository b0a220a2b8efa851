#pragma once
// Snapshot v1: the canonical `# flattree-svc-snapshot v1` text encoding of
// full service state. A snapshot is command-sourced: instead of
// serializing engine internals, it stores each session's *mutating request
// history* (the canonical build/traffic/fault/convert/expand lines, in seq
// order). decode + re-executing that history through
// the normal eval path rebuilds byte-identical session state — the same
// warm/cold bitwise-equality invariant the service already relies on.
// A successful `build` resets its session, so the service compacts the
// history at that point; histories stay proportional to mutations since
// the last build, not to run length.
//
// Grammar (line-oriented; every line '\n'-terminated):
//
//   # flattree-svc-snapshot v1
//   stats <13 u64 counters>          the scalar ServiceStats fields
//   ops <kOpCount u64s>              accepted_by_op, indexed by svc::Op
//   groups <n>                       journal groups committed so far
//   session <id> <count>             then `count` record lines:
//   <op> <len> <crc> <seq> <canonical>
//   end <crc>
//
// Record lines are the journal v2 record framing (frame.hpp: len =
// canonical byte length, crc = CRC-32 of "<seq> <canonical>") with the op
// token as the tag; the `end` trailer CRCs the whole payload region
// between the header line and itself. The encoding is
// canonical: encode(decode(s)) == s byte for byte for any snapshot this
// module produced, which is what the snapshot round-trip selfcheck
// asserts after every periodic snapshot.

#include <cstdint>
#include <string>
#include <vector>

#include "svc/protocol.hpp"

namespace flattree::svc::durable {

/// First line of every v1 snapshot.
inline constexpr char kSnapshotHeaderV1[] = "# flattree-svc-snapshot v1";

/// One replayable mutating request in a session's history.
struct SnapshotRecord {
  std::string op;         ///< wire token (build/traffic/fault/convert/expand)
  std::uint64_t seq = 0;  ///< original 1-based input line number
  std::string canonical;  ///< canonical request JSON
};

/// One session shard's history (only shards with state are encoded).
struct SnapshotSession {
  std::uint32_t id = 0;
  std::vector<SnapshotRecord> records;
};

/// Full decoded snapshot: counters (restored verbatim on recovery, never
/// recounted), journal-group cursor (snapshot cadence stays aligned across
/// recovery), and per-session histories.
struct ServiceSnapshot {
  ServiceStats stats;
  std::uint64_t groups_committed = 0;
  std::vector<SnapshotSession> sessions;
};

/// Why a snapshot was refused. `line` is the 1-based line number of the
/// offending snapshot line (0 when the failure is not line-specific).
struct SnapshotError {
  std::string code;
  std::string message;
  std::uint64_t line = 0;
};

/// Renders the canonical v1 encoding (a decode fixpoint).
std::string encode_snapshot(const ServiceSnapshot& s);

/// Parses and CRC-validates snapshot bytes. Stable codes:
/// svc.snapshot.bad_header, svc.snapshot.truncated (missing/incomplete
/// trailer), svc.snapshot.corrupt (structural line or trailer CRC),
/// svc.snapshot.bad_record (record line framing or CRC).
bool decode_snapshot(const std::string& bytes, ServiceSnapshot& out,
                     SnapshotError& err);

}  // namespace flattree::svc::durable
