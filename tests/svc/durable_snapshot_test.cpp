// Snapshot v1 unit coverage: the encode/decode byte-exact round trip,
// every decode refusal path with its pinned code (non-canonical integers
// included), and the check::validate_snapshot invariant battery on both a
// live service's snapshot and hand-broken ones.

#include "svc/durable/snapshot.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/snapshot_check.hpp"
#include "svc/service.hpp"
#include "util/crc32.hpp"

namespace flattree::svc::durable {
namespace {

/// Recomputes the `end` trailer CRC, so a payload edit reaches the line
/// parsers behind it.
std::string reseal(const std::string& bytes) {
  const std::size_t payload_begin = bytes.find('\n') + 1;
  const std::size_t end_at = bytes.rfind("end ");
  const std::string payload = bytes.substr(payload_begin, end_at - payload_begin);
  return bytes.substr(0, end_at) + "end " + util::crc32_hex(util::crc32(payload)) +
         "\n";
}

/// A hand-built snapshot with two sessions and non-trivial counters.
ServiceSnapshot sample_snapshot() {
  ServiceSnapshot s;
  s.stats.lines = 9;
  s.stats.accepted = 7;
  s.stats.rejected = 2;
  s.stats.fault_events = 3;
  s.stats.solves = 4;
  s.stats.truncated_solves = 1;
  s.stats.certified_solves = 1;
  s.stats.batches = 2;
  s.stats.max_batch = 3;
  s.stats.journal_lines = 7;
  s.stats.shed_oversize = 1;
  s.stats.shed_queue = 1;
  s.stats.shed_deadline = 0;
  s.stats.accepted_by_op[static_cast<std::size_t>(Op::Build)] = 2;
  s.stats.accepted_by_op[static_cast<std::size_t>(Op::Query)] = 5;
  s.groups_committed = 6;
  SnapshotSession a;
  a.id = 0;
  a.records.push_back({"build", 1, R"({"op":"build","k":4})"});
  a.records.push_back({"fault", 4, R"({"op":"fault","events":[]})"});
  SnapshotSession b;
  b.id = 2;
  b.records.push_back({"build", 7, R"({"op":"build","k":4,"session":2})"});
  s.sessions.push_back(std::move(a));
  s.sessions.push_back(std::move(b));
  return s;
}

TEST(Snapshot, EncodeDecodeIsAByteExactRoundTrip) {
  ServiceSnapshot s = sample_snapshot();
  std::string bytes = encode_snapshot(s);
  EXPECT_EQ(bytes.compare(0, std::string(kSnapshotHeaderV1).size(), kSnapshotHeaderV1),
            0);

  ServiceSnapshot d;
  SnapshotError err;
  ASSERT_TRUE(decode_snapshot(bytes, d, err)) << err.code << ": " << err.message;
  // encode(decode(s)) == s, byte for byte — the canonical-encoding contract.
  EXPECT_EQ(encode_snapshot(d), bytes);
  EXPECT_EQ(d.stats.lines, 9u);
  EXPECT_EQ(d.stats.accepted_by_op[static_cast<std::size_t>(Op::Query)], 5u);
  EXPECT_EQ(d.groups_committed, 6u);
  ASSERT_EQ(d.sessions.size(), 2u);
  EXPECT_EQ(d.sessions[1].id, 2u);
  ASSERT_EQ(d.sessions[0].records.size(), 2u);
  EXPECT_EQ(d.sessions[0].records[1].op, "fault");
  EXPECT_EQ(d.sessions[0].records[1].seq, 4u);
}

TEST(Snapshot, DecodeRefusesEachCorruptionClass) {
  const std::string bytes = encode_snapshot(sample_snapshot());
  ServiceSnapshot d;
  SnapshotError err;

  ASSERT_FALSE(decode_snapshot("# some other file v9\n", d, err));
  EXPECT_EQ(err.code, "svc.snapshot.bad_header");

  // Cut mid-line (a torn snapshot write): truncated, not corrupt.
  ASSERT_FALSE(decode_snapshot(bytes.substr(0, bytes.size() - 3), d, err));
  EXPECT_EQ(err.code, "svc.snapshot.truncated");

  // Complete lines but no `end` trailer.
  std::string no_end = bytes.substr(0, bytes.rfind("end "));
  ASSERT_FALSE(decode_snapshot(no_end, d, err));
  EXPECT_EQ(err.code, "svc.snapshot.truncated");

  // One flipped payload byte: the trailer CRC refuses before any field is
  // trusted.
  std::string flipped = bytes;
  std::size_t at = flipped.find("groups 6");
  ASSERT_NE(at, std::string::npos);
  flipped[at + 7] = '7';
  ASSERT_FALSE(decode_snapshot(flipped, d, err));
  EXPECT_EQ(err.code, "svc.snapshot.corrupt");
  EXPECT_NE(err.message.find("CRC"), std::string::npos);
}

TEST(Snapshot, DecodeRefusesABadRecordBehindAValidTrailer) {
  // A record whose own CRC disagrees, re-sealed with a recomputed trailer
  // (the attack the per-record CRC exists for: the trailer alone cannot
  // localize which record went bad).
  std::string bytes = encode_snapshot(sample_snapshot());
  std::size_t at = bytes.find("\"k\":4}");
  ASSERT_NE(at, std::string::npos);
  bytes[at + 4] = '6';  // record bytes no longer match the record CRC
  bytes = reseal(bytes);
  ServiceSnapshot d;
  SnapshotError err;
  ASSERT_FALSE(decode_snapshot(bytes, d, err));
  EXPECT_EQ(err.code, "svc.snapshot.bad_record");
  EXPECT_EQ(err.line, 6u);  // header, stats, ops, groups, session, then the record
}

/// Replaces the first `from` in the sample encoding with `to`, re-seals the
/// trailer, and expects decode to refuse with `code` at `line`.
void expect_refused(const std::string& from, const std::string& to,
                    const std::string& code, std::uint64_t line) {
  std::string bytes = encode_snapshot(sample_snapshot());
  const std::size_t at = bytes.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  bytes = reseal(bytes.replace(at, from.size(), to));
  ServiceSnapshot d;
  SnapshotError err;
  ASSERT_FALSE(decode_snapshot(bytes, d, err)) << to;
  EXPECT_EQ(err.code, code) << to;
  EXPECT_EQ(err.line, line) << to;
}

// A leading zero or a value past UINT64_MAX (2^64 = 18446744073709551616)
// would decode to a number that re-encodes differently, so encode(decode(s))
// == s needs every integer scanner to refuse both.

TEST(Snapshot, StatsLineRefusesNonCanonicalIntegers) {
  expect_refused("\nstats 9 ", "\nstats 09 ", "svc.snapshot.corrupt", 2);
  expect_refused("\nstats 9 ", "\nstats 18446744073709551625 ", "svc.snapshot.corrupt", 2);
}

TEST(Snapshot, OpsLineRefusesNonCanonicalIntegers) {
  expect_refused("\nops 0 2 ", "\nops 00 2 ", "svc.snapshot.corrupt", 3);
  expect_refused("\nops 0 2 ", "\nops 18446744073709551616 2 ", "svc.snapshot.corrupt", 3);
}

TEST(Snapshot, GroupsLineRefusesNonCanonicalIntegers) {
  expect_refused("\ngroups 6\n", "\ngroups 06\n", "svc.snapshot.corrupt", 4);
  expect_refused("\ngroups 6\n", "\ngroups 18446744073709551622\n", "svc.snapshot.corrupt",
                 4);
}

TEST(Snapshot, SessionLineRefusesNonCanonicalIntegers) {
  const std::string code = "svc.snapshot.corrupt";
  expect_refused("\nsession 0 2\n", "\nsession 00 2\n", code, 5);
  expect_refused("\nsession 0 2\n", "\nsession 0 02\n", code, 5);
  // An id past the 32-bit shard field would truncate on decode.
  expect_refused("\nsession 2 1\n", "\nsession 4294967298 1\n", code, 8);
  expect_refused("\nsession 2 1\n", "\nsession 18446744073709551618 1\n", code, 8);
}

TEST(Snapshot, RecordLineRefusesNonCanonicalIntegers) {
  const std::string code = "svc.snapshot.bad_record";
  expect_refused("\nbuild 20 ", "\nbuild 020 ", code, 6);  // len
  expect_refused("\nbuild 20 ", "\nbuild 18446744073709551636 ", code, 6);
  expect_refused(" 1 {\"op\":\"build\"", " 01 {\"op\":\"build\"", code, 6);  // seq
  expect_refused(" 1 {\"op\":\"build\"", " 18446744073709551617 {\"op\":\"build\"",
                 code, 6);
}

TEST(Snapshot, ValidateBatteryPassesALiveServiceSnapshot) {
  ServiceOptions opt;
  Service service(opt);
  std::istringstream in(
      "{\"op\":\"build\",\"k\":4}\n"
      "{\"op\":\"traffic\",\"seed\":1}\n"
      "{\"op\":\"query\"}\n"
      "{\"op\":\"build\",\"k\":4,\"session\":3}\n"
      "{\"op\":\"nonsense\"}\n");
  std::ostringstream out;
  service.run(in, out);
  ServiceSnapshot s = service.snapshot_state();
  check::Report rep = check::validate_snapshot(s);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  ASSERT_EQ(s.sessions.size(), 2u);  // shards 0 and 3 hold state
  EXPECT_EQ(s.sessions[0].records[0].op, "build");
}

TEST(Snapshot, ValidateBatteryFlagsBrokenInvariants) {
  ServiceSnapshot s = sample_snapshot();
  ASSERT_TRUE(check::validate_snapshot(s).ok())
      << check::validate_snapshot(s).to_string();  // clean baseline

  s.stats.accepted = 8;  // no longer the sum of by_op, and lines != a + r
  check::Report rep = check::validate_snapshot(s);
  EXPECT_FALSE(rep.ok());
  ASSERT_GE(rep.violations.size(), 2u);
  EXPECT_EQ(rep.violations[0].code, "snapshot.counter");

  s = sample_snapshot();
  s.sessions[0].records[0].op = "query";  // read-only op in a history
  rep = check::validate_snapshot(s);
  EXPECT_FALSE(rep.ok());
  bool saw_record = false;
  for (const auto& v : rep.violations) saw_record |= v.code == "snapshot.record";
  EXPECT_TRUE(saw_record);

  s = sample_snapshot();
  s.sessions[0].records[1].seq = 1;  // seq must strictly increase
  EXPECT_FALSE(check::validate_snapshot(s).ok());

  s = sample_snapshot();
  std::swap(s.sessions[0], s.sessions[1]);  // ids must ascend
  EXPECT_FALSE(check::validate_snapshot(s).ok());

  EXPECT_TRUE(check::validate_snapshot(ServiceSnapshot{}).ok());  // empty is clean
}

}  // namespace
}  // namespace flattree::svc::durable
