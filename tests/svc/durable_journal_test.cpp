// Journal v2 unit coverage: writer -> reader round trips, the torn-tail
// sweep (every byte prefix of a journal parses, and durability never
// exceeds the last commit), pinned corruption codes with 1-based record
// numbers, the header check, and canonical integers in every frame kind.
// The crash-matrix test drives the same reader through the full service;
// this file pins the format itself.

#include "svc/durable/journal.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "util/crc32.hpp"

namespace flattree::svc::durable {
namespace {

/// A three-group journal exercising records, gaps of every class, and
/// tallies. Returns the bytes; `boundaries` gets the byte offset after
/// each commit (the clean-tear cut points).
std::string sample_journal(std::vector<std::uint64_t>* boundaries = nullptr) {
  std::ostringstream os;
  JournalWriter w(os);
  w.append_record(1, R"({"op":"build","k":4})");
  w.append_record(2, R"({"op":"query"})");
  w.add_tally({2, 1, 1, 0});
  w.commit();
  if (boundaries != nullptr) boundaries->push_back(os.str().size());
  w.append_gap(3, "reject");
  w.append_record(4, R"({"op":"fault","events":[]})");
  w.add_tally({0, 0, 0, 3});
  w.commit();
  if (boundaries != nullptr) boundaries->push_back(os.str().size());
  w.append_record(5, R"({"op":"query","id":"q"})");
  w.append_gap(6, "oversize");
  w.append_gap(7, "queue");
  w.append_gap(8, "deadline");
  w.commit();
  if (boundaries != nullptr) boundaries->push_back(os.str().size());
  return os.str();
}

TEST(Journal, WriterReaderRoundTrip) {
  std::string bytes = sample_journal();
  EXPECT_EQ(bytes.compare(0, std::string(kJournalHeaderV2).size(), kJournalHeaderV2),
            0);

  JournalContents c;
  JournalError err;
  ASSERT_TRUE(read_journal(bytes, c, err)) << err.code << ": " << err.message;
  ASSERT_EQ(c.groups.size(), 3u);
  EXPECT_EQ(c.records, 4u);
  EXPECT_EQ(c.last_seq, 8u);
  EXPECT_EQ(c.committed_bytes, bytes.size());
  EXPECT_EQ(c.truncated_bytes, 0u);

  const JournalGroup& g0 = c.groups[0];
  ASSERT_EQ(g0.entries.size(), 2u);
  EXPECT_EQ(g0.records, 2u);
  EXPECT_EQ(g0.tally.solves, 2u);
  EXPECT_EQ(g0.tally.truncated, 1u);
  EXPECT_EQ(g0.tally.certified, 1u);
  EXPECT_EQ(g0.entries[0].seq, 1u);
  EXPECT_EQ(g0.entries[0].canonical, R"({"op":"build","k":4})");

  const JournalGroup& g1 = c.groups[1];
  ASSERT_EQ(g1.entries.size(), 2u);
  EXPECT_FALSE(g1.entries[0].is_record);
  EXPECT_EQ(g1.entries[0].gap_class, "reject");
  EXPECT_EQ(g1.records, 1u);
  EXPECT_EQ(g1.tally.fault_events, 3u);

  const JournalGroup& g2 = c.groups[2];
  ASSERT_EQ(g2.entries.size(), 4u);
  EXPECT_EQ(g2.entries[1].gap_class, "oversize");
  EXPECT_EQ(g2.entries[2].gap_class, "queue");
  EXPECT_EQ(g2.entries[3].gap_class, "deadline");
}

TEST(Journal, EmptyAndHeaderOnlyAreValid) {
  JournalContents c;
  JournalError err;
  ASSERT_TRUE(read_journal("", c, err));
  EXPECT_TRUE(c.groups.empty());
  EXPECT_EQ(c.committed_bytes, 0u);

  std::string header = std::string(kJournalHeaderV2) + '\n';
  ASSERT_TRUE(read_journal(header, c, err));
  EXPECT_TRUE(c.groups.empty());
  EXPECT_EQ(c.committed_bytes, header.size());
  EXPECT_EQ(c.truncated_bytes, 0u);
}

TEST(Journal, EveryBytePrefixParsesAsATornTail) {
  // A crash can only shorten the file. Whatever byte it stops at, the
  // reader must accept the prefix, keep exactly the groups whose commit
  // frame survived whole, and report the rest as the torn tail — never a
  // corruption error, never durability past the cut.
  std::vector<std::uint64_t> boundaries;
  std::string bytes = sample_journal(&boundaries);
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    JournalContents c;
    JournalError err;
    ASSERT_TRUE(read_journal(bytes.substr(0, cut), c, err))
        << "cut " << cut << ": " << err.code;
    std::size_t want_groups = 0;
    for (std::uint64_t b : boundaries)
      if (b <= cut) ++want_groups;
    EXPECT_EQ(c.groups.size(), want_groups) << "cut " << cut;
    EXPECT_LE(c.committed_bytes, cut) << "cut " << cut;
    EXPECT_EQ(c.committed_bytes + c.truncated_bytes, cut) << "cut " << cut;
    // Re-reading just the durable prefix is a fixpoint: same groups, no tail.
    JournalContents again;
    ASSERT_TRUE(read_journal(bytes.substr(0, c.committed_bytes), again, err));
    EXPECT_EQ(again.groups.size(), want_groups) << "cut " << cut;
    EXPECT_EQ(again.truncated_bytes, 0u) << "cut " << cut;
  }
}

TEST(Journal, CorruptRecordIsRefusedWithRecordNumber) {
  // Flip one payload byte of the *first* record while the journal still
  // ends with later commits: a complete line that fails its CRC can only
  // be corruption (a tear would have shortened the file instead).
  std::string bytes = sample_journal();
  std::size_t at = bytes.find("\"k\":4");
  ASSERT_NE(at, std::string::npos);
  bytes[at + 4] = '5';
  JournalContents c;
  JournalError err;
  ASSERT_FALSE(read_journal(bytes, c, err));
  EXPECT_EQ(err.code, "svc.journal.corrupt_record");
  EXPECT_EQ(err.record, 1u);

  // Same flip in the third record: the 1-based record number follows.
  bytes = sample_journal();
  at = bytes.find("\"events\":[]");
  ASSERT_NE(at, std::string::npos);
  bytes[at + 10] = 'x';
  ASSERT_FALSE(read_journal(bytes, c, err));
  EXPECT_EQ(err.code, "svc.journal.corrupt_record");
  EXPECT_EQ(err.record, 3u);
}

TEST(Journal, CorruptGapAndCommitHaveTheirOwnCodes) {
  std::string bytes = sample_journal();
  std::size_t at = bytes.find("x 3 reject");
  ASSERT_NE(at, std::string::npos);
  std::string tampered = bytes;
  tampered.replace(at, 10, "x 3 oversiz");  // class no longer matches its crc
  JournalContents c;
  JournalError err;
  ASSERT_FALSE(read_journal(tampered, c, err));
  EXPECT_EQ(err.code, "svc.journal.corrupt_gap");
  EXPECT_EQ(err.record, 2u);  // records seen before the bad gap

  // Tamper the first commit's record count: the chain check catches a
  // commit that does not cover its group even when the line is well formed.
  at = bytes.find("\nc 2 ");
  ASSERT_NE(at, std::string::npos);
  tampered = bytes;
  tampered[at + 3] = '3';
  ASSERT_FALSE(read_journal(tampered, c, err));
  EXPECT_EQ(err.code, "svc.journal.corrupt_commit");
  EXPECT_EQ(err.record, 2u);
}

TEST(Journal, ForeignLineMidStreamIsCorruption) {
  // Includes a `u <records> <crc>` line: no frame kind of its own.
  for (const char* foreign : {"how did this get here\n", "u 1 0a1b2c3d\n"}) {
    std::string bytes = sample_journal();
    std::size_t at = bytes.find("x 3 reject");
    ASSERT_NE(at, std::string::npos);
    bytes.insert(at, foreign);
    JournalContents c;
    JournalError err;
    ASSERT_FALSE(read_journal(bytes, c, err)) << foreign;
    EXPECT_EQ(err.code, "svc.journal.corrupt_record") << foreign;
    EXPECT_EQ(err.record, 3u) << foreign;  // next record ordinal
  }
}

TEST(Journal, HeaderlessBytesAreRefusedAsBadHeader) {
  // Only a complete first line is judged: a partial one is a torn tail
  // (the every-byte-prefix sweep above covers it).
  const std::string bytes = sample_journal();
  const std::string bodies[] = {
      bytes.substr(bytes.find('\n') + 1),                    // header dropped
      "{\"op\":\"build\",\"k\":4}\n{\"op\":\"query\"}\n",  // bare canonical lines
      "# flattree-svc-journal v3\n",
      std::string(kJournalHeaderV2) + "\r\n",
      "\n",
  };
  for (const std::string& body : bodies) {
    JournalContents c;
    JournalError err;
    ASSERT_FALSE(read_journal(body, c, err)) << body;
    EXPECT_EQ(err.code, "svc.journal.bad_header") << body;
    EXPECT_EQ(err.record, 0u) << body;
  }
}

/// Replaces the first `from` in a sample journal with `to` and expects the
/// reader to refuse the result with `code` at record number `record`.
void expect_refused(const std::string& from, const std::string& to,
                    const std::string& code, std::uint64_t record) {
  std::string bytes = sample_journal();
  const std::size_t at = bytes.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  bytes.replace(at, from.size(), to);
  JournalContents c;
  JournalError err;
  ASSERT_FALSE(read_journal(bytes, c, err)) << to;
  EXPECT_EQ(err.code, code) << to;
  EXPECT_EQ(err.record, record) << to;
}

// Every CRC covers integers as re-rendered, not the bytes on disk, so a
// leading zero or a value that wraps past UINT64_MAX would checksum
// fine. The integer scanner must refuse both; 2^64 = 18446744073709551616.

TEST(Journal, RecordFrameRefusesNonCanonicalIntegers) {
  const std::string code = "svc.journal.corrupt_record";
  expect_refused("\nr 20 ", "\nr 020 ", code, 1);                   // len
  expect_refused("\nr 20 ", "\nr 18446744073709551636 ", code, 1);  // len wraps to 20
  expect_refused(" 1 {\"op\":\"build\"", " 01 {\"op\":\"build\"", code, 1);  // seq
  expect_refused(" 1 {\"op\":\"build\"", " 18446744073709551617 {\"op\":\"build\"",
                 code, 1);
}

TEST(Journal, GapFrameRefusesNonCanonicalIntegers) {
  const std::string code = "svc.journal.corrupt_gap";
  expect_refused("\nx 3 reject ", "\nx 03 reject ", code, 2);
  expect_refused("\nx 3 reject ", "\nx 18446744073709551619 reject ", code, 2);
}

TEST(Journal, CommitFrameRefusesNonCanonicalIntegers) {
  const std::string code = "svc.journal.corrupt_commit";
  expect_refused("\nc 2 2 1 1 0 ", "\nc 02 2 1 1 0 ", code, 2);  // records
  expect_refused("\nc 2 2 1 1 0 ", "\nc 2 02 1 1 0 ", code, 2);  // a tally field
  expect_refused("\nc 2 2 1 1 0 ", "\nc 2 18446744073709551618 1 1 0 ", code, 2);
}

TEST(Journal, EmptyCommitIsCorruption) {
  // The writer never seals an empty group, so a commit with no frames
  // before it is refused even when its own CRC (over "0 0 0 0 0" and no
  // member CRCs) checks out.
  const std::string empty_commit =
      "c 0 0 0 0 0 " + util::crc32_hex(util::crc32("0 0 0 0 0")) + "\n";
  JournalContents c;
  JournalError err;
  ASSERT_FALSE(read_journal(sample_journal() + empty_commit, c, err));
  EXPECT_EQ(err.code, "svc.journal.corrupt_commit");
  EXPECT_EQ(err.record, 4u);
}

TEST(Journal, ResumeWriterAppendsWithoutAHeader) {
  // The --recover path truncates the torn tail, then appends. The
  // resumed writer must not emit a second header, and the combined bytes
  // must read back as one journal.
  std::ostringstream first;
  {
    JournalWriter w(first);
    w.append_record(1, R"({"op":"build","k":4})");
    w.commit();
  }
  std::ostringstream second;
  {
    JournalWriter w(second, /*resume=*/true);
    w.append_record(2, R"({"op":"query"})");
    w.commit();
  }
  EXPECT_EQ(second.str().find(kJournalHeaderV2), std::string::npos);
  JournalContents c;
  JournalError err;
  ASSERT_TRUE(read_journal(first.str() + second.str(), c, err)) << err.code;
  ASSERT_EQ(c.groups.size(), 2u);
  EXPECT_EQ(c.records, 2u);
  EXPECT_EQ(c.last_seq, 2u);
}

TEST(Journal, EmptyCommitIsANoOp) {
  std::ostringstream os;
  JournalWriter w(os);
  w.add_tally({5, 0, 0, 0});  // tally with no frames: discarded, not committed
  w.commit();
  EXPECT_EQ(os.str(), std::string(kJournalHeaderV2) + '\n');
  EXPECT_EQ(w.groups_committed(), 0u);
  // The discarded tally must not leak into the next group.
  w.append_record(1, R"({"op":"query"})");
  w.commit();
  JournalContents c;
  JournalError err;
  ASSERT_TRUE(read_journal(os.str(), c, err)) << err.code;
  ASSERT_EQ(c.groups.size(), 1u);
  EXPECT_EQ(c.groups[0].tally.solves, 0u);
}

}  // namespace
}  // namespace flattree::svc::durable
