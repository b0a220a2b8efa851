#pragma once
// Journal v2: the CRC-framed durable request log of the flattree-svc
// service. A journal is a line-oriented text file:
//
//   # flattree-svc-journal v2
//   r <len> <crc> <seq> <canonical>     one accepted request (record frame)
//   x <seq> <class> <crc>               one rejected line   (gap frame)
//   c <records> <solves> <truncated> <certified> <fault_events> <crc>
//
// Record frames carry the request's 1-based input line number (`seq`) and
// its canonical JSON rendering; `len` is the canonical's byte length and
// `crc` is the CRC-32 of "<seq> <canonical>" (the framing lives in
// frame.hpp, shared with snapshot records). Gap frames are content-free
// markers for input lines answered with an error (class: reject |
// oversize | queue | deadline), so a recovered run reproduces the
// rejected/shed counters exactly. A commit frame seals the frames written
// since the previous commit into one *group* — the durability point. Its
// `crc` chains over the group's frame CRCs plus the tally fields, so a
// commit certifies the whole group. Groups coincide with the service's
// deterministic batch boundaries, which is what makes resuming at a
// commit point byte-exact (see docs/durability.md).
//
// Recovery reader semantics:
//   * a partial final line (no trailing '\n') and any complete frames after
//     the last valid commit frame are a *torn tail*: truncated, reported via
//     truncated_bytes — a crash can only tear the end of the file;
//   * a complete first line that is not the v2 header, and a complete line
//     that fails to parse or checksum, are *corruption* (a tear never
//     produces one): the reader refuses the journal with a stable error
//     code and the 1-based record number.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "svc/protocol.hpp"

namespace flattree::svc::durable {

/// First line of every v2 journal.
inline constexpr char kJournalHeaderV2[] = "# flattree-svc-journal v2";

/// One frame inside a group: an accepted-request record, or a gap marker
/// for a rejected/shed input line (canonical empty, gap_class set).
struct JournalEntry {
  bool is_record = true;
  std::uint64_t seq = 0;
  std::string canonical;   ///< canonical request JSON (records only)
  std::string gap_class;   ///< reject | oversize | queue | deadline (gaps only)
};

/// One committed group: the frames sealed by a single commit frame, in
/// their original (input) order, plus the commit's work tally (which lets
/// recovery fast-forward read-only groups without re-solving).
struct JournalGroup {
  std::vector<JournalEntry> entries;
  EvalTally tally;
  std::uint64_t records = 0;  ///< record frames in `entries`
};

/// Why a journal was refused. `record` is the 1-based ordinal of the
/// offending record frame (for a corrupt commit frame: the last record
/// read before it).
struct JournalError {
  std::string code;
  std::string message;
  std::uint64_t record = 0;
};

/// A fully validated journal: the committed groups plus the byte accounting
/// the recovery path needs to truncate a torn tail in place.
struct JournalContents {
  std::vector<JournalGroup> groups;
  std::uint64_t records = 0;          ///< committed record frames
  std::uint64_t last_seq = 0;         ///< highest committed seq (records + gaps)
  std::uint64_t committed_bytes = 0;  ///< durable prefix length (incl. header)
  std::uint64_t truncated_bytes = 0;  ///< torn tail dropped by the reader
};

/// Parses journal bytes. Returns false only on corruption (err filled,
/// stable code + 1-based record number); a torn tail is not an error — it
/// is truncated and reported through `out.truncated_bytes`.
bool read_journal(const std::string& bytes, JournalContents& out, JournalError& err);

/// Streaming v2 writer. append_record/append_gap/add_tally buffer frames
/// for the open group; commit() writes them followed by the sealing commit
/// frame and flushes the stream — nothing is durable until its commit.
/// With `resume = true` the header is not written (appending to an
/// existing, tail-truncated journal after recovery).
class JournalWriter {
 public:
  explicit JournalWriter(std::ostream& out, bool resume = false);

  /// Buffers one accepted-request record frame for the open group.
  void append_record(std::uint64_t seq, const std::string& canonical);
  /// Buffers one rejected-line gap marker for the open group.
  void append_gap(std::uint64_t seq, const std::string& gap_class);
  /// Accumulates into the open group's tally (written by the commit frame).
  void add_tally(const EvalTally& t);
  /// Seals the open group; no-op when no frames are buffered.
  void commit();

  std::uint64_t groups_committed() const { return groups_; }

 private:
  std::ostream* out_;
  std::vector<JournalEntry> pending_;
  EvalTally tally_;
  std::uint64_t groups_ = 0;
};

}  // namespace flattree::svc::durable
