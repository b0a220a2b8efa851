#include "svc/durable/journal.hpp"

#include <ostream>

#include "obs/metrics.hpp"
#include "svc/durable/frame.hpp"
#include "util/crc32.hpp"
#include "util/scan.hpp"

namespace flattree::svc::durable {

using util::take_space;
using util::take_u64;
using util::take_word;

namespace {

obs::Counter c_records("svc.durable.records");
obs::Counter c_gaps("svc.durable.gaps");
obs::Counter c_groups("svc.durable.groups");
obs::Counter c_read_records("svc.durable.records_read");
obs::Counter c_truncated("svc.durable.truncated_bytes");

/// CRC payload of a commit frame: the tally fields plus the chained member
/// frame CRCs, so one commit certifies the whole group.
std::uint32_t commit_crc(std::uint64_t records, const EvalTally& t,
                         const std::vector<std::uint32_t>& member_crcs) {
  std::string payload = u64s(records) + ' ' + u64s(t.solves) + ' ' + u64s(t.truncated) +
                        ' ' + u64s(t.certified) + ' ' + u64s(t.fault_events);
  for (std::uint32_t c : member_crcs) payload += ' ' + util::crc32_hex(c);
  return util::crc32(payload);
}

}  // namespace

JournalWriter::JournalWriter(std::ostream& out, bool resume) : out_(&out) {
  if (!resume) {
    *out_ << kJournalHeaderV2 << '\n';
    out_->flush();
  }
}

void JournalWriter::append_record(std::uint64_t seq, const std::string& canonical) {
  pending_.push_back({true, seq, canonical, {}});
}

void JournalWriter::append_gap(std::uint64_t seq, const std::string& gap_class) {
  pending_.push_back({false, seq, {}, gap_class});
}

void JournalWriter::add_tally(const EvalTally& t) {
  tally_.solves += t.solves;
  tally_.truncated += t.truncated;
  tally_.certified += t.certified;
  tally_.fault_events += t.fault_events;
}

void JournalWriter::commit() {
  if (pending_.empty()) {
    tally_ = EvalTally{};
    return;
  }
  std::uint64_t records = 0;
  std::vector<std::uint32_t> member_crcs;
  member_crcs.reserve(pending_.size());
  std::string block;
  for (const JournalEntry& e : pending_) {
    if (e.is_record) {
      ++records;
      member_crcs.push_back(record_crc(e.seq, e.canonical));
      block += render_record("r", e.seq, e.canonical);
      c_records.inc();
    } else {
      member_crcs.push_back(record_crc(e.seq, e.gap_class));
      block += "x " + u64s(e.seq) + ' ' + e.gap_class + ' ' +
               util::crc32_hex(member_crcs.back()) + '\n';
      c_gaps.inc();
    }
  }
  block += "c " + u64s(records) + ' ' + u64s(tally_.solves) + ' ' +
           u64s(tally_.truncated) + ' ' + u64s(tally_.certified) + ' ' +
           u64s(tally_.fault_events) + ' ' +
           util::crc32_hex(commit_crc(records, tally_, member_crcs)) + '\n';
  *out_ << block;
  out_->flush();
  ++groups_;
  c_groups.inc();
  pending_.clear();
  tally_ = EvalTally{};
}

bool read_journal(const std::string& bytes, JournalContents& out, JournalError& err) {
  out = JournalContents{};

  // Split into complete lines; a final segment without '\n' is a partial
  // (torn) line and never parsed.
  struct Line {
    std::size_t begin;  ///< offset of the first byte
    std::size_t end;    ///< offset one past the terminating '\n'
  };
  std::vector<Line> lines;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) break;  // partial final line -> torn tail
    lines.push_back({pos, nl + 1});
    pos = nl + 1;
  }
  auto text = [&](const Line& l) {
    return bytes.substr(l.begin, l.end - l.begin - 1);
  };

  if (!lines.empty()) {
    if (text(lines[0]) != kJournalHeaderV2) {
      err = {"svc.journal.bad_header", "first line is not the v2 journal header", 0};
      return false;
    }
    out.committed_bytes = lines[0].end;  // the header itself is durable
  }
  std::vector<JournalEntry> pending;
  std::vector<std::uint32_t> pending_crcs;
  std::uint64_t pending_records = 0;
  std::uint64_t records_seen = 0;

  for (std::size_t li = 1; li < lines.size(); ++li) {
    const std::string line = text(lines[li]);
    const std::string tag = line.substr(0, line.find(' '));
    std::size_t p = tag.size() + 1;
    if (tag == "r") {
      RecordFrame f;
      if (!parse_record(line, f)) {
        err = {"svc.journal.corrupt_record",
               "record frame at line " + std::to_string(li + 1) +
                   " fails to parse or checksum",
               records_seen + 1};
        return false;
      }
      pending.push_back({true, f.seq, std::move(f.canonical), {}});
      pending_crcs.push_back(f.crc);
      ++pending_records;
      ++records_seen;
    } else if (tag == "x") {
      std::uint64_t seq = 0;
      std::string cls, crc_hex;
      std::uint32_t crc = 0;
      if (!take_u64(line, p, seq) || !take_space(line, p) || !take_word(line, p, cls) ||
          !take_space(line, p) || !take_word(line, p, crc_hex) || p != line.size() ||
          !util::parse_crc32_hex(crc_hex, crc) || record_crc(seq, cls) != crc) {
        err = {"svc.journal.corrupt_gap",
               "gap frame at line " + std::to_string(li + 1) +
                   " fails to parse or checksum",
               records_seen};
        return false;
      }
      pending.push_back({false, seq, {}, std::move(cls)});
      pending_crcs.push_back(crc);
    } else if (tag == "c") {
      // A commit seals at least one frame: the writer never emits an empty
      // group, so one on disk is not a fixpoint of the format.
      JournalGroup g;
      std::string crc_hex;
      std::uint32_t crc = 0;
      if (pending.empty() || !take_u64(line, p, g.records) || !take_space(line, p) ||
          !take_u64(line, p, g.tally.solves) || !take_space(line, p) ||
          !take_u64(line, p, g.tally.truncated) || !take_space(line, p) ||
          !take_u64(line, p, g.tally.certified) || !take_space(line, p) ||
          !take_u64(line, p, g.tally.fault_events) || !take_space(line, p) ||
          !take_word(line, p, crc_hex) || p != line.size() ||
          !util::parse_crc32_hex(crc_hex, crc) || g.records != pending_records ||
          commit_crc(g.records, g.tally, pending_crcs) != crc) {
        err = {"svc.journal.corrupt_commit",
               "commit frame at line " + std::to_string(li + 1) +
                   " fails to parse, checksum, or chain over its group",
               records_seen};
        return false;
      }
      for (const JournalEntry& e : pending)
        if (e.seq > out.last_seq) out.last_seq = e.seq;
      g.entries = std::move(pending);
      out.records += g.records;
      out.groups.push_back(std::move(g));
      out.committed_bytes = lines[li].end;
      pending.clear();
      pending_crcs.clear();
      pending_records = 0;
    } else {
      err = {"svc.journal.corrupt_record",
             "line " + std::to_string(li + 1) + " is not a journal frame",
             records_seen + 1};
      return false;
    }
  }

  // Complete frames after the last commit plus any partial final line are
  // the torn tail: durable only up to committed_bytes.
  out.truncated_bytes = bytes.size() - out.committed_bytes;
  c_read_records.add(out.records);
  c_truncated.add(out.truncated_bytes);
  return true;
}

}  // namespace flattree::svc::durable
