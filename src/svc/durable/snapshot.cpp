#include "svc/durable/snapshot.hpp"

#include <limits>

#include "svc/durable/frame.hpp"
#include "util/crc32.hpp"
#include "util/scan.hpp"

namespace flattree::svc::durable {

using util::take_space;
using util::take_u64;
using util::take_word;

std::string encode_snapshot(const ServiceSnapshot& s) {
  std::string payload = "stats";
  for (const StatsField& f : kStatsFields) payload += ' ' + u64s(s.stats.*f.member);
  payload += "\nops";
  for (std::uint64_t v : s.stats.accepted_by_op) payload += ' ' + u64s(v);
  payload += "\ngroups " + u64s(s.groups_committed) + '\n';
  for (const SnapshotSession& sess : s.sessions) {
    payload += "session " + u64s(sess.id) + ' ' + u64s(sess.records.size()) + '\n';
    for (const SnapshotRecord& r : sess.records)
      payload += render_record(r.op, r.seq, r.canonical);
  }
  std::string out;
  out += kSnapshotHeaderV1;
  out += '\n';
  out += payload;
  out += "end " + util::crc32_hex(util::crc32(payload)) + '\n';
  return out;
}

bool decode_snapshot(const std::string& bytes, ServiceSnapshot& out,
                     SnapshotError& err) {
  out = ServiceSnapshot{};

  // Split into complete lines; any unterminated final segment means the
  // snapshot was cut mid-write.
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) {
      err = {"svc.snapshot.truncated", "snapshot ends with an unterminated line",
             lines.size() + 1};
      return false;
    }
    lines.push_back(bytes.substr(pos, nl - pos));
    pos = nl + 1;
  }
  if (lines.empty() || lines[0] != kSnapshotHeaderV1) {
    err = {"svc.snapshot.bad_header", "first line is not the v1 snapshot header", 1};
    return false;
  }
  if (lines.size() < 2 || lines.back().rfind("end ", 0) != 0) {
    err = {"svc.snapshot.truncated", "snapshot has no `end` trailer",
           lines.size()};
    return false;
  }

  // Verify the trailer CRC over the payload region (between the header
  // line and the `end` line) before trusting any field.
  {
    const std::string& endline = lines.back();
    std::uint32_t want = 0;
    if (!util::parse_crc32_hex(endline.substr(4), want)) {
      err = {"svc.snapshot.corrupt", "malformed `end` trailer", lines.size()};
      return false;
    }
    const std::size_t payload_begin = lines[0].size() + 1;
    const std::size_t payload_end = bytes.size() - endline.size() - 1;
    std::string payload = bytes.substr(payload_begin, payload_end - payload_begin);
    if (util::crc32(payload) != want) {
      err = {"svc.snapshot.corrupt", "payload CRC mismatch", lines.size()};
      return false;
    }
  }

  std::size_t li = 1;
  const std::size_t last = lines.size() - 1;  // the `end` line
  auto structural = [&](const char* tag, std::vector<std::uint64_t>& vals,
                        std::size_t expect) {
    if (li >= last) {
      err = {"svc.snapshot.truncated",
             std::string("missing `") + tag + "` line", li + 1};
      return false;
    }
    const std::string& line = lines[li];
    std::size_t p = 0;
    std::string word;
    if (!take_word(line, p, word) || word != tag) {
      err = {"svc.snapshot.corrupt", std::string("expected `") + tag + "` line",
             li + 1};
      return false;
    }
    vals.clear();
    while (p < line.size()) {
      std::uint64_t v = 0;
      if (!take_space(line, p) || !take_u64(line, p, v)) {
        err = {"svc.snapshot.corrupt", std::string("malformed `") + tag + "` line",
               li + 1};
        return false;
      }
      vals.push_back(v);
    }
    if (vals.size() != expect) {
      err = {"svc.snapshot.corrupt",
             std::string("`") + tag + "` line has " + u64s(vals.size()) +
                 " fields, expected " + u64s(expect),
             li + 1};
      return false;
    }
    ++li;
    return true;
  };

  std::vector<std::uint64_t> vals;
  if (!structural("stats", vals, kStatsFields.size())) return false;
  for (std::size_t i = 0; i < vals.size(); ++i)
    out.stats.*kStatsFields[i].member = vals[i];
  if (!structural("ops", vals, kOpCount)) return false;
  for (std::size_t i = 0; i < kOpCount; ++i) out.stats.accepted_by_op[i] = vals[i];
  if (!structural("groups", vals, 1)) return false;
  out.groups_committed = vals[0];

  while (li < last) {
    const std::string& line = lines[li];
    std::size_t p = 0;
    std::string word;
    std::uint64_t id = 0, count = 0;
    if (!take_word(line, p, word) || word != "session" || !take_space(line, p) ||
        !take_u64(line, p, id) || id > std::numeric_limits<std::uint32_t>::max() ||
        !take_space(line, p) || !take_u64(line, p, count) || p != line.size()) {
      err = {"svc.snapshot.corrupt", "expected `session` line", li + 1};
      return false;
    }
    ++li;
    SnapshotSession sess;
    sess.id = static_cast<std::uint32_t>(id);
    for (std::uint64_t r = 0; r < count; ++r) {
      if (li >= last) {
        err = {"svc.snapshot.truncated", "session record list cut short", li + 1};
        return false;
      }
      RecordFrame f;
      if (!parse_record(lines[li], f)) {
        err = {"svc.snapshot.bad_record",
               "session record line fails its framing, length or CRC", li + 1};
        return false;
      }
      sess.records.push_back({std::move(f.tag), f.seq, std::move(f.canonical)});
      ++li;
    }
    out.sessions.push_back(std::move(sess));
  }
  return true;
}

}  // namespace flattree::svc::durable
