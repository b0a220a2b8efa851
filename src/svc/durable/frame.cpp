#include "svc/durable/frame.hpp"

#include <limits>

#include "util/crc32.hpp"

namespace flattree::svc::durable {

std::string u64s(std::uint64_t v) { return std::to_string(v); }

bool take_u64(const std::string& s, std::size_t& pos, std::uint64_t& out) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::size_t start = pos;
  std::uint64_t v = 0;
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
    const auto d = static_cast<std::uint64_t>(s[pos] - '0');
    if (v > (kMax - d) / 10) return false;
    v = v * 10 + d;
    ++pos;
  }
  if (pos == start || (s[start] == '0' && pos - start > 1)) return false;
  out = v;
  return true;
}

bool take_space(const std::string& s, std::size_t& pos) {
  if (pos >= s.size() || s[pos] != ' ') return false;
  ++pos;
  return true;
}

bool take_word(const std::string& s, std::size_t& pos, std::string& out) {
  std::size_t start = pos;
  while (pos < s.size() && s[pos] != ' ') ++pos;
  if (pos == start) return false;
  out = s.substr(start, pos - start);
  return true;
}

std::uint32_t record_crc(std::uint64_t seq, const std::string& body) {
  return util::crc32(u64s(seq) + ' ' + body);
}

std::string render_record(const std::string& tag, std::uint64_t seq,
                          const std::string& canonical) {
  return tag + ' ' + u64s(canonical.size()) + ' ' +
         util::crc32_hex(record_crc(seq, canonical)) + ' ' + u64s(seq) + ' ' +
         canonical + '\n';
}

bool parse_record(const std::string& line, RecordFrame& out) {
  std::size_t p = 0;
  std::uint64_t len = 0;
  std::string crc_hex;
  if (!take_word(line, p, out.tag) || !take_space(line, p) || !take_u64(line, p, len) ||
      !take_space(line, p) || !take_word(line, p, crc_hex) ||
      !util::parse_crc32_hex(crc_hex, out.crc) || !take_space(line, p) ||
      !take_u64(line, p, out.seq) || !take_space(line, p))
    return false;
  out.canonical = line.substr(p);
  return out.canonical.size() == len && record_crc(out.seq, out.canonical) == out.crc;
}

}  // namespace flattree::svc::durable
