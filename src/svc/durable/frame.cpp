#include "svc/durable/frame.hpp"

#include "util/crc32.hpp"
#include "util/scan.hpp"

namespace flattree::svc::durable {

using util::take_space;
using util::take_u64;
using util::take_word;

std::string u64s(std::uint64_t v) { return std::to_string(v); }

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
