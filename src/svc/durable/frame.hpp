#pragma once
// Line framing shared by the two durable formats, journal v2
// (journal.hpp) and snapshot v1 (snapshot.hpp): the stored-request line
// both formats carry,
//
//   <tag> <len> <crc> <seq> <canonical>
//
// with tag `r` in a journal and the op token in a snapshot. `len` is the
// canonical's byte length and `crc` the CRC-32 of "<seq> <canonical>".
// Fields are read with the strict scanners of util/scan.hpp (canonical
// decimal integers up to UINT64_MAX), so a line they accept re-renders to
// its own bytes, which is what keeps both formats decode fixpoints.

#include <cstdint>
#include <string>

namespace flattree::svc::durable {

/// Decimal rendering of a frame integer.
std::string u64s(std::uint64_t v);

/// CRC-32 of "<seq> <body>": the checksum of a stored request (body = its
/// canonical) and of a journal gap frame (body = its class).
std::uint32_t record_crc(std::uint64_t seq, const std::string& body);

/// One decoded `<tag> <len> <crc> <seq> <canonical>` line.
struct RecordFrame {
  std::string tag;
  std::uint64_t seq = 0;
  std::string canonical;
  std::uint32_t crc = 0;  ///< record_crc(seq, canonical)
};

/// Renders one record line, '\n'-terminated.
std::string render_record(const std::string& tag, std::uint64_t seq,
                          const std::string& canonical);

/// Parses one record line (without its '\n'). False unless every field is
/// canonical and `len` and `crc` match the canonical.
bool parse_record(const std::string& line, RecordFrame& out);

}  // namespace flattree::svc::durable
