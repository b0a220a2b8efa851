#include "util/scan.hpp"

#include <limits>

namespace flattree::util {

const char* describe(UintError e) {
  switch (e) {
    case UintError::Ok: return "ok";
    case UintError::Empty: return "missing integer";
    case UintError::Sign: return "signed integer";
    case UintError::NotDigit: return "non-digit in integer";
    case UintError::LeadingZero: return "leading zero";
    case UintError::TooLarge: return "integer out of range";
  }
  return "bad integer";
}

UintError parse_uint(std::string_view token, std::uint64_t max, std::uint64_t& out) {
  if (token.empty()) return UintError::Empty;
  if (token[0] == '+' || token[0] == '-') return UintError::Sign;
  for (char c : token)
    if (c < '0' || c > '9') return UintError::NotDigit;
  if (token[0] == '0' && token.size() > 1) return UintError::LeadingZero;
  std::uint64_t v = 0;
  for (char c : token) {
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (d > max || v > (max - d) / 10) return UintError::TooLarge;
    v = v * 10 + d;
  }
  out = v;
  return UintError::Ok;
}

bool take_u64(const std::string& s, std::size_t& pos, std::uint64_t& out) {
  const std::size_t start = pos;
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') ++pos;
  return parse_uint(std::string_view(s).substr(start, pos - start),
                    std::numeric_limits<std::uint64_t>::max(), out) == UintError::Ok;
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

bool split_words(const std::string& line, std::vector<std::string>& out) {
  out.clear();
  std::size_t pos = 0;
  std::string word;
  do {
    if (!take_word(line, pos, word)) return false;
    out.push_back(word);
  } while (take_space(line, pos));
  return true;
}

}  // namespace flattree::util
