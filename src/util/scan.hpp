#pragma once
// Strict scanners shared by the repo's line-oriented text formats: the
// durable service frames (journal v2, snapshot v1), fault scenario files
// and design candidates. Fields are separated by exactly one ' ';
// integers are canonical decimal — digits only, no sign, no leading zero
// on a multi-digit number, nothing above the field's width. A value these
// scanners accept therefore re-renders to its own bytes, which is what
// keeps the formats decode fixpoints.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace flattree::util {

/// Why a token is not a canonical decimal integer.
enum class UintError : std::uint8_t {
  Ok,
  Empty,        ///< no characters
  Sign,         ///< leading '+' or '-'
  NotDigit,     ///< any other non-digit byte
  LeadingZero,  ///< "0" followed by more digits
  TooLarge,     ///< above the field's maximum
};

/// Short reason for a parse_uint failure ("signed integer", ...).
const char* describe(UintError e);

/// Parses all of `token` as a canonical decimal integer no larger than
/// `max`. `out` is written only on UintError::Ok.
UintError parse_uint(std::string_view token, std::uint64_t max, std::uint64_t& out);

/// Reads the run of digits at `pos` as a canonical uint64 and advances
/// past it. False (pos unspecified) on no digit, a leading zero, or
/// overflow.
bool take_u64(const std::string& s, std::size_t& pos, std::uint64_t& out);
/// Consumes exactly one ' ' at `pos`.
bool take_space(const std::string& s, std::size_t& pos);
/// Reads the non-empty run of non-space bytes at `pos`.
bool take_word(const std::string& s, std::size_t& pos, std::string& out);

/// Splits `line` into its single-space-separated words. False on an empty
/// line or an empty word (a leading, trailing or doubled space).
bool split_words(const std::string& line, std::vector<std::string>& out);

}  // namespace flattree::util
