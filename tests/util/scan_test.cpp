#include "util/scan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace flattree::util {
namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

TEST(Scan, ParseUintAcceptsCanonicalDecimalUpToTheFieldMax) {
  std::uint64_t v = 7;
  EXPECT_EQ(parse_uint("0", 10, v), UintError::Ok);
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(parse_uint("4294967295", 4294967295u, v), UintError::Ok);
  EXPECT_EQ(v, 4294967295u);
  EXPECT_EQ(parse_uint("18446744073709551615", kU64Max, v), UintError::Ok);
  EXPECT_EQ(v, kU64Max);
}

TEST(Scan, ParseUintNamesEachRefusal) {
  std::uint64_t v = 7;
  EXPECT_EQ(parse_uint("", kU64Max, v), UintError::Empty);
  EXPECT_EQ(parse_uint("-1", kU64Max, v), UintError::Sign);
  EXPECT_EQ(parse_uint("+1", kU64Max, v), UintError::Sign);
  EXPECT_EQ(parse_uint("1x", kU64Max, v), UintError::NotDigit);
  EXPECT_EQ(parse_uint(" 1", kU64Max, v), UintError::NotDigit);
  EXPECT_EQ(parse_uint("00", kU64Max, v), UintError::LeadingZero);
  EXPECT_EQ(parse_uint("04", kU64Max, v), UintError::LeadingZero);
  EXPECT_EQ(parse_uint("4294967296", 4294967295u, v), UintError::TooLarge);
  EXPECT_EQ(parse_uint("18446744073709551616", kU64Max, v), UintError::TooLarge);
  EXPECT_EQ(parse_uint("99999999999999999999999", kU64Max, v), UintError::TooLarge);
  EXPECT_EQ(parse_uint("10", 9, v), UintError::TooLarge);
  EXPECT_EQ(parse_uint("3", 2, v), UintError::TooLarge);
  EXPECT_EQ(v, 7u);  // untouched on every refusal
  EXPECT_STREQ(describe(UintError::Sign), "signed integer");
  EXPECT_STREQ(describe(UintError::LeadingZero), "leading zero");
}

TEST(Scan, TakeU64ReadsTheDigitRunAndStops) {
  const std::string s = "123 045 x";
  std::size_t pos = 0;
  std::uint64_t v = 0;
  ASSERT_TRUE(take_u64(s, pos, v));
  EXPECT_EQ(v, 123u);
  EXPECT_EQ(pos, 3u);
  ASSERT_TRUE(take_space(s, pos));
  EXPECT_FALSE(take_u64(s, pos, v));  // leading zero
  pos = 8;
  EXPECT_FALSE(take_u64(s, pos, v));  // no digit
}

TEST(Scan, SplitWordsRefusesStraySpaces) {
  std::vector<std::string> w;
  ASSERT_TRUE(split_words("zone 0 4 clos", w));
  EXPECT_EQ(w, (std::vector<std::string>{"zone", "0", "4", "clos"}));
  ASSERT_TRUE(split_words("pods", w));
  EXPECT_EQ(w, (std::vector<std::string>{"pods"}));
  EXPECT_FALSE(split_words("", w));
  EXPECT_FALSE(split_words(" pods 4", w));
  EXPECT_FALSE(split_words("pods 4 ", w));
  EXPECT_FALSE(split_words("pods  4", w));
}

}  // namespace
}  // namespace flattree::util
