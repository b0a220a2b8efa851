#include "util/table.hpp"

#include <gtest/gtest.h>

namespace flattree::util {
namespace {

TEST(Table, RejectsZeroColumns) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, CellAccess) {
  Table t({"a", "b"});
  t.begin_row();
  t.add("x");
  t.integer(42);
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.columns(), 2u);
  EXPECT_EQ(t.to_csv(), "a,b\nx,42\n");
}

TEST(Table, NumFormatsWithPrecision) {
  Table t({"v"});
  t.begin_row();
  t.num(3.14159, 2);
  EXPECT_EQ(t.to_csv(), "v\n3.14\n");
}

TEST(Table, AddBeforeBeginRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.add("x"), std::logic_error);
}

TEST(Table, TooManyCellsThrows) {
  Table t({"a"});
  t.begin_row();
  t.add("1");
  EXPECT_THROW(t.add("2"), std::logic_error);
}

TEST(Table, AlignedOutputHasHeaderAndSeparator) {
  Table t({"k", "apl"});
  t.begin_row();
  t.integer(4);
  t.num(5.4667, 3);
  std::string s = t.to_aligned();
  EXPECT_NE(s.find("k"), std::string::npos);
  EXPECT_NE(s.find("apl"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_NE(s.find("5.467"), std::string::npos);
}

TEST(Table, CsvRoundTripSimple) {
  Table t({"a", "b"});
  t.begin_row();
  t.add("1");
  t.add("2");
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t({"name"});
  t.begin_row();
  t.add("hello, \"world\"");
  EXPECT_EQ(t.to_csv(), "name\n\"hello, \"\"world\"\"\"\n");
}

TEST(Table, ShortRowsPadInAlignedOutput) {
  Table t({"a", "b"});
  t.begin_row();
  t.add("only");
  EXPECT_NO_THROW(t.to_aligned());
  EXPECT_EQ(t.to_csv(), "a,b\nonly\n");
}

TEST(Table, CsvQuotesLineBreaks) {
  Table t({"v"});
  t.begin_row();
  t.add("line1\nline2");
  EXPECT_EQ(t.to_csv(), "v\n\"line1\nline2\"\n");
  Table r({"v"});
  r.begin_row();
  r.add("a\rb");
  EXPECT_EQ(r.to_csv(), "v\n\"a\rb\"\n");
  Table crlf({"v"});
  crlf.begin_row();
  crlf.add("a\r\nb");
  EXPECT_EQ(crlf.to_csv(), "v\n\"a\r\nb\"\n");
}

TEST(CsvEscape, Rfc4180Fields) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("tab\tok"), "tab\tok");  // tabs need no quoting
  EXPECT_EQ(csv_escape("\r"), "\"\r\"");
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(1.0, 0), "1");
  EXPECT_EQ(format_double(0.123456, 4), "0.1235");
  EXPECT_EQ(format_double(-2.5, 1), "-2.5");
}

}  // namespace
}  // namespace flattree::util
