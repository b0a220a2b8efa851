#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace flattree::util {
namespace {

/// Builds a mutable argv from string literals.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (auto& s : storage_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(Cli, ParsesIntSeparateAndEqualsForm) {
  std::int64_t k = 4;
  CliParser cli("test");
  cli.add_int("k", &k, "fat-tree parameter");
  Argv a({"prog", "--k", "16"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(k, 16);

  Argv b({"prog", "--k=32"});
  ASSERT_TRUE(cli.parse(b.argc(), b.argv()));
  EXPECT_EQ(k, 32);
}

TEST(Cli, DefaultsSurviveWhenUnset) {
  std::int64_t k = 8;
  double eps = 0.1;
  CliParser cli("test");
  cli.add_int("k", &k, "k");
  cli.add_double("eps", &eps, "eps");
  Argv a({"prog"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(k, 8);
  EXPECT_EQ(eps, 0.1);
}

TEST(Cli, ParsesDouble) {
  double eps = 0.1;
  CliParser cli("test");
  cli.add_double("eps", &eps, "eps");
  Argv a({"prog", "--eps", "0.25"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_DOUBLE_EQ(eps, 0.25);
}

TEST(Cli, BoolFlagForms) {
  bool full = false;
  CliParser cli("test");
  cli.add_bool("full", &full, "full sweep");
  Argv a({"prog", "--full"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_TRUE(full);

  Argv b({"prog", "--no-full"});
  ASSERT_TRUE(cli.parse(b.argc(), b.argv()));
  EXPECT_FALSE(full);

  Argv c({"prog", "--full=false"});
  full = true;
  ASSERT_TRUE(cli.parse(c.argc(), c.argv()));
  EXPECT_FALSE(full);
}

TEST(Cli, ParsesString) {
  std::string out = "default.csv";
  CliParser cli("test");
  cli.add_string("out", &out, "output file");
  Argv a({"prog", "--out=results.csv"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(out, "results.csv");
}

TEST(Cli, RejectsUnknownFlag) {
  std::int64_t k = 4;
  CliParser cli("test");
  cli.add_int("k", &k, "k");
  Argv a({"prog", "--unknown", "3"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.exit_code(), 2);
}

TEST(Cli, RejectsBadIntValue) {
  std::int64_t k = 4;
  CliParser cli("test");
  cli.add_int("k", &k, "k");
  Argv a({"prog", "--k", "abc"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.exit_code(), 2);
}

TEST(Cli, RejectsMissingValue) {
  std::int64_t k = 4;
  CliParser cli("test");
  cli.add_int("k", &k, "k");
  Argv a({"prog", "--k"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
}

TEST(Cli, RejectsPositionalArgument) {
  CliParser cli("test");
  Argv a({"prog", "positional"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
}

TEST(Cli, HelpReturnsFalseWithZeroExit) {
  std::int64_t k = 4;
  CliParser cli("test");
  cli.add_int("k", &k, "k");
  Argv a({"prog", "--help"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.exit_code(), 0);
}

TEST(Cli, UsageListsFlagsAndDefaults) {
  std::int64_t k = 12;
  CliParser cli("my tool");
  cli.add_int("k", &k, "fat-tree parameter");
  std::string usage = cli.usage();
  EXPECT_NE(usage.find("my tool"), std::string::npos);
  EXPECT_NE(usage.find("--k"), std::string::npos);
  EXPECT_NE(usage.find("default: 12"), std::string::npos);
}

TEST(Cli, EqualsFormWorksForEveryKind) {
  // `--flag=value` must behave exactly like `--flag value` for all kinds —
  // bench scripts rely on `--threads=8` style.
  std::int64_t threads = 0;
  double eps = 0.1;
  bool full = false;
  std::string out = "a";
  CliParser cli("test");
  cli.add_int("threads", &threads, "threads");
  cli.add_double("eps", &eps, "eps");
  cli.add_bool("full", &full, "full");
  cli.add_string("out", &out, "out");
  Argv a({"prog", "--threads=8", "--eps=0.25", "--full=true", "--out=b.csv"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(threads, 8);
  EXPECT_DOUBLE_EQ(eps, 0.25);
  EXPECT_TRUE(full);
  EXPECT_EQ(out, "b.csv");
}

TEST(Cli, EmptyEqualsValueRejectedForNumbers) {
  std::int64_t k = 4;
  CliParser cli("test");
  cli.add_int("k", &k, "k");
  Argv a({"prog", "--k="});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.exit_code(), 2);
}

TEST(Cli, NoFormRejectsValue) {
  bool full = false;
  CliParser cli("test");
  cli.add_bool("full", &full, "full");
  Argv a({"prog", "--no-full=true"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.exit_code(), 2);
}

TEST(Cli, RefusesNonFiniteDoubles) {
  // strtod accepts these spellings; a double flag must not.
  for (const char* value : {"nan", "NaN", "inf", "-inf", "infinity", "1e999"}) {
    double x = 0.5;
    CliParser cli("test");
    cli.add_double("x", &x, "x");
    Argv a({"prog", std::string("--x=") + value});
    EXPECT_FALSE(cli.parse(a.argc(), a.argv())) << value;
    EXPECT_EQ(cli.exit_code(), 2) << value;
    EXPECT_EQ(x, 0.5) << value;
  }
}

TEST(Cli, NegativeNumbersParse) {
  std::int64_t v = 0;
  CliParser cli("test");
  cli.add_int("v", &v, "v");
  Argv a({"prog", "--v=-5"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(v, -5);
}

}  // namespace
}  // namespace flattree::util
