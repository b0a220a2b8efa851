#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace flattree::util {
namespace {

/// Ranges for the tests that are not about ranges.
constexpr IntRange kAnyInt{-1000, 1000};
constexpr DoubleRange kAnyDouble = DoubleRange::open(-1000.0, 1000.0);

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
  cli.add_int("k", &k, kAnyInt, "fat-tree parameter");
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
  cli.add_int("k", &k, kAnyInt, "k");
  cli.add_double("eps", &eps, kAnyDouble, "eps");
  Argv a({"prog"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(k, 8);
  EXPECT_EQ(eps, 0.1);
}

TEST(Cli, ParsesDouble) {
  double eps = 0.1;
  CliParser cli("test");
  cli.add_double("eps", &eps, kAnyDouble, "eps");
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
  cli.add_int("k", &k, kAnyInt, "k");
  Argv a({"prog", "--unknown", "3"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.exit_code(), 2);
}

TEST(Cli, RejectsBadIntValue) {
  std::int64_t k = 4;
  CliParser cli("test");
  cli.add_int("k", &k, kAnyInt, "k");
  Argv a({"prog", "--k", "abc"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.exit_code(), 2);
}

TEST(Cli, RejectsMissingValue) {
  std::int64_t k = 4;
  CliParser cli("test");
  cli.add_int("k", &k, kAnyInt, "k");
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
  cli.add_int("k", &k, kAnyInt, "k");
  Argv a({"prog", "--help"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.exit_code(), 0);
}

TEST(Cli, UsageListsFlagsAndDefaults) {
  std::int64_t k = 12;
  CliParser cli("my tool");
  cli.add_int("k", &k, kAnyInt, "fat-tree parameter");
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
  cli.add_int("threads", &threads, kAnyInt, "threads");
  cli.add_double("eps", &eps, kAnyDouble, "eps");
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
  cli.add_int("k", &k, kAnyInt, "k");
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
    cli.add_double("x", &x, kAnyDouble, "x");
    Argv a({"prog", std::string("--x=") + value});
    EXPECT_FALSE(cli.parse(a.argc(), a.argv())) << value;
    EXPECT_EQ(cli.exit_code(), 2) << value;
    EXPECT_EQ(x, 0.5) << value;
  }
}

TEST(Cli, NegativeNumbersParse) {
  std::int64_t v = 0;
  CliParser cli("test");
  cli.add_int("v", &v, kAnyInt, "v");
  Argv a({"prog", "--v=-5"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(v, -5);
}

/// Parses one argument against a fresh parser holding `--k` in [4, 256]
/// step 2 and `--eps` in the open interval (0, 1); true when accepted.
bool accepts(const std::string& arg, std::int64_t* k_out = nullptr,
             double* eps_out = nullptr) {
  std::int64_t k = 8;
  double eps = 0.5;
  CliParser cli("test");
  cli.add_int("k", &k, {4, 256, 2}, "k");
  cli.add_double("eps", &eps, DoubleRange::open(0.0, 1.0), "eps");
  Argv a({"prog", arg});
  const bool ok = cli.parse(a.argc(), a.argv());
  EXPECT_EQ(cli.exit_code(), ok ? 0 : 2) << arg;
  if (!ok) {
    // A refused value leaves the default in place.
    EXPECT_EQ(k, 8) << arg;
    EXPECT_EQ(eps, 0.5) << arg;
  }
  if (k_out != nullptr) *k_out = k;
  if (eps_out != nullptr) *eps_out = eps;
  return ok;
}

TEST(CliRange, IntBoundsAreInclusive) {
  std::int64_t k = 0;
  EXPECT_FALSE(accepts("--k=2"));  // below
  EXPECT_TRUE(accepts("--k=4", &k));  // at the lower bound
  EXPECT_EQ(k, 4);
  EXPECT_TRUE(accepts("--k=256", &k));  // at the upper bound
  EXPECT_EQ(k, 256);
  EXPECT_FALSE(accepts("--k=258"));  // above
  EXPECT_FALSE(accepts("--k=-4"));
  EXPECT_FALSE(accepts("--k=9223372036854775807"));
  EXPECT_FALSE(accepts("--k=-9223372036854775808"));
}

TEST(CliRange, IntStepIsCountedFromTheLowerBound) {
  for (const char* odd : {"--k=5", "--k=7", "--k=255"}) EXPECT_FALSE(accepts(odd)) << odd;
  for (const char* even : {"--k=6", "--k=30", "--k=254"}) EXPECT_TRUE(accepts(even)) << even;

  // An odd lower bound makes the odd values the accepted ones.
  std::int64_t v = 3;
  CliParser cli("test");
  cli.add_int("v", &v, {3, 9, 3}, "v");
  Argv a({"prog", "--v", "9"});
  EXPECT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(v, 9);
  Argv b({"prog", "--v", "8"});
  EXPECT_FALSE(cli.parse(b.argc(), b.argv()));
}

TEST(CliRange, OpenDoubleEndsAreExcluded) {
  double eps = 0.0;
  EXPECT_FALSE(accepts("--eps=0"));
  EXPECT_FALSE(accepts("--eps=1"));
  EXPECT_FALSE(accepts("--eps=-0.5"));
  EXPECT_FALSE(accepts("--eps=1.5"));
  EXPECT_TRUE(accepts("--eps=1e-9", nullptr, &eps));
  EXPECT_DOUBLE_EQ(eps, 1e-9);
  EXPECT_TRUE(accepts("--eps=0.999", nullptr, &eps));
  EXPECT_DOUBLE_EQ(eps, 0.999);
}

TEST(CliRange, ClosedDoubleEndsAreIncluded) {
  for (const char* value : {"0", "1", "0.25"}) {
    double p = 0.5;
    CliParser cli("test");
    cli.add_double("p", &p, DoubleRange::closed(0.0, 1.0), "p");
    Argv a({"prog", "--p", value});
    EXPECT_TRUE(cli.parse(a.argc(), a.argv())) << value;
    EXPECT_EQ(p, std::stod(value)) << value;
  }
  for (const char* value : {"-1e-9", "1.000001"}) {
    double p = 0.5;
    CliParser cli("test");
    cli.add_double("p", &p, DoubleRange::closed(0.0, 1.0), "p");
    Argv a({"prog", "--p", value});
    EXPECT_FALSE(cli.parse(a.argc(), a.argv())) << value;
    EXPECT_EQ(cli.exit_code(), 2) << value;
  }
}

TEST(CliRange, HalfBoundedDoubles) {
  // [0, inf) takes 0 and any large finite value; (0, inf) refuses 0.
  double a = 1.0, b = 1.0;
  CliParser cli("test");
  cli.add_double("a", &a, DoubleRange::at_least(0.0), "a");
  cli.add_double("b", &b, DoubleRange::above(0.0), "b");
  Argv ok({"prog", "--a=0", "--b=1e300"});
  EXPECT_TRUE(cli.parse(ok.argc(), ok.argv()));
  EXPECT_EQ(a, 0.0);
  EXPECT_EQ(b, 1e300);
  Argv bad({"prog", "--b=0"});
  EXPECT_FALSE(cli.parse(bad.argc(), bad.argv()));
  Argv neg({"prog", "--a=-1"});
  EXPECT_FALSE(cli.parse(neg.argc(), neg.argv()));
}

TEST(CliRange, SeparateAndEqualsFormsAreCheckedAlike) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"prog", "--k", "5"}, {"prog", "--k=5"},
        {"prog", "--eps", "1"}, {"prog", "--eps=1"}}) {
    std::int64_t k = 8;
    double eps = 0.5;
    CliParser cli("test");
    cli.add_int("k", &k, {4, 256, 2}, "k");
    cli.add_double("eps", &eps, DoubleRange::open(0.0, 1.0), "eps");
    Argv a(args);
    EXPECT_FALSE(cli.parse(a.argc(), a.argv())) << args[1];
    EXPECT_EQ(cli.exit_code(), 2) << args[1];
  }
}

TEST(CliRange, RefusalNamesFlagRangeAndValue) {
  std::int64_t k = 8;
  CliParser cli("test");
  cli.add_int("k", &k, {4, 256, 2}, "k");
  Argv a({"prog", "--k=5"});
  testing::internal::CaptureStderr();
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--k"), std::string::npos) << err;
  EXPECT_NE(err.find("[4, 256] step 2"), std::string::npos) << err;
  EXPECT_NE(err.find("got 5"), std::string::npos) << err;
}

TEST(CliRange, UsagePrintsEachRange) {
  std::int64_t k = 8, n = 1;
  double eps = 0.5, t = 1.0;
  CliParser cli("test");
  cli.add_int("k", &k, {4, 256, 2}, "k");
  cli.add_int("n", &n, {1, 10}, "n");
  cli.add_double("eps", &eps, DoubleRange::open(0.0, 1.0), "eps");
  cli.add_double("t", &t, DoubleRange::at_least(0.0), "t");
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("--k <int in [4, 256] step 2>"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--n <int in [1, 10]>"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--eps <float in (0, 1)>"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--t <float in [0, inf)>"), std::string::npos) << usage;
}

TEST(CliRange, RegistrationRefusesADefaultOutsideTheRange) {
  std::int64_t k = 5;
  double eps = 1.0;
  CliParser cli("test");
  EXPECT_THROW(cli.add_int("k", &k, {4, 256, 2}, "k"), std::invalid_argument);
  EXPECT_THROW(cli.add_int("k", &k, {4, 256, 0}, "k"), std::invalid_argument);
  EXPECT_THROW(cli.add_double("eps", &eps, DoubleRange::open(0.0, 1.0), "eps"),
               std::invalid_argument);
}

}  // namespace
}  // namespace flattree::util
