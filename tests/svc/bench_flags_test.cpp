// bench flag handling (ISSUE 6 satellite): bench::ArgPeeler — the
// wrapper-main half of the unknown-flag contract (util::CliParser rejects
// unknown flags itself; ArgPeeler is for mains like bench_micro that must
// strip repo flags before handing argv to another parser) — plus a
// regression run of the real bench_micro binary: an unknown flag must
// fail loudly and list the valid flags instead of being swallowed.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"

namespace flattree {
namespace {

/// Builds a mutable argv from string literals (peel edits it in place).
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (std::string& s : storage) ptrs.push_back(s.data());
    argc = static_cast<int>(ptrs.size());
  }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int argc = 0;
  char** argv() { return ptrs.data(); }
};

TEST(ArgPeeler, PeelsBothValueForms) {
  bench::ArgPeeler peeler;
  std::string metrics, trace;
  peeler.add_string("--metrics-json", &metrics, "run manifest path");
  peeler.add_string("--trace", &trace, "span trace path");

  Argv a({"bench_micro", "--metrics-json=m.json", "--benchmark_filter=apl",
          "--trace", "t.jsonl"});
  std::string error;
  ASSERT_TRUE(peeler.peel(a.argc, a.argv(), &error)) << error;
  EXPECT_EQ(metrics, "m.json");
  EXPECT_EQ(trace, "t.jsonl");
  // Unregistered arguments survive, order preserved, argc shrunk.
  ASSERT_EQ(a.argc, 2);
  EXPECT_STREQ(a.argv()[0], "bench_micro");
  EXPECT_STREQ(a.argv()[1], "--benchmark_filter=apl");
}

TEST(ArgPeeler, MissingValueIsAnError) {
  bench::ArgPeeler peeler;
  std::string metrics;
  peeler.add_string("--metrics-json", &metrics, "run manifest path");

  Argv a({"bench_micro", "--metrics-json"});
  std::string error;
  EXPECT_FALSE(peeler.peel(a.argc, a.argv(), &error));
  EXPECT_NE(error.find("--metrics-json"), std::string::npos);
  EXPECT_NE(error.find("requires a value"), std::string::npos);
}

TEST(ArgPeeler, LeavesUnknownFlagsForTheCaller) {
  bench::ArgPeeler peeler;
  std::string metrics;
  peeler.add_string("--metrics-json", &metrics, "run manifest path");

  Argv a({"bench_micro", "--bogus", "--metrics-json=m.json", "--also-bogus=1"});
  std::string error;
  ASSERT_TRUE(peeler.peel(a.argc, a.argv(), &error));
  ASSERT_EQ(a.argc, 3);
  EXPECT_STREQ(a.argv()[1], "--bogus");
  EXPECT_STREQ(a.argv()[2], "--also-bogus=1");
}

TEST(ArgPeeler, DashedPacketFlagsPeelInBothValueForms) {
  // The packet-bench flag family (ISSUE 7): multi-dash names must peel in
  // both --name=value and --name value forms like any other flag.
  bench::ArgPeeler peeler;
  std::string queue, nic, prop;
  peeler.add_string("--queue-packets", &queue, "queue capacity");
  peeler.add_string("--nic-rate", &nic, "injection rate");
  peeler.add_string("--prop-delay", &prop, "per-hop delay");

  Argv a({"bench", "--queue-packets=32", "--nic-rate", "4.0", "--prop-delay=0.01"});
  std::string error;
  ASSERT_TRUE(peeler.peel(a.argc, a.argv(), &error)) << error;
  EXPECT_EQ(queue, "32");
  EXPECT_EQ(nic, "4.0");
  EXPECT_EQ(prop, "0.01");
  ASSERT_EQ(a.argc, 1);
}

TEST(ArgPeeler, PrefixFlagDoesNotSwallowLongerFlag) {
  // --queue must not match --queue-packets (peeling is exact-name plus a
  // value separator, not prefix matching).
  bench::ArgPeeler peeler;
  std::string queue;
  peeler.add_string("--queue", &queue, "legacy name");
  Argv a({"bench", "--queue-packets=32"});
  std::string error;
  ASSERT_TRUE(peeler.peel(a.argc, a.argv(), &error));
  EXPECT_TRUE(queue.empty());
  ASSERT_EQ(a.argc, 2);
  EXPECT_STREQ(a.argv()[1], "--queue-packets=32");
}

TEST(ArgPeeler, UsageListsEveryFlag) {
  bench::ArgPeeler peeler;
  std::string a, b;
  peeler.add_string("--metrics-json", &a, "run manifest path");
  peeler.add_string("--trace", &b, "span trace path");
  std::string usage = peeler.usage();
  EXPECT_NE(usage.find("--metrics-json=VALUE"), std::string::npos);
  EXPECT_NE(usage.find("run manifest path"), std::string::npos);
  EXPECT_NE(usage.find("--trace=VALUE"), std::string::npos);
}

// -- the real binaries -------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f != nullptr) std::fclose(f);
  return f != nullptr;
}

TEST(BenchFlags, BenchMicroRejectsUnknownFlagsWithAListing) {
  std::string bin = std::string(FT_BENCH_DIR) + "/bench_micro";
  if (!file_exists(bin)) GTEST_SKIP() << "bench binary not built: " << bin;

  std::string err_path = testing::TempDir() + "bench_micro_badflag.txt";
  std::string cmd = bin + " --bogus > /dev/null 2> " + err_path;
  EXPECT_NE(std::system(cmd.c_str()), 0);
  std::string err = slurp(err_path);
  EXPECT_NE(err.find("--bogus"), std::string::npos) << err;
  // Both halves of the contract are in the message: the peeled repo flags
  // and the pass-through --benchmark_* namespace.
  EXPECT_NE(err.find("--metrics-json"), std::string::npos) << err;
  EXPECT_NE(err.find("--benchmark_"), std::string::npos) << err;
  std::remove(err_path.c_str());
}

TEST(BenchFlags, BenchMicroStillAcceptsItsOwnFlags) {
  std::string bin = std::string(FT_BENCH_DIR) + "/bench_micro";
  if (!file_exists(bin)) GTEST_SKIP() << "bench binary not built: " << bin;

  // A peeled flag plus a benchmark flag: filter to nothing so it's fast.
  std::string cmd = bin +
                    " --benchmark_list_tests=true"
                    " > /dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
}

TEST(BenchFlags, BenchServiceRejectsUnknownFlags) {
  std::string bin = std::string(FT_BENCH_DIR) + "/bench_service";
  if (!file_exists(bin)) GTEST_SKIP() << "bench binary not built: " << bin;

  std::string err_path = testing::TempDir() + "bench_service_badflag.txt";
  EXPECT_NE(std::system((bin + " --frobnicate > /dev/null 2> " + err_path).c_str()),
            0);
  std::string err = slurp(err_path);
  EXPECT_NE(err.find("frobnicate"), std::string::npos) << err;
  EXPECT_NE(err.find("--slo-json"), std::string::npos) << err;  // usage listing
  std::remove(err_path.c_str());
}

TEST(BenchFlags, BenchServiceEmitsSloJson) {
  std::string bin = std::string(FT_BENCH_DIR) + "/bench_service";
  if (!file_exists(bin)) GTEST_SKIP() << "bench binary not built: " << bin;

  std::string json_path = testing::TempDir() + "bench_svc.json";
  std::string cmd = bin +
                    " --k 4 --cluster 8 --rounds 2 --threads 2 --slo-json=" +
                    json_path + " > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::string doc = slurp(json_path);
  ASSERT_FALSE(doc.empty());
  EXPECT_TRUE(obs::json_valid(doc)) << doc;
  for (const char* key :
       {"\"schema\":\"flattree.bench_svc.v1\"", "\"requests\"", "\"accepted\"",
        "\"digest\"", "\"slo\"", "\"hit_rate\"", "\"latency_ms\"", "\"p50\"",
        "\"p99\"", "\"truncated_solves\"", "\"certified_solves\""})
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  std::remove(json_path.c_str());
}

/// Compares every member of `got` with `want` except the `skip` paths
/// (dotted, from the root), recursing into objects.
void expect_same_fields(const obs::JsonValue& got, const obs::JsonValue& want,
                        const std::set<std::string>& skip, const std::string& path) {
  ASSERT_TRUE(got.is_object() && want.is_object()) << path;
  ASSERT_EQ(got.object().size(), want.object().size()) << path;
  for (const auto& [key, w] : want.object()) {
    const std::string at = path.empty() ? key : path + "." + key;
    if (skip.count(at) != 0) continue;
    const obs::JsonValue* g = got.find(key);
    ASSERT_NE(g, nullptr) << at;
    if (w.is_object())
      expect_same_fields(*g, w, skip, at);
    else
      EXPECT_EQ(g->to_json(), w.to_json()) << at;
  }
}

TEST(BenchFlags, BenchServiceSloJsonMatchesCommittedBenchSvc) {
  // The committed BENCH_svc.json comes from `bench_service --k 8 --rounds 6
  // --slo-json`; every deterministic field (digest, counts, solve tallies,
  // deadlined requests, journal and snapshot sizes, recovery split) must
  // reproduce exactly. Wall-clock fields are skipped.
  std::string bin = std::string(FT_BENCH_DIR) + "/bench_service";
  if (!file_exists(bin)) GTEST_SKIP() << "bench binary not built: " << bin;

  std::string json_path = testing::TempDir() + "bench_svc_pin.json";
  std::string cmd = bin + " --k 8 --rounds 6 --slo-json=" + json_path + " > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  obs::JsonValue got, want;
  ASSERT_TRUE(obs::json_parse(slurp(json_path), got));
  ASSERT_TRUE(obs::json_parse(slurp(std::string(FT_SOURCE_DIR) + "/BENCH_svc.json"), want));
  expect_same_fields(got, want,
                     {"slo.met", "slo.hit_rate", "latency_ms", "recovery.recover_ms"}, "");
  std::remove(json_path.c_str());
}

TEST(BenchFlags, BenchPacketUsesRenamedQueueFlag) {
  std::string bin = std::string(FT_BENCH_DIR) + "/bench_packet";
  if (!file_exists(bin)) GTEST_SKIP() << "bench binary not built: " << bin;

  // The old --queue spelling is gone; --queue-packets and --prop-delay are
  // the supported forms (ISSUE 7 satellite).
  std::string err_path = testing::TempDir() + "bench_packet_badflag.txt";
  EXPECT_NE(std::system((bin + " --k 4 --queue 8 > /dev/null 2> " + err_path).c_str()),
            0);
  std::string err = slurp(err_path);
  EXPECT_NE(err.find("--queue-packets"), std::string::npos) << err;  // usage listing
  EXPECT_NE(err.find("--prop-delay"), std::string::npos) << err;
  std::remove(err_path.c_str());

  std::string cmd = bin +
                    " --k 4 --train 4 --queue-packets 8 --nic-rate 2.0"
                    " --prop-delay 0.02 > /dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
}

}  // namespace
}  // namespace flattree
