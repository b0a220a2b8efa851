// Bench flag handling through the real binaries: bench_service and
// bench_packet refuse unknown flags with a usage listing, every bench
// with a --k or --seeds flag refuses an out-of-range value with exit 2
// before printing anything, and bench_service's --slo-json output
// reproduces the committed BENCH_svc.json.

#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace flattree {
namespace {

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

TEST(BenchFlags, OutOfRangeSizingFlagsExitTwoWithEmptyStdout) {
  // An odd, negative or too small --k and a --seeds below 1 are refused
  // before the unsigned casts that would otherwise abort, wrap to a huge
  // fabric, or average over no draws (a nan row).
  const char* k_benches[] = {"bench_chaos",   "bench_congestion", "bench_design",
                             "bench_failures", "bench_hybrid",    "bench_packet",
                             "bench_service", "bench_sim_fct"};
  const char* seeds_benches[] = {"bench_fig7_broadcast", "bench_fig8_alltoall",
                                 "bench_hybrid", "bench_failures", "bench_oversub"};
  struct Case {
    std::string bench;
    std::string flags;
  };
  std::vector<Case> cases;
  for (const char* b : k_benches)
    for (const char* flags : {"--k 5", "--k -2", "--k 2"})
      cases.push_back({b, flags});
  for (const char* b : seeds_benches)
    for (const char* flags : {"--seeds 0", "--seeds -1"})
      cases.push_back({b, flags});

  std::string out_path = testing::TempDir() + "bench_sizing_out.txt";
  std::string err_path = testing::TempDir() + "bench_sizing_err.txt";
  for (const Case& c : cases) {
    std::string bin = std::string(FT_BENCH_DIR) + "/" + c.bench;
    if (!file_exists(bin)) GTEST_SKIP() << "bench binary not built: " << bin;
    std::string cmd = bin + " " + c.flags + " > " + out_path + " 2> " + err_path;
    int status = std::system(cmd.c_str());
    const std::string what = c.bench + " " + c.flags;
    ASSERT_TRUE(WIFEXITED(status)) << what;
    EXPECT_EQ(WEXITSTATUS(status), 2) << what;
    EXPECT_EQ(slurp(out_path), "") << what;
    std::string flag = c.flags.substr(0, c.flags.find(' '));
    EXPECT_NE(slurp(err_path).find(flag), std::string::npos) << what;
  }
  std::remove(out_path.c_str());
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
