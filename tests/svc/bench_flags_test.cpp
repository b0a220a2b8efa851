// Bench flag handling through the real binaries: bench_service and
// bench_packet refuse unknown flags with a usage listing, every bench
// with a --k, --kmax/--kstep, --seeds or --eps flag (and bench_design's
// --iters and --trace-every, and the packet benches' sizing and rate
// flags) refuses an out-of-range value with exit 2 before printing
// anything, and bench_service's --slo-json output reproduces the committed
// BENCH_svc.json.

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
#include "obs/parses_as_json.hpp"

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
  // fabric, or average over no draws (a nan row). A --kmax/--kstep sweep
  // that would reach an odd k or never end, an --eps outside (0, 1), and
  // bench_design's --iters outside [0, 4096] or --trace-every below 1 are
  // refused the same way. Every numeric flag declares its range to
  // util::CliParser, which refuses a value outside it with exit 2 and a
  // stderr line naming the flag.
  const char* k_benches[] = {"bench_chaos",   "bench_congestion", "bench_design",
                             "bench_failures", "bench_hybrid",    "bench_packet",
                             "bench_service"};
  const char* seeds_benches[] = {"bench_fig7_broadcast", "bench_fig8_alltoall",
                                 "bench_hybrid", "bench_failures", "bench_oversub"};
  const char* sweep_benches[] = {"bench_fig5_apl_global", "bench_fig6_apl_pod",
                                 "bench_fig7_broadcast",  "bench_fig8_alltoall",
                                 "bench_ablation_mn",     "bench_ablation_wiring"};
  const char* eps_benches[] = {"bench_chaos",          "bench_design",
                               "bench_failures",       "bench_fig7_broadcast",
                               "bench_fig8_alltoall",  "bench_hybrid",
                               "bench_oversub",        "bench_service"};
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
  for (const char* b : sweep_benches)
    for (const char* flags : {"--kmax 2", "--kmax 258", "--kstep 1", "--kstep 3",
                              "--kstep 0", "--kstep -2"})
      cases.push_back({b, flags});
  for (const char* b : eps_benches)
    for (const char* flags : {"--eps 0", "--eps 1", "--eps -0.5"})
      cases.push_back({b, flags});
  for (const char* flags : {"--iters -1", "--iters 4097", "--trace-every 0"})
    cases.push_back({"bench_design", flags});
  // The packet benches: a --train that is not in [1, 65536] (it used to
  // abort, or wrap in the uint32 cast), a negative --queue-packets (it used
  // to wrap to an unbounded queue), and a --nic-rate that is not positive
  // or a negative --prop-delay (they used to abort in the simulator).
  for (const char* b : {"bench_congestion", "bench_packet"})
    for (const char* flags :
         {"--train -1", "--train 0", "--train 65537", "--train 5000000000",
          "--queue-packets -1", "--queue-packets 4294967296", "--nic-rate 0",
          "--nic-rate -1", "--prop-delay -1"})
      cases.push_back({b, flags});
  // bench_congestion's fan-in, subset and marking threshold: negatives used
  // to wrap (and --sources -3 silently clamped), 0 sources or a subset of
  // one left a workload with no flows.
  for (const char* flags : {"--sources -3", "--sources 0", "--a2a 1", "--a2a -1",
                            "--ecn-threshold 0", "--ecn-threshold -1",
                            "--ecn-threshold 4294967296"})
    cases.push_back({"bench_congestion", flags});
  // A --cluster below 2 has no receiver; one above 2^32 - 1 would wrap in
  // the uint32 cast.
  for (const char* b : {"bench_fig7_broadcast", "bench_fig8_alltoall", "bench_oversub",
                        "bench_failures", "bench_chaos", "bench_service"})
    for (const char* flags : {"--cluster 1", "--cluster 0", "--cluster -5",
                              "--cluster 4294967296"})
      cases.push_back({b, flags});

  // Flags that used to reach a divisor, an unsigned cast or a loop bound
  // unchecked: each crashed (SIGFPE, abort, bad_alloc), printed a nan
  // column, wrapped, or was silently ignored or clamped.
  for (const Case& c : std::vector<Case>{
           {"bench_chaos", "--report-every 0 --k 4 --cluster 8"},
           {"bench_chaos", "--max-replans -1"},
           {"bench_chaos", "--mcf-budget -1"},
           {"bench_chaos", "--convert-rate -1"},
           {"bench_chaos", "--mcf-every -1"},
           {"bench_chaos", "--duration -1"},
           {"bench_chaos", "--flap-prob 1.5"},
           {"bench_chaos", "--link-mtbf -1"},
           {"bench_oversub", "--r 0"},
           {"bench_oversub", "--pods -1"},
           {"bench_hybrid", "--step 0 --k 4"},
           {"bench_hybrid", "--global-cluster 1"},
           {"bench_hybrid", "--local-cluster 0"},
           {"bench_fig5_apl_global", "--rg-seeds 0"},
           {"bench_service", "--rounds -1"},
           {"bench_service", "--batch -3"},
           {"bench_service", "--batch 0"},
           {"bench_service", "--events-per-round -1"},
           {"bench_service", "--duration -1"},
           {"bench_failures", "--max-failures -2"},
           {"bench_congestion", "--flowlet-gap -1"},
           {"bench_design", "--trace-every -1"},
           {"bench_fig7_broadcast", "--threads 257"},
           {"bench_fig8_alltoall", "--threads -1"},
           {"../examples/quickstart", "--k 5"},
           {"../examples/hybrid_zones", "--k 3"},
           {"../examples/throughput_study", "--big-cluster 1 --k 4"},
           {"../examples/throughput_study", "--threads 257"},
           {FT_SVC_BIN, "--max-queued -1"},
           {FT_SVC_BIN, "--max-line-bytes -5"},
           {FT_SVC_BIN, "--snapshot-every -1"},
           {FT_SVC_BIN, "--batch 0"},
           {FT_SVC_BIN, "--threads -4"}})
    cases.push_back(c);
  // Checks that need the built plant, after parsing: a --max-failures
  // above the core count (it read past the core pool), a --cluster above
  // the server count (it placed no traffic: lambda 0 on every row), and a
  // --d that --r does not divide (ClosParams threw past main).
  for (const Case& c : std::vector<Case>{
           {"bench_failures", "--max-failures 8 --k 4"},
           {"bench_failures", "--cluster 100 --k 4 --max-failures 4"},
           {"bench_chaos", "--cluster 100 --k 4"},
           {"bench_service", "--cluster 100 --k 4"},
           {"bench_oversub", "--d 3 --r 2"}})
    cases.push_back(c);

  std::string out_path = testing::TempDir() + "bench_sizing_out.txt";
  std::string err_path = testing::TempDir() + "bench_sizing_err.txt";
  for (const Case& c : cases) {
    std::string bin =
        c.bench[0] == '/' ? c.bench : std::string(FT_BENCH_DIR) + "/" + c.bench;
    if (!file_exists(bin)) GTEST_SKIP() << "bench binary not built: " << bin;
    std::string cmd =
        bin + " " + c.flags + " < /dev/null > " + out_path + " 2> " + err_path;
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

TEST(BenchFlags, PacketBenchFlagBoundsAreAccepted) {
  // The inclusive ends of the ranges above still run.
  for (const char* b : {"bench_congestion", "bench_packet"})
    if (!file_exists(std::string(FT_BENCH_DIR) + "/" + b))
      GTEST_SKIP() << "bench binary not built: " << b;
  for (const char* run :
       {"bench_congestion --k 4 --train 1 --queue-packets 0 --sources 1 --a2a 2"
        " --ecn-threshold 1 --prop-delay 0 --nic-rate 0.5",
        "bench_packet --k 4 --train 1 --queue-packets 0 --prop-delay 0 --nic-rate 0.5"}) {
    std::string cmd = std::string(FT_BENCH_DIR) + "/" + run + " > /dev/null 2>&1";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << run;
  }
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
  EXPECT_TRUE(obs::parses_as_json(doc)) << doc;
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
