// End-to-end determinism contract of bench_chaos: the availability
// timeline is a pure function of the fault trace, so stdout must be
// byte-identical across --threads 1 / 8 and across a --save-scenario ->
// --load-scenario round trip of the same trace. --selfcheck must exit 0
// (zero violations after every injected event, including
// mid-reconfiguration ones), and the default-seed summary is pinned.
// FT_BENCH_DIR is injected by CMake; the test skips cleanly when the
// binary is not built.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

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

int run(const std::string& bench, const std::string& args, const std::string& out) {
  std::string cmd = bench + " " + args + " > " + out + " 2>/dev/null";
  return std::system(cmd.c_str());
}

// --cluster 8 fits the 16 servers of k = 4 (the default 40 is refused), so
// the timeline's lambda and served columns are nonzero.
const char* kBase = "--k 4 --duration 25 --seed 11 --report-every 3 --cluster 8";

TEST(ChaosEquivalence, TimelineIsByteIdenticalAcrossThreads) {
  std::string bench = std::string(FT_BENCH_DIR) + "/bench_chaos";
  if (!file_exists(bench)) GTEST_SKIP() << "bench binary not built: " << bench;
  std::string tmp = testing::TempDir();

  std::string t1 = tmp + "chaos_t1.txt", t8 = tmp + "chaos_t8.txt";
  ASSERT_EQ(run(bench, std::string(kBase) + " --threads 1", t1), 0);
  ASSERT_EQ(run(bench, std::string(kBase) + " --threads 8", t8), 0);
  std::string ref = slurp(t1);
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(ref, slurp(t8));
}

TEST(ChaosEquivalence, SaveReplayReproducesTheTimeline) {
  std::string bench = std::string(FT_BENCH_DIR) + "/bench_chaos";
  if (!file_exists(bench)) GTEST_SKIP() << "bench binary not built: " << bench;
  std::string tmp = testing::TempDir();

  std::string trace = tmp + "chaos_trace.txt";
  std::string gen = tmp + "chaos_gen.txt", replay = tmp + "chaos_replay.txt";
  ASSERT_EQ(run(bench, std::string(kBase) + " --save-scenario " + trace, gen), 0);
  ASSERT_EQ(run(bench, std::string(kBase) + " --load-scenario " + trace, replay), 0);
  std::string ref = slurp(gen);
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(ref, slurp(replay));

  // Save -> load -> save is a fixpoint of the v1 text format.
  std::string trace2 = tmp + "chaos_trace2.txt";
  std::string resave = tmp + "chaos_resave.txt";
  ASSERT_EQ(run(bench,
                std::string(kBase) + " --load-scenario " + trace + " --save-scenario " +
                    trace2,
                resave),
            0);
  EXPECT_EQ(slurp(trace), slurp(trace2));
}

TEST(ChaosEquivalence, SelfcheckPassesAndDoesNotPerturbOutput) {
  std::string bench = std::string(FT_BENCH_DIR) + "/bench_chaos";
  if (!file_exists(bench)) GTEST_SKIP() << "bench binary not built: " << bench;
  std::string tmp = testing::TempDir();

  std::string plain = tmp + "chaos_plain.txt", checked = tmp + "chaos_checked.txt";
  ASSERT_EQ(run(bench, kBase, plain), 0);
  // Exit 0 == every event boundary validated with zero violations.
  ASSERT_EQ(run(bench, std::string(kBase) + " --selfcheck", checked), 0);
  EXPECT_EQ(slurp(plain), slurp(checked));
}

// The fat track's "links cut" / "links healed" come from the rise and fall
// of the dead-link count over the edge-triggered events; at the default
// seed every generated failure carries its repair, so both are 78.
TEST(ChaosEquivalence, DefaultSeedSummaryPinsLinksCutAndHealed) {
  std::string bench = std::string(FT_BENCH_DIR) + "/bench_chaos";
  if (!file_exists(bench)) GTEST_SKIP() << "bench binary not built: " << bench;
  std::string out = testing::TempDir() + "chaos_default.txt";
  ASSERT_EQ(run(bench, "", out), 0);
  const std::string text = slurp(out);
  const std::string header = "track,final stranded,steps,replans,rollbacks,deferred,links cut,"
                             "links healed\n";
  EXPECT_NE(text.find(header + "fat,0,-,-,-,-,78,78\n"), std::string::npos) << text;
}

// A negative --flap-cycles used to wrap to a uint32 near 4.3e9 cycles per
// flapping outage. The bench refuses any value outside the uint32 range
// with exit 2, naming the flag, before it builds anything (and
// generate_scenario's event cap, pinned in scenario_test, would refuse
// the wrapped value too).
TEST(ChaosEquivalence, OutOfRangeFlapCyclesExitTwo) {
  std::string bench = std::string(FT_BENCH_DIR) + "/bench_chaos";
  if (!file_exists(bench)) GTEST_SKIP() << "bench binary not built: " << bench;
  const std::string err_path = testing::TempDir() + "chaos_badknob.txt";
  for (const char* flags : {"--flap-cycles -1", "--flap-cycles 4294967296"}) {
    const std::string cmd = bench + " --k 4 " + flags + " > /dev/null 2> " + err_path;
    const int status = std::system(cmd.c_str());
    EXPECT_EQ(WEXITSTATUS(status), 2) << flags;
    EXPECT_NE(slurp(err_path).find("--flap-cycles"), std::string::npos) << flags;
  }
  std::remove(err_path.c_str());
}

}  // namespace
}  // namespace flattree
