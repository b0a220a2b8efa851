// End-to-end check of the --incremental contract: a sweep bench's stdout
// must be byte-identical with and without the flag, at more than one
// thread count, while the incremental run's manifest shows the GK phases
// its exact MCF resumes skipped. The (m, n) ablation, which has no warm
// path, must be byte-identical across thread counts. FT_BENCH_DIR is
// injected by CMake; the test skips cleanly when the binaries are not
// built.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

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

/// Runs `bench args > out 2>/dev/null`, returning the exit status.
int run(const std::string& bench, const std::string& args, const std::string& out) {
  std::string cmd = bench + " " + args + " > " + out + " 2>/dev/null";
  return std::system(cmd.c_str());
}

std::uint64_t metric_value(const std::string& doc, const std::string& name) {
  std::size_t at = doc.find("\"" + name + "\"");
  if (at == std::string::npos) return 0;
  at = doc.find(':', at);
  if (at == std::string::npos) return 0;
  return std::strtoull(doc.c_str() + at + 1, nullptr, 10);
}

TEST(BenchEquivalence, FailureSweepIsByteIdenticalAndCheaper) {
  std::string bench = std::string(FT_BENCH_DIR) + "/bench_failures";
  if (!file_exists(bench)) GTEST_SKIP() << "bench binary not built: " << bench;

  const std::string base = "--max-failures 4 --seeds 1";
  std::string tmp = testing::TempDir();
  for (const char* threads : {"1", "4"}) {
    std::string cold_out = tmp + "bf_cold_" + threads + ".txt";
    std::string inc_out = tmp + "bf_inc_" + threads + ".txt";
    std::string args = base + " --threads " + threads;
    ASSERT_EQ(run(bench, args, cold_out), 0);
    ASSERT_EQ(run(bench, args + " --incremental", inc_out), 0);
    EXPECT_EQ(slurp(cold_out), slurp(inc_out)) << "threads=" << threads;
  }

  // The incremental manifest must show real savings: identical solves
  // answered from the stored result.
  std::string cold_json = tmp + "bf_cold.json";
  std::string inc_json = tmp + "bf_inc.json";
  ASSERT_EQ(run(bench, base + " --threads 2 --metrics-json=" + cold_json, "/dev/null"), 0);
  ASSERT_EQ(run(bench, base + " --threads 2 --incremental --metrics-json=" + inc_json,
                "/dev/null"),
            0);
  std::string cold_doc = slurp(cold_json);
  std::string inc_doc = slurp(inc_json);
  EXPECT_GT(metric_value(inc_doc, "inc.mcf.exact_resumes"), 0u);
  EXPECT_EQ(metric_value(cold_doc, "inc.mcf.exact_resumes"), 0u);
}

TEST(BenchEquivalence, AblationSweepIsByteIdentical) {
  std::string bench = std::string(FT_BENCH_DIR) + "/bench_ablation_mn";
  if (!file_exists(bench)) GTEST_SKIP() << "bench binary not built: " << bench;

  std::string tmp = testing::TempDir();
  std::string one_out = tmp + "ba_t1.txt";
  std::string four_out = tmp + "ba_t4.txt";
  ASSERT_EQ(run(bench, "--kmax 8 --threads 1", one_out), 0);
  ASSERT_EQ(run(bench, "--kmax 8 --threads 4", four_out), 0);
  EXPECT_EQ(slurp(one_out), slurp(four_out));
}

}  // namespace
}  // namespace flattree
