// End-to-end checks of the bench_congestion binary (ISSUE 7): stdout must
// be byte-identical across --threads counts and with --metrics-json on or
// off (the house invariant every bench carries), and --summary-json must
// emit valid flattree.bench_te.v1 JSON that, at default flags, matches the
// committed BENCH_te.json byte for byte. Skips cleanly when the binary is
// not built.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

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

/// Small, fast configuration shared by every invocation.
const char* kArgs = " --k 4 --train 8 --sources 6 --a2a 6";

std::string bench_bin() { return std::string(FT_BENCH_DIR) + "/bench_congestion"; }

int run_to(const std::string& extra, const std::string& out_path) {
  std::string cmd = bench_bin() + kArgs + " " + extra + " > " + out_path + " 2>/dev/null";
  return std::system(cmd.c_str());
}

TEST(BenchCongestion, StdoutByteIdenticalAcrossThreadsAndObs) {
  if (!file_exists(bench_bin())) GTEST_SKIP() << "bench binary not built";
  std::string dir = testing::TempDir();
  std::string t1 = dir + "congestion_t1.txt";
  std::string t8 = dir + "congestion_t8.txt";
  std::string obs = dir + "congestion_obs.txt";
  std::string manifest = dir + "congestion_manifest.json";
  ASSERT_EQ(run_to("--threads 1", t1), 0);
  ASSERT_EQ(run_to("--threads 8", t8), 0);
  ASSERT_EQ(run_to("--threads 8 --metrics-json " + manifest, obs), 0);
  std::string base = slurp(t1);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(base, slurp(t8));
  EXPECT_EQ(base, slurp(obs));
  // The manifest itself must be valid JSON.
  obs::JsonValue doc;
  obs::JsonError err;
  EXPECT_TRUE(obs::json_parse(slurp(manifest), doc, &err)) << err.message;
  for (const std::string& p : {t1, t8, obs, manifest}) std::remove(p.c_str());
}

TEST(BenchCongestion, SummaryJsonIsValidAndStable) {
  if (!file_exists(bench_bin())) GTEST_SKIP() << "bench binary not built";
  std::string dir = testing::TempDir();
  std::string out = dir + "congestion_out.txt";
  std::string s1 = dir + "congestion_s1.json";
  std::string s2 = dir + "congestion_s2.json";
  ASSERT_EQ(run_to("--threads 1 --summary-json " + s1, out), 0);
  ASSERT_EQ(run_to("--threads 8 --summary-json " + s2, out), 0);
  std::string doc1 = slurp(s1);
  EXPECT_EQ(doc1, slurp(s2));  // summary is part of the determinism contract
  obs::JsonValue doc;
  obs::JsonError err;
  ASSERT_TRUE(obs::json_parse(doc1, doc, &err)) << err.message;
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->as_string(), "flattree.bench_te.v1");
  ASSERT_NE(doc.find("cases"), nullptr);
  const auto& cases = doc.find("cases")->array();
  // 4 topologies x 3 workloads x 2 schemes, by the table and KSP8-routed.
  EXPECT_EQ(cases.size(), 48u);
  for (const auto& c : cases) {
    ASSERT_NE(c.find("scheme"), nullptr);
    ASSERT_NE(c.find("injected"), nullptr);
    EXPECT_GT(c.find("injected")->as_number(), 0.0);
  }
  ASSERT_NE(doc.find("digest"), nullptr);
  for (const std::string& p : {out, s1, s2}) std::remove(p.c_str());
}

TEST(BenchCongestion, DefaultSummaryMatchesCommittedBenchTe) {
  // BENCH_te.json is the tracked record of the default run (the command
  // EXPERIMENTS.md gives); any change to tables, checker or event loop
  // that moves a congestion number must regenerate it deliberately.
  if (!file_exists(bench_bin())) GTEST_SKIP() << "bench binary not built";
  std::string committed = slurp(std::string(FT_SOURCE_DIR) + "/BENCH_te.json");
  ASSERT_FALSE(committed.empty());
  std::string dir = testing::TempDir();
  std::string out = dir + "congestion_default.txt";
  std::string sj = dir + "congestion_default.json";
  std::string cmd = bench_bin() + " --summary-json " + sj + " > " + out + " 2>/dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  EXPECT_EQ(slurp(sj), committed);
  for (const std::string& p : {out, sj}) std::remove(p.c_str());
}

TEST(BenchCongestion, DropTailAndDctcpRowsShareTheWorkload) {
  if (!file_exists(bench_bin())) GTEST_SKIP() << "bench binary not built";
  std::string dir = testing::TempDir();
  std::string out = dir + "congestion_pairs.txt";
  std::string sj = dir + "congestion_pairs.json";
  ASSERT_EQ(run_to("--summary-json " + sj, out), 0);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::json_parse(slurp(sj), doc, nullptr));
  const auto& cases = doc.find("cases")->array();
  ASSERT_EQ(cases.size(), 48u);
  // Consecutive rows are the drop-tail / dctcp pair for the same
  // (topology, workload): they must inject the identical packet count —
  // the schemes may differ only where congestion control differs. The
  // second half repeats the first with KSP8 source routes, on the same
  // flows.
  for (std::size_t i = 0; i + 1 < cases.size(); i += 2) {
    const std::string routes = i < 24 ? "" : "+ksp8";
    EXPECT_EQ(cases[i].find("scheme")->as_string(), "drop-tail" + routes);
    EXPECT_EQ(cases[i + 1].find("scheme")->as_string(), "dctcp" + routes);
    if (i >= 24) {
      EXPECT_EQ(cases[i].find("topology")->as_string(),
                cases[i - 24].find("topology")->as_string());
      EXPECT_EQ(cases[i].find("workload")->as_string(),
                cases[i - 24].find("workload")->as_string());
      EXPECT_EQ(cases[i].find("injected")->as_int(), cases[i - 24].find("injected")->as_int());
    }
    EXPECT_EQ(cases[i].find("topology")->as_string(),
              cases[i + 1].find("topology")->as_string());
    EXPECT_EQ(cases[i].find("workload")->as_string(),
              cases[i + 1].find("workload")->as_string());
    EXPECT_EQ(cases[i].find("injected")->as_int(),
              cases[i + 1].find("injected")->as_int());
    EXPECT_EQ(cases[i].find("ecn_marked")->as_int(), 0);  // drop-tail never marks
  }
  for (const std::string& p : {out, sj}) std::remove(p.c_str());
}

}  // namespace
}  // namespace flattree
