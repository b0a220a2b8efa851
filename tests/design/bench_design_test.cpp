// End-to-end checks of the bench_design binary (ISSUE 9): stdout must be
// byte-identical across --threads counts and with --metrics-json on or
// off (the house invariant every bench carries), and --summary-json must
// emit valid flattree.bench_design.v1 JSON whose default run beats the
// best uniform mode and matches the committed BENCH_design.json byte for
// byte. Skips cleanly when the binary is not built.

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

/// Small, fast configuration for the byte-identity matrix.
const char* kFastArgs = " --k 4 --iters 10";

std::string bench_bin() { return std::string(FT_BENCH_DIR) + "/bench_design"; }

int run_to(const std::string& extra, const std::string& out_path) {
  std::string cmd = bench_bin() + " " + extra + " > " + out_path + " 2>/dev/null";
  return std::system(cmd.c_str());
}

TEST(BenchDesign, StdoutByteIdenticalAcrossThreadsAndObs) {
  if (!file_exists(bench_bin())) GTEST_SKIP() << "bench binary not built";
  std::string dir = testing::TempDir();
  std::string t1 = dir + "design_t1.txt";
  std::string t8 = dir + "design_t8.txt";
  std::string obs = dir + "design_obs.txt";
  std::string manifest = dir + "design_manifest.json";
  ASSERT_EQ(run_to(std::string(kFastArgs) + " --threads 1", t1), 0);
  ASSERT_EQ(run_to(std::string(kFastArgs) + " --threads 8", t8), 0);
  ASSERT_EQ(run_to(std::string(kFastArgs) + " --threads 8 --metrics-json " + manifest,
                   obs),
            0);
  std::string base = slurp(t1);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(base, slurp(t8));
  EXPECT_EQ(base, slurp(obs));
  // The manifest must be valid JSON and carry the design.* counters.
  obs::JsonValue doc;
  obs::JsonError err;
  std::string manifest_text = slurp(manifest);
  EXPECT_TRUE(obs::json_parse(manifest_text, doc, &err)) << err.message;
  EXPECT_NE(manifest_text.find("design.candidates_scored"), std::string::npos);
  EXPECT_NE(manifest_text.find("design.moves_accepted"), std::string::npos);
  for (const std::string& p : {t1, t8, obs, manifest}) std::remove(p.c_str());
}

TEST(BenchDesign, SelfcheckPassesWithoutChangingTheBytes) {
  if (!file_exists(bench_bin())) GTEST_SKIP() << "bench binary not built";
  std::string dir = testing::TempDir();
  std::string plain = dir + "design_plain.txt";
  std::string checked = dir + "design_checked.txt";
  ASSERT_EQ(run_to(kFastArgs, plain), 0);
  ASSERT_EQ(run_to(std::string(kFastArgs) + " --selfcheck", checked), 0);
  std::string base = slurp(plain);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(base, slurp(checked));
  for (const std::string& p : {plain, checked}) std::remove(p.c_str());
}

TEST(BenchDesign, DefaultRunBeatsTheBestUniformMode) {
  // The ISSUE 9 acceptance criterion: the default search (k=8) must find
  // a certified hybrid layout whose mixed-workload objective beats every
  // uniform mode. Summary JSON is also part of the determinism contract,
  // and BENCH_design.json is the tracked record of this default run (the
  // command EXPERIMENTS.md gives): any change to the search, GK or the APL
  // in its objective that moves a number must regenerate it deliberately.
  if (!file_exists(bench_bin())) GTEST_SKIP() << "bench binary not built";
  std::string dir = testing::TempDir();
  std::string out = dir + "design_default.txt";
  std::string sj = dir + "design_default.json";
  ASSERT_EQ(run_to("--summary-json " + sj, out), 0);
  std::string committed = slurp(std::string(FT_SOURCE_DIR) + "/BENCH_design.json");
  ASSERT_FALSE(committed.empty());
  EXPECT_EQ(slurp(sj), committed);

  obs::JsonValue doc;
  obs::JsonError err;
  ASSERT_TRUE(obs::json_parse(slurp(sj), doc, &err)) << err.message;
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->as_string(), "flattree.bench_design.v1");
  ASSERT_NE(doc.find("beats_uniform"), nullptr);
  EXPECT_TRUE(doc.find("beats_uniform")->as_bool());

  ASSERT_NE(doc.find("uniforms"), nullptr);
  const auto& uniforms = doc.find("uniforms")->array();
  ASSERT_EQ(uniforms.size(), 3u);
  const obs::JsonValue* best = doc.find("best");
  ASSERT_NE(best, nullptr);
  ASSERT_NE(best->find("certified"), nullptr);
  EXPECT_TRUE(best->find("certified")->as_bool());
  for (const auto& u : uniforms) {
    EXPECT_TRUE(u.find("certified")->as_bool());
    EXPECT_GT(best->find("objective")->as_number(),
              u.find("objective")->as_number());
  }
  ASSERT_NE(doc.find("debruijn"), nullptr);
  EXPECT_GT(doc.find("debruijn")->find("objective")->as_number(), 0.0);
  ASSERT_NE(doc.find("digest"), nullptr);
  for (const std::string& p : {out, sj}) std::remove(p.c_str());
}

TEST(BenchDesign, SummaryJsonStableAcrossThreads) {
  if (!file_exists(bench_bin())) GTEST_SKIP() << "bench binary not built";
  std::string dir = testing::TempDir();
  std::string out = dir + "design_sj_out.txt";
  std::string s1 = dir + "design_s1.json";
  std::string s2 = dir + "design_s2.json";
  ASSERT_EQ(run_to(std::string(kFastArgs) + " --threads 1 --summary-json " + s1, out), 0);
  ASSERT_EQ(run_to(std::string(kFastArgs) + " --threads 8 --summary-json " + s2, out), 0);
  std::string doc1 = slurp(s1);
  ASSERT_FALSE(doc1.empty());
  EXPECT_EQ(doc1, slurp(s2));
  for (const std::string& p : {out, s1, s2}) std::remove(p.c_str());
}

}  // namespace
}  // namespace flattree
