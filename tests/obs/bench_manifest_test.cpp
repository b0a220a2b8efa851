// Runs a real bench binary with --metrics-json/--trace and checks the
// emitted manifest: parseable JSON, the documented flattree.run.v1 keys,
// and at least four distinct instrumented subsystems. FT_BENCH_DIR is
// injected by CMake and points at the bench build directory.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
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

/// Crude extraction of the "subsystems":[...] string array.
std::vector<std::string> subsystems_of(const std::string& doc) {
  std::vector<std::string> out;
  std::size_t at = doc.find("\"subsystems\":[");
  if (at == std::string::npos) return out;
  at += 14;
  std::size_t end = doc.find(']', at);
  std::string body = doc.substr(at, end - at);
  std::size_t pos = 0;
  while ((pos = body.find('"', pos)) != std::string::npos) {
    std::size_t close = body.find('"', pos + 1);
    if (close == std::string::npos) break;
    out.push_back(body.substr(pos + 1, close - pos - 1));
    pos = close + 1;
  }
  return out;
}

TEST(BenchManifest, Fig5EmitsSchemaConformantManifest) {
  std::string bench = std::string(FT_BENCH_DIR) + "/bench_fig5_apl_global";
  if (!file_exists(bench)) GTEST_SKIP() << "bench binary not built: " << bench;

  std::string manifest = testing::TempDir() + "bench_manifest_fig5.json";
  std::string trace = testing::TempDir() + "bench_manifest_fig5.jsonl";
  std::string cmd = bench + " --kmax 8 --threads 2 --metrics-json=" + manifest +
                    " --trace=" + trace + " > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  std::string doc = slurp(manifest);
  ASSERT_FALSE(doc.empty());
  EXPECT_TRUE(obs::parses_as_json(doc)) << doc;

  // Documented flattree.run.v1 top-level keys (src/obs/manifest.hpp).
  for (const char* key :
       {"\"schema\"", "\"name\"", "\"argv\"", "\"git\"", "\"hardware_threads\"",
        "\"wall_time_s\"", "\"fields\"", "\"subsystems\"", "\"metrics\"",
        "\"counters\"", "\"gauges\"", "\"histograms\""})
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  EXPECT_NE(doc.find("\"flattree.run.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"bench_fig5_apl_global\""), std::string::npos);
  EXPECT_NE(doc.find("\"--kmax\""), std::string::npos);  // argv captured
  EXPECT_NE(doc.find("\"seed\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"threads\":2"), std::string::npos);

  auto subs = subsystems_of(doc);
  EXPECT_GE(subs.size(), 4u) << doc;

  // Trace: first line is the meta record, every line valid JSON.
  std::ifstream tin(trace);
  std::string line;
  ASSERT_TRUE(std::getline(tin, line));
  EXPECT_NE(line.find("\"event\":\"trace_meta\""), std::string::npos);
  int checked = 0;
  while (std::getline(tin, line) && checked < 50) {
    EXPECT_TRUE(obs::parses_as_json(line)) << line;
    ++checked;
  }
  EXPECT_GT(checked, 0);

  std::remove(manifest.c_str());
  std::remove(trace.c_str());
}

TEST(BenchManifest, Fig5OutputUnchangedByObsFlags) {
  std::string bench = std::string(FT_BENCH_DIR) + "/bench_fig5_apl_global";
  if (!file_exists(bench)) GTEST_SKIP() << "bench binary not built: " << bench;

  std::string plain = testing::TempDir() + "bench_plain.txt";
  std::string obs_out = testing::TempDir() + "bench_obs.txt";
  std::string manifest = testing::TempDir() + "bench_obs_manifest.json";
  std::string base = bench + " --kmax 6 --threads 1";
  ASSERT_EQ(std::system((base + " > " + plain + " 2>/dev/null").c_str()), 0);
  ASSERT_EQ(std::system((base + " --metrics-json=" + manifest + " > " + obs_out +
                         " 2>/dev/null")
                            .c_str()),
            0);
  EXPECT_EQ(slurp(plain), slurp(obs_out));  // stdout bit-identical
  std::remove(plain.c_str());
  std::remove(obs_out.c_str());
  std::remove(manifest.c_str());
}

}  // namespace
}  // namespace flattree
