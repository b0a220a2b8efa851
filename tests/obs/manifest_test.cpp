#include "obs/manifest.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/parses_as_json.hpp"
#include "obs/metrics.hpp"

namespace flattree::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

const char* kArgv[] = {"/path/to/bench_fake", "--seed", "7"};

TEST(Manifest, JsonIsValidAndCarriesSchemaKeys) {
  RunSession run(3, kArgv, "", "");
  run.set_int("seed", 7);
  run.set_int("threads", 2);
  run.set_double("eps", 0.12);
  std::string doc = run.manifest_json();
  EXPECT_TRUE(parses_as_json(doc)) << doc;
  // Every documented top-level key of flattree.run.v1 (manifest.hpp).
  for (const char* key :
       {"\"schema\"", "\"name\"", "\"argv\"", "\"git\"", "\"hardware_threads\"",
        "\"wall_time_s\"", "\"fields\"", "\"subsystems\"", "\"metrics\""})
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  EXPECT_NE(doc.find("\"flattree.run.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"bench_fake\""), std::string::npos);
  EXPECT_NE(doc.find("\"--seed\""), std::string::npos);
  EXPECT_NE(doc.find("\"seed\":7"), std::string::npos);
  EXPECT_NE(doc.find("\"eps\":0.12"), std::string::npos);
  for (const char* key : {"\"counters\"", "\"gauges\"", "\"histograms\""})
    EXPECT_NE(doc.find(key), std::string::npos) << key;
}

TEST(Manifest, InactiveWithoutPaths) {
  RunSession run(3, kArgv, "", "");
  EXPECT_FALSE(run.active());
  EXPECT_TRUE(run.finish());  // no-op, nothing written
}

TEST(Manifest, WritesFileOnFinish) {
  std::string path = testing::TempDir() + "manifest_test_out.json";
  {
    RunSession run(3, kArgv, path, "");
    EXPECT_TRUE(run.active());
    run.set_int("seed", 7);
    EXPECT_TRUE(run.finish());
    EXPECT_TRUE(run.finish());  // idempotent
  }
  std::string doc = slurp(path);
  EXPECT_TRUE(parses_as_json(doc)) << doc;
  EXPECT_NE(doc.find("\"flattree.run.v1\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Manifest, DestructorWrites) {
  std::string path = testing::TempDir() + "manifest_test_dtor.json";
  { RunSession run(3, kArgv, path, ""); }
  EXPECT_TRUE(parses_as_json(slurp(path)));
  std::remove(path.c_str());
}

TEST(Manifest, MetricsSnapshotLandsInDocument) {
  bool before = enabled();
  set_enabled(true);
  reset_metrics();
  Counter("manifesttest.sub.count").add(21);
  RunSession run(3, kArgv, "", "");
  std::string doc = run.manifest_json();
  reset_metrics();
  set_enabled(before);
  EXPECT_NE(doc.find("\"manifesttest.sub.count\":21"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"manifesttest\""), std::string::npos);  // in subsystems
}

TEST(Manifest, FinishFailsOnUnwritablePath) {
  RunSession run(3, kArgv, "/nonexistent_dir_zz/manifest.json", "");
  EXPECT_FALSE(run.finish());
}

TEST(GitDescribe, ReturnsSomething) {
  std::string v = git_describe();
  EXPECT_FALSE(v.empty());  // a description or the "unknown" fallback
}

}  // namespace
}  // namespace flattree::obs
