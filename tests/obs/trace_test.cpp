#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/parses_as_json.hpp"

namespace flattree::obs {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string temp_path(const char* name) { return testing::TempDir() + name; }

/// Spans of the buffered session, as write_trace() writes them (one line
/// each after the meta line).
std::size_t written_span_count() {
  const std::string path = temp_path("trace_test_count.jsonl");
  EXPECT_TRUE(write_trace(path));
  const std::size_t lines = read_lines(path).size();
  std::remove(path.c_str());
  return lines - 1;
}

TEST(Trace, InertWithoutStart) {
  stop_tracing();
  { OBS_SPAN("test.inert"); }
  EXPECT_FALSE(tracing());
}

TEST(Trace, RecordsAndCountsSpans) {
  start_tracing();
  EXPECT_TRUE(tracing());
  {
    OBS_SPAN("test.outer");
    { OBS_SPAN("test.inner"); }
    { OBS_SPAN("test.inner"); }
  }
  stop_tracing();
  EXPECT_EQ(written_span_count(), 3u);
}

TEST(Trace, StartClearsPreviousSession) {
  start_tracing();
  { OBS_SPAN("test.old"); }
  start_tracing();
  { OBS_SPAN("test.new"); }
  stop_tracing();
  EXPECT_EQ(written_span_count(), 1u);
}

TEST(Trace, WriteEmitsValidJsonLines) {
  std::string path = temp_path("trace_test_out.jsonl");
  start_tracing();
  {
    OBS_SPAN("test.write.outer");
    OBS_SPAN("test.write.inner");
  }
  ASSERT_TRUE(write_trace(path));
  EXPECT_FALSE(tracing());  // write stops the session
  auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);  // meta + 2 spans
  for (const std::string& line : lines) EXPECT_TRUE(parses_as_json(line)) << line;
  EXPECT_NE(lines[0].find("\"event\":\"trace_meta\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"spans\":2"), std::string::npos);
  // Spans are sorted by start time: outer opened first.
  EXPECT_NE(lines[1].find("test.write.outer"), std::string::npos);
  EXPECT_NE(lines[1].find("\"depth\":0"), std::string::npos);
  EXPECT_NE(lines[2].find("test.write.inner"), std::string::npos);
  EXPECT_NE(lines[2].find("\"depth\":1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Trace, NestingDepthFollowsScopes) {
  std::string path = temp_path("trace_test_depth.jsonl");
  start_tracing();
  {
    OBS_SPAN("test.depth.a");
    {
      OBS_SPAN("test.depth.b");
      { OBS_SPAN("test.depth.c"); }
    }
  }
  ASSERT_TRUE(write_trace(path));
  auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[3].find("\"depth\":2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Trace, ThreadsGetDistinctOrdinals) {
  std::string path = temp_path("trace_test_tids.jsonl");
  start_tracing();
  std::thread t1([] { OBS_SPAN("test.tid.worker"); });
  t1.join();
  std::thread t2([] { OBS_SPAN("test.tid.worker"); });
  t2.join();
  { OBS_SPAN("test.tid.main"); }
  ASSERT_TRUE(write_trace(path));
  auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  // Three spans from three threads: at least two distinct tids among them.
  std::ostringstream all;
  for (std::size_t i = 1; i < lines.size(); ++i) all << lines[i] << '\n';
  std::string joined = all.str();
  int distinct = 0;
  for (const char* tid : {"\"tid\":0", "\"tid\":1", "\"tid\":2"})
    if (joined.find(tid) != std::string::npos) ++distinct;
  EXPECT_GE(distinct, 2);
  std::remove(path.c_str());
}

TEST(Trace, WriteToUnwritablePathFails) {
  start_tracing();
  { OBS_SPAN("test.unwritable"); }
  EXPECT_FALSE(write_trace("/nonexistent_dir_zz/trace.jsonl"));
}

}  // namespace
}  // namespace flattree::obs
