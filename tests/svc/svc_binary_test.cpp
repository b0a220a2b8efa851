// flattree_svc end to end, out of process: the acceptance matrix from
// ISSUE 6 — a saved session script replayed through the binary produces
// byte-identical response streams and journals at --threads 1 vs 8, with
// observability on or off, and when the journal is fed back as the next
// --script. FT_SVC_BIN / FT_BENCH_DIR are injected
// by CMake; the tests skip cleanly if a binary is missing.

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

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

/// The saved session script: build, traffic, faults, staged conversion,
/// deadlined queries, what-if, expansion probe, stats. Every line is
/// accepted, so responses (not just journals) must match across replays.
std::string session_script() {
  return R"({"op":"hello","id":"h"}
{"op":"build","k":4}
{"op":"traffic","cluster":8,"pattern":"broadcast","placement":"none","seed":7}
{"op":"fault","events":[{"t":1,"kind":"switch_down","a":0}],"advance":2}
{"op":"query","id":"q1"}
{"op":"query","id":"q2","deadline_ms":0.01}
{"op":"what_if","target":"global","deadline_ms":5}
{"op":"convert","target":"global","advance":0}
{"op":"convert","advance":1000000}
{"op":"fault","events":[{"t":2,"kind":"switch_up","a":0}]}
{"op":"convert","target":"clos"}
{"op":"stats"}
)";
}

struct BinRun {
  int exit_code = -1;
  std::string stdout_text;
  std::string journal;
};

BinRun run_svc(const std::string& bin, const std::string& script_path,
               const std::string& tag, const std::string& extra_flags) {
  std::string out_path = testing::TempDir() + "svc_out_" + tag + ".jsonl";
  std::string journal_path = testing::TempDir() + "svc_journal_" + tag + ".jsonl";
  std::string cmd = bin + " --script " + script_path + " --journal " + journal_path +
                    " " + extra_flags + " > " + out_path + " 2>/dev/null";
  BinRun r;
  r.exit_code = std::system(cmd.c_str());
  r.stdout_text = slurp(out_path);
  r.journal = slurp(journal_path);
  std::remove(out_path.c_str());
  std::remove(journal_path.c_str());
  return r;
}

TEST(SvcBinary, ReplayMatrixIsByteIdentical) {
  std::string bin = FT_SVC_BIN;
  if (!file_exists(bin)) GTEST_SKIP() << "binary not built: " << bin;

  std::string script_path = testing::TempDir() + "svc_session.jsonl";
  write_file(script_path, session_script());

  BinRun reference = run_svc(bin, script_path, "ref", "--threads 1");
  ASSERT_EQ(reference.exit_code, 0);
  ASSERT_FALSE(reference.stdout_text.empty());
  ASSERT_FALSE(reference.journal.empty());

  std::string manifest = testing::TempDir() + "svc_manifest.json";
  const struct {
    const char* tag;
    std::string flags;
  } variants[] = {
      {"t8", "--threads 8"},
      {"obs", "--threads 2 --metrics-json=" + manifest},
  };
  for (const auto& v : variants) {
    BinRun got = run_svc(bin, script_path, v.tag, v.flags);
    EXPECT_EQ(got.exit_code, 0) << v.flags;
    EXPECT_EQ(got.stdout_text, reference.stdout_text) << v.flags;
    EXPECT_EQ(got.journal, reference.journal) << v.flags;
  }
  std::remove(manifest.c_str());
  std::remove(script_path.c_str());
}

/// Drops journal v2 commit frames (`c ` lines): commit placement
/// intentionally tracks batch (durability) boundaries, but the record and
/// gap sequence must be batch-invariant.
std::string strip_commits(const std::string& journal) {
  std::string out;
  std::size_t pos = 0;
  while (pos < journal.size()) {
    std::size_t nl = journal.find('\n', pos);
    if (nl == std::string::npos) nl = journal.size() - 1;
    std::string line = journal.substr(pos, nl + 1 - pos);
    if (line.rfind("c ", 0) != 0) out += line;
    pos = nl + 1;
  }
  return out;
}

TEST(SvcBinary, BatchLayoutNeverShowsInResponses) {
  // max_batch is a protocol-surface knob only where it is deliberately
  // reported (the hello handshake and the `stats` counters); every other
  // response must be byte-identical whether a query ran alone in a batch
  // of one or beside others in a parallel batch. The script drops both ops. The
  // journal's records and gaps must match too; only commit-frame placement
  // may move, since commits *are* the batch boundaries.
  std::string bin = FT_SVC_BIN;
  if (!file_exists(bin)) GTEST_SKIP() << "binary not built: " << bin;

  std::string script_path = testing::TempDir() + "svc_session_nostats.jsonl";
  std::string script = session_script();
  script.erase(0, script.find('\n') + 1);  // drop the hello line
  script.erase(script.find("{\"op\":\"stats\"}\n"));
  write_file(script_path, script);

  BinRun one = run_svc(bin, script_path, "b1", "--threads 8 --batch 1");
  ASSERT_EQ(one.exit_code, 0);
  for (const char* flags : {"--threads 8 --batch 8", "--threads 1 --batch 32"}) {
    BinRun wide = run_svc(bin, script_path, "bN", flags);
    EXPECT_EQ(wide.exit_code, 0) << flags;
    EXPECT_EQ(wide.stdout_text, one.stdout_text) << flags;
    EXPECT_EQ(strip_commits(wide.journal), strip_commits(one.journal)) << flags;
  }
  std::remove(script_path.c_str());
}

TEST(SvcBinary, JournalReplaysAsAFixpoint) {
  std::string bin = FT_SVC_BIN;
  if (!file_exists(bin)) GTEST_SKIP() << "binary not built: " << bin;

  // Include rejected lines: they get responses but must not be journaled,
  // and the journal must replay with zero rejections.
  std::string script_path = testing::TempDir() + "svc_session_dirty.jsonl";
  write_file(script_path, session_script() + "this is not json\n{\"op\":\"nope\"}\n");

  BinRun first = run_svc(bin, script_path, "dirty", "--threads 2");
  ASSERT_EQ(first.exit_code, 0);
  EXPECT_NE(first.stdout_text.find("\"ok\":false"), std::string::npos);
  EXPECT_EQ(first.journal.find("not json"), std::string::npos);

  std::string journal_path = testing::TempDir() + "svc_replay_input.jsonl";
  write_file(journal_path, first.journal);
  BinRun replayed = run_svc(bin, journal_path, "replay", "--threads 2");
  ASSERT_EQ(replayed.exit_code, 0);
  EXPECT_EQ(replayed.journal, first.journal);  // journal(replay(journal)) == journal
  EXPECT_EQ(replayed.stdout_text.find("\"ok\":false"), std::string::npos);

  std::remove(script_path.c_str());
  std::remove(journal_path.c_str());
}

TEST(SvcBinary, SelfcheckExitsCleanOnAValidSession) {
  std::string bin = FT_SVC_BIN;
  if (!file_exists(bin)) GTEST_SKIP() << "binary not built: " << bin;

  std::string script_path = testing::TempDir() + "svc_selfcheck.jsonl";
  write_file(script_path, session_script());
  BinRun r = run_svc(bin, script_path, "sc", "--threads 2 --selfcheck");
  EXPECT_EQ(r.exit_code, 0);
  std::remove(script_path.c_str());
}

TEST(SvcBinary, UnknownFlagFailsWithUsage) {
  std::string bin = FT_SVC_BIN;
  if (!file_exists(bin)) GTEST_SKIP() << "binary not built: " << bin;

  std::string err_path = testing::TempDir() + "svc_badflag.txt";
  std::string cmd = bin + " --no-such-flag < /dev/null > /dev/null 2> " + err_path;
  EXPECT_NE(std::system(cmd.c_str()), 0);
  std::string err = slurp(err_path);
  // The error names the offending flag and lists the valid ones.
  EXPECT_NE(err.find("no-such-flag"), std::string::npos) << err;
  EXPECT_NE(err.find("--script"), std::string::npos) << err;
  EXPECT_NE(err.find("--journal"), std::string::npos) << err;
  std::remove(err_path.c_str());
}

TEST(SvcBinary, MissingScriptFileExitsTwo) {
  std::string bin = FT_SVC_BIN;
  if (!file_exists(bin)) GTEST_SKIP() << "binary not built: " << bin;

  int status = std::system(
      (bin + " --script /nonexistent/session.jsonl > /dev/null 2>&1").c_str());
  EXPECT_EQ(WEXITSTATUS(status), 2);
}

// NaN passes `eps <= 0 || eps >= 1`, and a negative rate cast to the
// uint64_t budget is undefined behaviour: both binaries refuse such knobs
// before any request is read, naming the flag.
TEST(SvcBinary, BadEpsilonOrRateExitsTwo) {
  std::string svc = FT_SVC_BIN;
  std::string bench = std::string(FT_BENCH_DIR) + "/bench_service";
  const char* bad[] = {"--eps nan",          "--eps 0",          "--eps 1",
                       "--eps -0.5",         "--augs-per-ms -1e30", "--augs-per-ms nan",
                       "--augs-per-ms 0",    "--augs-per-ms inf"};
  std::string err_path = testing::TempDir() + "svc_badknob.txt";
  for (const std::string& bin : {svc, bench}) {
    if (!file_exists(bin)) GTEST_SKIP() << "binary not built: " << bin;
    for (const char* flags : bad) {
      std::string cmd =
          bin + " " + flags + " < /dev/null > /dev/null 2> " + err_path;
      int status = std::system(cmd.c_str());
      EXPECT_EQ(WEXITSTATUS(status), 2) << bin << " " << flags;
      std::string flag = std::string(flags).substr(0, std::string(flags).find(' '));
      EXPECT_NE(slurp(err_path).find(flag), std::string::npos) << bin << " " << flags;
    }
  }
  std::remove(err_path.c_str());
}

}  // namespace
}  // namespace flattree
