// flattree_svc --recover end to end, out of process: a journal file
// severed mid-record recovers to a byte-identical journal and the exact
// remaining response stream; a crash after a periodic snapshot restores
// through the snapshot and resumes; a corrupted or headerless journal and
// a corrupted snapshot are refused with exit code 3.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace flattree {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
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
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// The full session script; mutating ops, deadlined queries, and one
/// rejected line so the journal carries a gap frame across the crash.
std::string session_script() {
  return R"({"op":"hello","id":"h"}
{"op":"build","k":4}
{"op":"traffic","cluster":8,"pattern":"broadcast","placement":"none","seed":7}
{"op":"fault","events":[{"t":1,"kind":"switch_down","a":0}],"advance":2}
{"op":"query","id":"q1"}
not json at all
{"op":"convert","target":"global","advance":0}
{"op":"convert","advance":1000000}
{"op":"query","id":"q2"}
{"op":"stats"}
)";
}

struct BinRun {
  int exit_code = -1;
  std::string stdout_text;
  std::string stderr_text;
};

/// Runs the binary with explicit flags; journal/snapshot files are the
/// caller's to create, inspect, and remove.
BinRun run_svc(const std::string& bin, const std::string& flags,
               const std::string& tag) {
  std::string out_path = testing::TempDir() + "rec_out_" + tag + ".jsonl";
  std::string err_path = testing::TempDir() + "rec_err_" + tag + ".txt";
  std::string cmd = bin + " " + flags + " > " + out_path + " 2> " + err_path;
  BinRun r;
  int status = std::system(cmd.c_str());
  r.exit_code = WEXITSTATUS(status);
  r.stdout_text = slurp(out_path);
  r.stderr_text = slurp(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return r;
}

TEST(RecoveryBinary, SeveredJournalRecoversByteIdentical) {
  std::string bin = FT_SVC_BIN;
  if (!file_exists(bin)) GTEST_SKIP() << "binary not built: " << bin;

  std::string script_path = testing::TempDir() + "rec_session.jsonl";
  std::string journal_path = testing::TempDir() + "rec_journal.jsonl";
  write_file(script_path, session_script());

  BinRun ref = run_svc(
      bin, "--threads 1 --script " + script_path + " --journal " + journal_path,
      "ref");
  ASSERT_EQ(ref.exit_code, 0) << ref.stderr_text;
  std::string ref_journal = slurp(journal_path);
  ASSERT_FALSE(ref_journal.empty());

  // Sever the file mid way through its final record frame — a torn write.
  std::size_t last_record = ref_journal.rfind("\nr ");
  ASSERT_NE(last_record, std::string::npos);
  std::size_t cut = last_record + 8;
  write_file(journal_path, ref_journal.substr(0, cut));

  BinRun rec = run_svc(bin,
                       "--threads 1 --recover --script " + script_path +
                           " --journal " + journal_path,
                       "rec");
  EXPECT_EQ(rec.exit_code, 0) << rec.stderr_text;
  EXPECT_NE(rec.stderr_text.find("resuming after line"), std::string::npos)
      << rec.stderr_text;
  // The combined on-disk journal is the uninterrupted journal, byte for
  // byte, and stdout is exactly the not-yet-durable tail of the session.
  EXPECT_EQ(slurp(journal_path), ref_journal);
  ASSERT_FALSE(rec.stdout_text.empty());
  ASSERT_LE(rec.stdout_text.size(), ref.stdout_text.size());
  EXPECT_EQ(rec.stdout_text,
            ref.stdout_text.substr(ref.stdout_text.size() - rec.stdout_text.size()));

  std::remove(script_path.c_str());
  std::remove(journal_path.c_str());
}

TEST(RecoveryBinary, SnapshotRestoreResumesAfterACrash) {
  std::string bin = FT_SVC_BIN;
  if (!file_exists(bin)) GTEST_SKIP() << "binary not built: " << bin;

  // Crash emulation with a faithful disk state: run only the first five
  // lines (journal + periodic snapshot on disk, snapshot never ahead of
  // the journal — exactly what a crash after line five leaves), then tear
  // the tail and hand --recover the full session.
  std::string script = session_script();
  std::string prefix;
  std::size_t pos = 0;
  for (int i = 0; i < 5; ++i) pos = script.find('\n', pos) + 1;
  prefix = script.substr(0, pos);

  std::string prefix_path = testing::TempDir() + "rec_snap_prefix.jsonl";
  std::string script_path = testing::TempDir() + "rec_snap_session.jsonl";
  std::string journal_path = testing::TempDir() + "rec_snap_journal.jsonl";
  std::string snapshot_path = testing::TempDir() + "rec_snap_state.txt";
  write_file(prefix_path, prefix);
  write_file(script_path, script);

  BinRun ref = run_svc(bin,
                       "--threads 1 --script " + script_path + " --journal " +
                           journal_path,
                       "snapref");
  ASSERT_EQ(ref.exit_code, 0) << ref.stderr_text;

  BinRun crash = run_svc(bin,
                         "--threads 1 --snapshot-every 1 --script " + prefix_path +
                             " --journal " + journal_path + " --snapshot " +
                             snapshot_path,
                         "crash");
  ASSERT_EQ(crash.exit_code, 0) << crash.stderr_text;
  ASSERT_TRUE(file_exists(snapshot_path)) << "no periodic snapshot written";
  write_file(journal_path, slurp(journal_path) + "r 999 dead");  // torn tail

  BinRun rec = run_svc(bin,
                       "--threads 1 --recover --script " + script_path +
                           " --journal " + journal_path + " --snapshot " +
                           snapshot_path + " --snapshot-every 1",
                       "snaprec");
  EXPECT_EQ(rec.exit_code, 0) << rec.stderr_text;
  EXPECT_NE(rec.stderr_text.find("resuming after line 5"), std::string::npos)
      << rec.stderr_text;
  EXPECT_NE(rec.stderr_text.find("truncating"), std::string::npos)
      << rec.stderr_text;
  // Responses for lines six onward, byte-equal to the uninterrupted run's.
  ASSERT_FALSE(rec.stdout_text.empty());
  EXPECT_EQ(rec.stdout_text,
            ref.stdout_text.substr(ref.stdout_text.size() - rec.stdout_text.size()));

  // A corrupted snapshot is refused outright.
  std::string snap = slurp(snapshot_path);
  std::size_t at = snap.find("stats ");
  ASSERT_NE(at, std::string::npos);
  snap[at + 6] = snap[at + 6] == '9' ? '8' : '9';
  write_file(snapshot_path, snap);
  BinRun bad = run_svc(bin,
                       "--threads 1 --recover --script " + script_path +
                           " --journal " + journal_path + " --snapshot " +
                           snapshot_path,
                       "snapbad");
  EXPECT_EQ(bad.exit_code, 3);
  EXPECT_NE(bad.stderr_text.find("svc.snapshot."), std::string::npos)
      << bad.stderr_text;

  std::remove(prefix_path.c_str());
  std::remove(script_path.c_str());
  std::remove(journal_path.c_str());
  std::remove(snapshot_path.c_str());
}

TEST(RecoveryBinary, CorruptJournalIsRefusedWithExitThree) {
  std::string bin = FT_SVC_BIN;
  if (!file_exists(bin)) GTEST_SKIP() << "binary not built: " << bin;

  std::string script_path = testing::TempDir() + "rec_bad_session.jsonl";
  std::string journal_path = testing::TempDir() + "rec_bad_journal.jsonl";
  write_file(script_path, session_script());
  BinRun ref = run_svc(
      bin, "--threads 1 --script " + script_path + " --journal " + journal_path,
      "badref");
  ASSERT_EQ(ref.exit_code, 0);

  // Flip one byte inside the first record's payload; later commits stay
  // valid, so this is corruption, not a torn tail.
  std::string journal = slurp(journal_path);
  std::size_t at = journal.find("{\"op\":\"hello\"");
  ASSERT_NE(at, std::string::npos);
  journal[at + 7] ^= 0x20;
  write_file(journal_path, journal);

  BinRun rec = run_svc(bin,
                       "--threads 1 --recover --script " + script_path +
                           " --journal " + journal_path,
                       "badrec");
  EXPECT_EQ(rec.exit_code, 3);
  EXPECT_NE(rec.stderr_text.find("svc.journal.corrupt_record"), std::string::npos)
      << rec.stderr_text;
  EXPECT_TRUE(rec.stdout_text.empty());
  // The refusal must not have modified the file: recovery is read-validate
  // first, truncate only what a clean parse proved torn.
  EXPECT_EQ(slurp(journal_path), journal);

  std::remove(script_path.c_str());
  std::remove(journal_path.c_str());
}

TEST(RecoveryBinary, HeaderlessJournalIsRefusedWithExitThree) {
  std::string bin = FT_SVC_BIN;
  if (!file_exists(bin)) GTEST_SKIP() << "binary not built: " << bin;

  // Bare canonical lines with no journal header: refused like any other
  // corruption, and the file is left exactly as it was.
  std::string script = session_script();
  std::string script_path = testing::TempDir() + "rec_hdr_session.jsonl";
  std::string journal_path = testing::TempDir() + "rec_hdr_journal.jsonl";
  write_file(script_path, script);
  std::size_t two = script.find('\n', script.find('\n') + 1) + 1;
  const std::string journal = script.substr(0, two);
  write_file(journal_path, journal);

  BinRun rec = run_svc(bin,
                       "--threads 1 --recover --script " + script_path +
                           " --journal " + journal_path,
                       "hdrrec");
  EXPECT_EQ(rec.exit_code, 3);
  EXPECT_NE(rec.stderr_text.find("svc.journal.bad_header"), std::string::npos)
      << rec.stderr_text;
  EXPECT_TRUE(rec.stdout_text.empty());
  EXPECT_EQ(slurp(journal_path), journal);

  std::remove(script_path.c_str());
  std::remove(journal_path.c_str());
}

}  // namespace
}  // namespace flattree
