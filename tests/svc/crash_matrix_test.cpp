// The crash matrix (ISSUE 10 acceptance): sever the journal at every cut
// point in the default fault::CrashPlan — each commit (frame) boundary
// plus every byte of the final record frame — recover a fresh service
// from snapshot + journal, resume the remaining request stream, and
// byte-compare every response and the combined journal against the
// uninterrupted run. Also the satellite replay-equivalence matrix:
// journal(replay(recover(snapshot, journal_suffix))) == journal at
// threads 1 and 8, obs on/off, incremental on/off, and the corrupted
// non-tail record negative control.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exec/parallel_for.hpp"
#include "crash_fixture.hpp"
#include "fault/crash.hpp"
#include "obs/metrics.hpp"
#include "svc/service.hpp"

namespace flattree::svc {
namespace {

/// Drops the first `n` lines of `text` (each line '\n'-terminated).
std::string drop_lines(const std::string& text, std::uint64_t n) {
  std::size_t pos = 0;
  for (std::uint64_t i = 0; i < n && pos < text.size(); ++i)
    pos = text.find('\n', pos) + 1;
  return text.substr(pos);
}

/// The default plan from the acceptance criteria: a cut after every frame
/// (line) boundary, plus every byte of the final record frame.
fault::CrashPlan default_plan(const std::string& journal) {
  std::vector<std::uint64_t> boundaries;
  std::size_t pos = 0;
  while ((pos = journal.find('\n', pos)) != std::string::npos) {
    ++pos;
    boundaries.push_back(pos);
  }
  std::size_t last_record = journal.rfind("\nr ");
  EXPECT_NE(last_record, std::string::npos);
  std::size_t record_end = journal.find('\n', last_record + 1);
  return fault::merge_plans(fault::crash_after_each_frame(boundaries),
                            fault::crash_every_byte(last_record + 1, record_end + 1));
}

/// Recovers from the surviving journal prefix (+ optional snapshot),
/// resumes the remaining script, and returns {response suffix, combined
/// journal}. Fails the test on any recovery refusal.
struct Recovered {
  std::string responses;
  std::string journal;
  std::uint64_t resume_seq = 0;
};

Recovered recover_and_resume(const Reference& ref, std::uint64_t cut,
                             bool use_snapshot, bool incremental = false) {
  Recovered result;
  std::string prefix = ref.journal.substr(0, cut);
  durable::JournalContents contents;
  durable::JournalError jerr;
  EXPECT_TRUE(durable::read_journal(prefix, contents, jerr))
      << "cut " << cut << ": " << jerr.code;
  EXPECT_LE(contents.committed_bytes, cut);
  std::string durable_prefix = prefix.substr(0, contents.committed_bytes);

  durable::ServiceSnapshot snap;
  bool have_snap = false;
  if (use_snapshot) {
    // The latest snapshot written while the durable prefix still covered
    // it — what the atomic tmp+rename maintenance would have on disk.
    for (const auto& [size, bytes] : ref.snapshots) {
      if (size > contents.committed_bytes) break;
      durable::SnapshotError serr;
      EXPECT_TRUE(durable::decode_snapshot(bytes, snap, serr)) << serr.code;
      have_snap = true;
    }
  }

  std::ostringstream journal2;
  ServiceOptions opt = crash_options();
  opt.journal = &journal2;
  opt.journal_resume = true;
  opt.incremental = incremental;
  opt.snapshot_every = 2;
  opt.snapshot_sink = [](const std::string&) {};  // cadence on, capture unused
  Service service(opt);
  RecoverStats rs;
  std::string error;
  EXPECT_TRUE(service.recover(have_snap ? &snap : nullptr, contents, rs, error))
      << "cut " << cut << ": " << error;
  result.resume_seq = rs.resume_seq;

  std::istringstream in(drop_lines(crash_script(), rs.resume_seq));
  std::ostringstream out;
  service.run(in, out);
  result.responses = out.str();
  result.journal = durable_prefix + journal2.str();
  return result;
}

TEST(CrashMatrix, EveryCutPointRecoversByteIdentical) {
  exec::set_global_threads(1);
  Reference ref = run_reference();
  ASSERT_FALSE(ref.journal.empty());
  ASSERT_FALSE(ref.snapshots.empty());

  fault::CrashPlan plan = default_plan(ref.journal);
  ASSERT_GT(plan.cuts.size(), 20u);
  for (std::uint64_t cut : plan.cuts) {
    for (bool use_snapshot : {true, false}) {
      Recovered got = recover_and_resume(ref, cut, use_snapshot);
      // The response stream picks up exactly where the durable prefix
      // ends, and the combined journal is the uninterrupted journal.
      EXPECT_EQ(got.responses, drop_lines(ref.responses, got.resume_seq))
          << "cut " << cut << " snapshot=" << use_snapshot;
      EXPECT_EQ(got.journal, ref.journal)
          << "cut " << cut << " snapshot=" << use_snapshot;
    }
  }
  exec::set_global_threads(0);
}

TEST(CrashMatrix, CorruptedNonTailRecordIsRefused) {
  exec::set_global_threads(1);
  Reference ref = run_reference();
  // Flip a byte inside the first record frame's payload: the journal
  // still ends with later valid commits, so this cannot be mistaken for
  // a torn tail and recovery must refuse rather than guess.
  std::size_t at = ref.journal.find("{\"op\":\"hello\"");
  ASSERT_NE(at, std::string::npos);
  std::string corrupted = ref.journal;
  corrupted[at + 7] ^= 0x20;
  durable::JournalContents contents;
  durable::JournalError jerr;
  ASSERT_FALSE(durable::read_journal(corrupted, contents, jerr));
  EXPECT_EQ(jerr.code, "svc.journal.corrupt_record");
  EXPECT_EQ(jerr.record, 1u);
  exec::set_global_threads(0);
}

TEST(CrashMatrix, ReplayEquivalenceAcrossThreadsObsAndIncremental) {
  // Satellite: journal(replay(recover(snapshot, journal_suffix))) ==
  // journal, byte for byte, across the whole determinism matrix. The cut
  // is a mid-stream commit boundary so the recovery has both a snapshot
  // to restore and a journal suffix to replay.
  exec::set_global_threads(1);
  Reference ref = run_reference();
  fault::CrashPlan plan = default_plan(ref.journal);
  const std::uint64_t cut = plan.cuts[plan.cuts.size() / 2];

  struct Config {
    unsigned threads;
    bool obs;
    bool incremental;
  };
  const Config configs[] = {{1, false, false}, {8, false, false}, {1, true, false},
                            {8, true, false},  {1, false, true},  {8, false, true},
                            {1, true, true},   {8, true, true}};
  for (const Config& c : configs) {
    exec::set_global_threads(c.threads);
    obs::set_enabled(c.obs);
    Recovered got = recover_and_resume(ref, cut, /*use_snapshot=*/true,
                                       c.incremental);
    EXPECT_EQ(got.journal, ref.journal)
        << "threads=" << c.threads << " obs=" << c.obs << " inc=" << c.incremental;
    EXPECT_EQ(got.responses, drop_lines(ref.responses, got.resume_seq));

    // And the recovered journal replays as a fixpoint: feeding it back as
    // the input script journals the exact same bytes.
    std::ostringstream journal3;
    ServiceOptions opt = crash_options();
    opt.journal = &journal3;
    opt.incremental = c.incremental;
    Service replayer(opt);
    std::istringstream in(got.journal);
    std::ostringstream out;
    replayer.run(in, out);
    EXPECT_EQ(journal3.str(), got.journal)
        << "threads=" << c.threads << " obs=" << c.obs << " inc=" << c.incremental;
  }
  obs::set_enabled(false);
  exec::set_global_threads(0);
}

}  // namespace
}  // namespace flattree::svc
