// flattree_svc: the stdin/stdout flat-tree controller service.
//
//   echo '{"op":"build","k":8}' | flattree_svc
//   flattree_svc --script session.jsonl --journal journal.jsonl
//   flattree_svc --script session.jsonl --journal journal.jsonl
//                --snapshot snap.txt --snapshot-every 8 --recover
//
// One flattree-svc.v1 response line per input line (see DESIGN.md
// Section 9). The response stream and journal are byte-identical at any
// --threads count, with or without --metrics-json/--trace, when a journal
// is replayed as the next --script, and across a crash + --recover
// (docs/durability.md).
//
// Durability: --journal writes the CRC-framed v2 journal; --snapshot
// names the snapshot file the periodic sink maintains (atomically, via
// tmp + rename) every --snapshot-every committed groups. --recover
// validates the journal, truncates its torn tail in place, restores the
// snapshot (when the file exists), replays the journal suffix, skips the
// already-durable prefix of the input script, and resumes — the combined
// journal ends byte-identical to an uninterrupted run. Overload caps:
// --max-line-bytes sheds oversized lines; --max-queued arms per-session
// admission control and deadline shedding (svc.overload.* codes).
//
// Exit codes: 0 ok, 1 selfcheck violations, 2 bad flag value or
// unopenable file, 3 recovery refused (corrupt journal/snapshot or replay
// failure).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "exec/parallel_for.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/svc.hpp"
#include "util/cli.hpp"

using namespace flattree;

namespace {

bool slurp(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string script, journal_path, snapshot_path, metrics_json, trace;
  std::int64_t batch = 8, threads = 0;
  std::int64_t snapshot_every = 32, max_line_bytes = 0, max_queued = 0;
  double eps = 0.12;
  bool selfcheck = false, recover = false;

  constexpr std::int64_t kMaxI64 = std::numeric_limits<std::int64_t>::max();
  util::CliParser cli("flattree_svc: JSON-lines controller service (flattree-svc.v1).");
  cli.add_string("script", &script, "read requests from this file instead of stdin");
  cli.add_string("journal", &journal_path,
                 "write the CRC-framed v2 journal of accepted requests to this file");
  cli.add_string("snapshot", &snapshot_path,
                 "maintain the periodic state snapshot at this path (tmp + rename)");
  cli.add_int("snapshot-every", &snapshot_every,
              {1, std::numeric_limits<std::uint32_t>::max()},
              "snapshot cadence in committed journal groups (needs --snapshot)");
  cli.add_bool("recover", &recover,
               "recover from --snapshot/--journal before reading the script: "
               "truncate the journal's torn tail, replay, resume after the "
               "durable prefix (exit 3 if the journal or snapshot is corrupt)");
  cli.add_int("max-line-bytes", &max_line_bytes, {0, kMaxI64},
              "shed request lines longer than this before parsing (0 = unlimited)");
  cli.add_int("max-queued", &max_queued, {0, kMaxI64},
              "arm admission control: max queued read-only requests per session "
              "(0 = off; also arms deterministic deadline shedding)");
  cli.add_int("batch", &batch, {1, svc::kMaxBatch},
              "max consecutive read-only requests evaluated as one batch");
  cli.add_int("threads", &threads, {0, exec::kMaxThreads},
              "execution threads (0 = FLATTREE_THREADS env / hardware concurrency)");
  cli.add_double("eps", &eps, util::DoubleRange::open(0.0, 1.0),
                 "Garg-Koenemann epsilon for throughput queries");
  cli.add_bool("selfcheck", &selfcheck,
               "run the controller validity battery after every mutating request "
               "and the snapshot battery after every snapshot (exit 1 on any "
               "violation)");
  cli.add_string("metrics-json", &metrics_json,
                 "write a JSON run manifest to this path (also backs the 'manifest' op)");
  cli.add_string("trace", &trace, "write a JSON-lines span trace to this path");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  exec::set_global_threads(static_cast<unsigned>(threads));
  obs::RunSession obs_session(argc, argv, metrics_json, trace);
  if (obs_session.active()) {
    obs::set_enabled(true);
    if (!trace.empty()) obs::start_tracing();
  }

  std::ifstream script_file;
  if (!script.empty()) {
    script_file.open(script);
    if (!script_file) {
      std::fprintf(stderr, "flattree_svc: cannot open --script '%s'\n", script.c_str());
      return 2;
    }
  }

  if (recover && journal_path.empty()) {
    std::fprintf(stderr, "flattree_svc: --recover requires --journal\n");
    return 2;
  }

  // Recovery happens before the journal is (re)opened for writing: read
  // and validate the old bytes, truncate the torn tail in place, then
  // append to the durable prefix.
  svc::durable::JournalContents recovered_journal;
  svc::durable::ServiceSnapshot recovered_snapshot;
  bool have_snapshot = false;
  if (recover) {
    std::string bytes;
    if (!slurp(journal_path, bytes)) {
      std::fprintf(stderr, "flattree_svc recover: cannot read --journal '%s'\n",
                   journal_path.c_str());
      return 3;
    }
    svc::durable::JournalError jerr;
    if (!svc::durable::read_journal(bytes, recovered_journal, jerr)) {
      std::fprintf(stderr, "flattree_svc recover: %s: %s (record %llu)\n",
                   jerr.code.c_str(), jerr.message.c_str(),
                   static_cast<unsigned long long>(jerr.record));
      return 3;
    }
    if (recovered_journal.truncated_bytes > 0) {
      std::fprintf(stderr, "flattree_svc recover: truncating %llu torn byte(s)\n",
                   static_cast<unsigned long long>(recovered_journal.truncated_bytes));
    }
    std::error_code ec;
    std::filesystem::resize_file(journal_path, recovered_journal.committed_bytes, ec);
    if (ec) {
      std::fprintf(stderr, "flattree_svc recover: cannot truncate '%s': %s\n",
                   journal_path.c_str(), ec.message().c_str());
      return 3;
    }
    std::string snap_bytes;
    if (!snapshot_path.empty() && slurp(snapshot_path, snap_bytes)) {
      svc::durable::SnapshotError serr;
      if (!svc::durable::decode_snapshot(snap_bytes, recovered_snapshot, serr)) {
        std::fprintf(stderr, "flattree_svc recover: %s: %s (line %llu)\n",
                     serr.code.c_str(), serr.message.c_str(),
                     static_cast<unsigned long long>(serr.line));
        return 3;
      }
      have_snapshot = true;
    }
  }

  std::ofstream journal_file;
  if (!journal_path.empty()) {
    journal_file.open(journal_path, recover ? std::ios::binary | std::ios::app
                                            : std::ios::binary | std::ios::trunc);
    if (!journal_file) {
      std::fprintf(stderr, "flattree_svc: cannot open --journal '%s'\n",
                   journal_path.c_str());
      return 2;
    }
  }

  svc::ServiceOptions opt;
  opt.max_batch = static_cast<std::size_t>(batch);
  opt.epsilon = eps;
  opt.selfcheck = selfcheck;
  opt.journal = journal_path.empty() ? nullptr : &journal_file;
  // Resume (header already on disk) unless the durable prefix came back
  // empty — a journal cut mid-header truncates to nothing, and the fresh
  // append must start with a header again.
  opt.journal_resume = recover && recovered_journal.committed_bytes > 0;
  opt.max_line_bytes = static_cast<std::size_t>(max_line_bytes);
  opt.max_queued = static_cast<std::size_t>(max_queued);
  opt.manifest_session = &obs_session;
  if (!snapshot_path.empty()) {
    opt.snapshot_every = static_cast<std::uint64_t>(snapshot_every);
    // Atomic maintenance of the latest snapshot: write aside, then rename
    // over, so a crash mid-snapshot leaves the previous one intact.
    opt.snapshot_sink = [snapshot_path](const std::string& bytes) {
      const std::string tmp = snapshot_path + ".tmp";
      {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f) {
          std::fprintf(stderr, "flattree_svc: cannot write snapshot '%s'\n",
                       tmp.c_str());
          return;
        }
        f << bytes;
      }
      std::error_code ec;
      std::filesystem::rename(tmp, snapshot_path, ec);
      if (ec)
        std::fprintf(stderr, "flattree_svc: cannot rename snapshot into '%s': %s\n",
                     snapshot_path.c_str(), ec.message().c_str());
    };
  }

  svc::Service service(opt);
  std::istream& in = script.empty() ? std::cin : static_cast<std::istream&>(script_file);

  if (recover) {
    svc::RecoverStats rs;
    std::string error;
    if (!service.recover(have_snapshot ? &recovered_snapshot : nullptr,
                         recovered_journal, rs, error)) {
      std::fprintf(stderr, "flattree_svc recover: %s\n", error.c_str());
      return 3;
    }
    std::fprintf(stderr,
                 "flattree_svc recover: resuming after line %llu (%llu group(s) "
                 "fast-forwarded, %llu re-executed, %llu record(s))\n",
                 static_cast<unsigned long long>(rs.resume_seq),
                 static_cast<unsigned long long>(rs.groups_fast),
                 static_cast<unsigned long long>(rs.groups_reexec),
                 static_cast<unsigned long long>(rs.records));
    // The input script is the *full* session; the first resume_seq lines
    // are already durable and must not be re-answered.
    std::string skip;
    for (std::uint64_t i = 0; i < rs.resume_seq; ++i)
      if (!std::getline(in, skip)) break;
  }

  service.run(in, std::cout);
  std::cout.flush();

  if (selfcheck) {
    std::size_t v = service.selfcheck_violations();
    if (v > 0) {
      std::fprintf(stderr, "flattree_svc selfcheck: FAILED (%zu violation(s))\n", v);
      return 1;
    }
    std::fprintf(stderr, "flattree_svc selfcheck: OK (0 violations)\n");
  }
  return 0;
}
