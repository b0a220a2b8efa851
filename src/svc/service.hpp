#pragma once
// Service: the long-running flattree-svc.v1 request loop (ISSUE 6
// tentpole; durability and overload shedding added by ISSUE 10). Reads
// JSON-lines requests from a stream, evaluates them against up to
// kMaxSessions session shards, and writes one response line per input
// line, in input order.
//
// Determinism contract (the same one every bench in this repo honors):
// given the same input and the same ServiceOptions knobs that are part of
// the protocol surface (max_batch, epsilon, slo, the overload caps), the
// response stream and the journal are byte-identical
//
//   * at any --threads count,
//   * with observability on or off,
//   * when a journal is replayed as the input script,
//   * and across a crash + recover() at any journal commit point.
//
// Batching: consecutive read-only requests (hello/query/what_if/design)
// collect into a batch; any mutating op, any rejected line, a full batch
// (max_batch), or EOF is a boundary. Boundaries are a pure function of the
// input, never of timing. A batch with one live request evaluates on the
// calling thread; a larger batch fans out over the exec pool. Both run the
// same const session executors (see session.hpp), so the batch layout
// never shows in the output bytes. `batches`/`max_batch` count *accepted*
// requests per read-only flush (a flush whose every request is rejected
// counts no batch), which is what lets recovery reconstruct them from the
// journal's committed groups.
//
// Journal: v2 framed (svc/durable/journal.hpp). Every accepted request
// becomes a record frame; every rejected or shed line becomes a
// content-free gap frame; each batch boundary seals a commit-framed group
// — the durability point. Rejected lines still replay cleanly because
// run() auto-detects a v2 journal used as the input script and replays
// its groups with their original seqs and batch layout, so
// `journal(replay(journal)) == journal` byte for byte, and the same holds
// across recover() (see docs/durability.md).
//
// Overload protection (armed as a unit by max_queued != 0, plus the
// independent max_line_bytes cap): oversized lines, queue-depth
// overflows, and deadlines below the deterministic service floor are shed
// with stable svc.overload.* codes before any work is done. Shedding is a
// pure function of the input stream, so shed decisions are identical
// across the whole byte-identity matrix.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "svc/durable/journal.hpp"
#include "svc/durable/snapshot.hpp"
#include "svc/protocol.hpp"
#include "svc/session.hpp"

namespace flattree::obs {
// fwd: backs the `manifest` op when observability is on
class RunSession;
}

namespace flattree::svc {

/// Knobs for one service run; all deterministic except `latency_hook` and
/// the sink plumbing.
struct ServiceOptions {
  std::size_t max_batch = 8;   ///< read-only requests per batch (>= 1)
  double epsilon = 0.12;       ///< GK epsilon for throughput queries
  /// Read by nothing: throughput queries always solve cold. Still declared
  /// because perfbench's svc-stream assigns it; the perfbench-only change
  /// that drops that assignment deletes this field (ROADMAP item 4).
  bool incremental = false;
  bool selfcheck = false;      ///< controller + snapshot invariant batteries
  SloPolicy slo;
  std::ostream* journal = nullptr;  ///< v2 framed journal (null = off)
  /// Append to an existing tail-truncated journal: suppress the v2 header
  /// (set by the --recover path after it truncates the torn tail).
  bool journal_resume = false;
  /// Hard cap on raw input line bytes (0 = unlimited). Over-cap lines are
  /// shed with svc.overload.line_too_long before parsing.
  std::size_t max_line_bytes = 0;
  /// Arms admission control (0 = off): at most this many live queued
  /// read-only requests per session shard; overflow is shed with
  /// svc.overload.queue_full, and deadlines below the deterministic
  /// queue-depth floor are shed with svc.overload.deadline.
  std::size_t max_queued = 0;
  /// Snapshot cadence in committed journal groups (0 = off; needs
  /// snapshot_sink). The cadence counter survives recovery, so a
  /// recovered run snapshots at the same points as the uninterrupted one.
  std::uint64_t snapshot_every = 0;
  /// Receives each periodic snapshot's canonical encoding.
  std::function<void(const std::string&)> snapshot_sink;
  obs::RunSession* manifest_session = nullptr;  ///< backs the `manifest` op
  /// Called at response emission, in input order. `wall_ms` is measured
  /// wall time for evaluating that request — not deterministic, and never
  /// part of the response stream; bench_service builds its latency
  /// histograms and SLO hit rates from this hook.
  std::function<void(const Request& req, bool ok, double wall_ms)> latency_hook;
};

/// What recover() did, for operator visibility and the bench recovery
/// section (all deterministic).
struct RecoverStats {
  std::uint64_t groups_fast = 0;    ///< groups fast-forwarded from frame tallies
  std::uint64_t groups_reexec = 0;  ///< groups re-evaluated through eval()
  std::uint64_t records = 0;        ///< record frames applied
  std::uint64_t resume_seq = 0;     ///< last durable seq; input resumes after it
};

/// The JSON-lines request loop: reads requests, batches consecutive
/// read-only ones through the exec pool (deterministic boundaries, results
/// emitted in input order), journals accepted requests, sheds overload,
/// snapshots periodically, and answers every live line exactly once.
class Service {
 public:
  explicit Service(ServiceOptions opt);

  /// Processes `in` to EOF; one response line per input line on `out`.
  /// When the first line is the journal v2 header the stream is replayed
  /// as a journal script: groups re-evaluate with their original seqs and
  /// batch layout (gap frames reproduce their counters and emit no
  /// response line).
  void run(std::istream& in, std::ostream& out);

  /// Rebuilds state from an optional snapshot plus the committed groups of
  /// a validated journal (read_journal output). Re-executes mutating
  /// records, fast-forwards read-only groups from their commit tallies, and
  /// replays gap frames into the shed/rejected counters. On success the service is byte-equivalent to
  /// one that processed the first resume_seq input lines without crashing;
  /// feed it the remaining lines. Returns false with `error` holding a
  /// stable code + detail (svc.recover.bad_snapshot,
  /// svc.recover.replay_failed, svc.recover.misaligned).
  bool recover(const durable::ServiceSnapshot* snap,
               const durable::JournalContents& journal, RecoverStats& rs,
               std::string& error);

  /// The current state as a decoded snapshot (what the periodic sink
  /// receives, pre-encoding). Also the bench's recovery-equivalence probe:
  /// two services with byte-equal snapshot encodings answer every future
  /// request identically.
  durable::ServiceSnapshot snapshot_state() const;

  const ServiceStats& stats() const { return stats_; }
  /// Controller self_check + snapshot battery violations (selfcheck mode).
  std::size_t selfcheck_violations() const { return violations_; }

 private:
  struct EvalResult {
    std::string response;
    bool ok = false;
    EvalTally tally;
    double wall_ms = 0.0;
  };
  /// One queued read-only request; shed entries keep their slot so
  /// responses stay in input order but are never evaluated.
  struct PendingReq {
    Request req;
    bool shed = false;
    RequestError err;       ///< the svc.overload.* rejection (shed only)
    std::string gap_class;  ///< journal gap class (shed only)
  };

  EvalResult eval(const Request& req);
  /// Evaluates every non-null slot of `reqs` into the same slot of the
  /// result: a lone live request directly on the calling thread (so its
  /// own inner parallel work, e.g. a design op's APL, still fans out),
  /// several on the exec pool.
  std::vector<EvalResult> eval_live(const std::vector<const Request*>& reqs);
  void emit(std::ostream& out, const Request& req, EvalResult&& r);
  /// Counts one rejected line into the stats and obs counters and journals
  /// its gap frame (no frame for an empty `gap_class`: a refused script).
  void reject(std::uint64_t seq, const std::string& gap_class);
  /// Counts one read-only batch of `accepted` requests into batches and
  /// max_batch (a batch with none accepted is not counted). Counting
  /// accepted requests, not queued ones, lets recovery rebuild both from
  /// the journal's record frames.
  void count_batch(std::uint64_t accepted);
  void flush(std::vector<PendingReq>& pending, std::ostream& out);
  /// Processes one raw input line (cap check, parse, admission, dispatch).
  void process_line(std::string line, std::ostream& out,
                    std::vector<PendingReq>& pending);
  /// Seals the open journal group ending at input line `last_seq` and
  /// advances the snapshot cadence.
  void commit_group(std::uint64_t last_seq);
  /// Emits a periodic snapshot when the cadence lands on a safe commit
  /// (every processed line durable — snapshot and journal agree).
  void maybe_snapshot();
  /// Replays a journal used as the input script (see run()).
  void run_journal_script(std::istream& in, std::ostream& out);
  /// Applies one committed group during recover() — re-executes, counts,
  /// or fast-forwards it (see recover()).
  bool replay_group_recover(const durable::JournalGroup& g, RecoverStats& rs,
                            std::string& error);
  /// Records an accepted mutating request into its session's replay
  /// history (a successful build compacts the history).
  void capture_history(const Request& req);
  void fill_stats_payload(obs::JsonValue& payload) const;

  ServiceOptions opt_;
  ServiceStats stats_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<std::vector<durable::SnapshotRecord>> histories_;
  std::unique_ptr<durable::JournalWriter> writer_;
  std::uint64_t groups_committed_ = 0;
  std::uint64_t last_committed_seq_ = 0;
  std::size_t violations_ = 0;
};

}  // namespace flattree::svc
