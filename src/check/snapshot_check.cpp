#include "check/snapshot_check.hpp"

#include "svc/durable/snapshot.hpp"
#include "svc/protocol.hpp"

namespace flattree::check {

namespace {

std::string u64s(std::uint64_t v) { return std::to_string(v); }

}  // namespace

Report validate_snapshot(const svc::durable::ServiceSnapshot& s) {
  count_run();
  Report rep;
  const svc::ServiceStats& st = s.stats;

  std::uint64_t by_op_sum = 0;
  for (std::uint64_t n : st.accepted_by_op) by_op_sum += n;
  rep.note_check();
  if (by_op_sum != st.accepted)
    rep.add("snapshot.counter", "accepted (" + u64s(st.accepted) +
                                    ") != sum of per-op counts (" +
                                    u64s(by_op_sum) + ")");
  rep.note_check();
  if (st.accepted + st.rejected != st.lines)
    rep.add("snapshot.counter",
            "lines (" + u64s(st.lines) + ") != accepted (" + u64s(st.accepted) +
                ") + rejected (" + u64s(st.rejected) + ")");
  rep.note_check();
  if (st.shed_oversize + st.shed_queue + st.shed_deadline > st.rejected)
    rep.add("snapshot.counter", "shed counters exceed rejected");
  rep.note_check();
  if (st.journal_lines > st.accepted)
    rep.add("snapshot.counter", "journal_lines (" + u64s(st.journal_lines) +
                                    ") > accepted (" + u64s(st.accepted) + ")");
  rep.note_check();
  if (st.batches > st.accepted)
    rep.add("snapshot.counter", "batches (" + u64s(st.batches) + ") > accepted (" +
                                    u64s(st.accepted) + ")");
  rep.note_check();
  if (st.max_batch > st.accepted)
    rep.add("snapshot.counter", "max_batch (" + u64s(st.max_batch) +
                                    ") > accepted (" + u64s(st.accepted) + ")");

  std::uint64_t prev_id = 0;
  bool first_session = true;
  for (const svc::durable::SnapshotSession& sess : s.sessions) {
    rep.note_check();
    if (sess.id >= svc::kMaxSessions) {
      rep.add("snapshot.session",
              "session id " + u64s(sess.id) + " out of range");
      continue;
    }
    rep.note_check();
    if (!first_session && sess.id <= prev_id)
      rep.add("snapshot.session",
              "session ids not strictly ascending at id " + u64s(sess.id));
    first_session = false;
    prev_id = sess.id;

    std::uint64_t prev_seq = 0;
    bool first_record = true;
    for (const svc::durable::SnapshotRecord& rec : sess.records) {
      const std::string where =
          "session " + u64s(sess.id) + " record seq " + u64s(rec.seq);
      rep.note_check();
      if (first_record && rec.op != "build")
        rep.add("snapshot.record", where + ": history must start with `build`");
      first_record = false;
      rep.note_check();
      if (rec.seq <= prev_seq || rec.seq > st.lines)
        rep.add("snapshot.record",
                where + ": seq not strictly increasing within [1, lines]");
      prev_seq = rec.seq;

      svc::Op op;
      rep.note_check();
      if (!svc::parse_op(rec.op, op) || !svc::mutating(op)) {
        rep.add("snapshot.record", where + ": op `" + rec.op + "` is not a "
                                           "mutating session op");
        continue;
      }
      svc::Request req;
      svc::RequestError rerr;
      rep.note_check();
      if (!svc::parse_request(rec.canonical, rec.seq, req, rerr)) {
        rep.add("snapshot.record",
                where + ": canonical fails parse_request: " + rerr.code);
        continue;
      }
      rep.note_check();
      if (req.op != op || req.session != sess.id ||
          req.canonical != rec.canonical)
        rep.add("snapshot.record",
                where + ": canonical disagrees with its op/session tags or is "
                        "not a parse fixpoint");
    }
  }
  return rep;
}

}  // namespace flattree::check
