#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>

#include "check/snapshot_check.hpp"
#include "exec/parallel_for.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flattree::svc {

namespace {

obs::Counter c_requests("svc.requests");
obs::Counter c_rejected("svc.rejected");
obs::Counter c_batches("svc.batches");
obs::Counter c_shed("svc.overload.shed");
obs::Counter c_snapshots("svc.durable.snapshots");
obs::Counter c_rec_fast("svc.durable.recover_fast");
obs::Counter c_rec_reexec("svc.durable.recover_reexec");

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Counts one rejected line of `gap_class` (the journal gap class; empty
/// for a refused journal script) into the rejected and shed counters.
void count_gap(ServiceStats& st, const std::string& gap_class) {
  ++st.rejected;
  if (gap_class == "oversize")
    ++st.shed_oversize;
  else if (gap_class == "queue")
    ++st.shed_queue;
  else if (gap_class == "deadline")
    ++st.shed_deadline;
}

void add_tally(ServiceStats& st, const EvalTally& t) {
  st.fault_events += t.fault_events;
  st.solves += t.solves;
  st.truncated_solves += t.truncated;
  st.certified_solves += t.certified;
}

}  // namespace

Service::Service(ServiceOptions opt) : opt_(std::move(opt)) {
  if (opt_.max_batch == 0) opt_.max_batch = 1;
  sessions_.resize(kMaxSessions);
  histories_.resize(kMaxSessions);
  if (opt_.journal != nullptr)
    writer_ = std::make_unique<durable::JournalWriter>(*opt_.journal,
                                                       opt_.journal_resume);
}

void Service::fill_stats_payload(obs::JsonValue& payload) const {
  for (const StatsField& f : kStatsFields) {
    put(payload, f.name, jint(static_cast<std::int64_t>(stats_.*f.member)));
    if (f.member != &ServiceStats::rejected) continue;
    obs::JsonValue ops = obs::JsonValue::make_object();
    for (int i = 0; i < static_cast<int>(kOpCount); ++i)
      if (stats_.accepted_by_op[i] > 0)
        put(ops, to_string(static_cast<Op>(i)),
            jint(static_cast<std::int64_t>(stats_.accepted_by_op[i])));
    put(payload, "ops", std::move(ops));
  }
}

Service::EvalResult Service::eval(const Request& req) {
  OBS_SPAN("svc.eval");
  EvalResult r;
  obs::JsonValue payload = obs::JsonValue::make_object();
  RequestError err;
  const double t0 = now_ms();

  try {
    switch (req.op) {
      case Op::Hello:
        // Protocol constants only: anything that varies with run knobs that
        // the byte-identity matrix toggles (--threads, obs)
        // must stay out of the response stream.
        put(payload, "proto", jstr("flattree-svc.v1"));
        put(payload, "max_batch", jint(static_cast<std::int64_t>(opt_.max_batch)));
        put(payload, "sessions", jint(kMaxSessions));
        r.ok = true;
        break;
      case Op::Stats:
        fill_stats_payload(payload);
        r.ok = true;
        break;
      case Op::Manifest: {
        std::string path;
        bool present = false;
        if (!req_string(req.body, "path", path, present, err)) break;
        if (!present) {
          err = RequestError{"svc.request.bad_field", "field 'path' (string) is required"};
          break;
        }
        // The side effect depends on observability; the response must not
        // (obs on/off byte-identity), so failures only warn on stderr.
        if (opt_.manifest_session != nullptr && obs::enabled()) {
          std::ofstream f(path);
          if (f) {
            f << opt_.manifest_session->manifest_json() << '\n';
          } else {
            std::fprintf(stderr, "svc: cannot write manifest to '%s'\n", path.c_str());
          }
        }
        put(payload, "path", jstr(path));
        r.ok = true;
        break;
      }
      case Op::Build:
      case Op::Traffic:
      case Op::Fault:
      case Op::Convert:
      case Op::Expand: {
        // Mutating ops run on the sequential path only; create the shard
        // lazily (exec_* other than build still require a built plant).
        if (sessions_[req.session] == nullptr) {
          SessionOptions sopt;
          sopt.epsilon = opt_.epsilon;
          sopt.slo = opt_.slo;
          sessions_[req.session] = std::make_unique<Session>(sopt);
        }
        Session& s = *sessions_[req.session];
        switch (req.op) {
          case Op::Build:
            r.ok = s.exec_build(req, payload, err);
            break;
          case Op::Traffic:
            r.ok = s.exec_traffic(req, payload, err);
            break;
          case Op::Fault:
            r.ok = s.exec_fault(req, payload, r.tally, err);
            break;
          case Op::Convert:
            r.ok = s.exec_convert(req, payload, err);
            break;
          default:
            r.ok = s.exec_expand(req, payload, err);
            break;
        }
        if (r.ok && opt_.selfcheck && req.op != Op::Traffic) {
          check::Report report = s.controller().self_check();
          if (!report.ok()) {
            violations_ += report.violations.size();
            std::string text = report.to_string();
            std::fprintf(stderr, "svc selfcheck[seq %llu]: %zu violation(s)\n%s\n",
                         static_cast<unsigned long long>(req.seq),
                         report.violations.size(), text.c_str());
          }
        }
        break;
      }
      case Op::Query:
      case Op::WhatIf:
      case Op::Design: {
        const Session* s = sessions_[req.session].get();
        if (s == nullptr || !s->built()) {
          err = RequestError{"svc.session.not_built",
                             "session has no plant; send a 'build' request first"};
          break;
        }
        r.ok = req.op == Op::Query    ? s->exec_query(req, payload, r.tally, err)
               : req.op == Op::WhatIf ? s->exec_what_if(req, payload, r.tally, err)
                                      : s->exec_design(req, payload, r.tally, err);
        break;
      }
    }
  } catch (const std::exception& e) {
    r.ok = false;
    err = RequestError{"svc.internal", e.what()};
  }

  r.wall_ms = now_ms() - t0;
  r.response = r.ok ? render_response(req, payload) : render_error(req, err);
  return r;
}

void Service::capture_history(const Request& req) {
  if (!mutating(req.op)) return;
  // A successful build resets the shard, so everything before it is
  // unreachable state: compact the history down to this build.
  if (req.op == Op::Build) histories_[req.session].clear();
  durable::SnapshotRecord rec;
  rec.op = to_string(req.op);
  rec.seq = req.seq;
  rec.canonical = req.canonical;
  histories_[req.session].push_back(std::move(rec));
}

void Service::emit(std::ostream& out, const Request& req, EvalResult&& r) {
  out << r.response << '\n';
  if (r.ok) {
    ++stats_.accepted;
    ++stats_.accepted_by_op[static_cast<int>(req.op)];
    add_tally(stats_, r.tally);
    if (writer_) {
      writer_->append_record(req.seq, req.canonical);
      writer_->add_tally(r.tally);
      ++stats_.journal_lines;
    }
    capture_history(req);
    if (obs::enabled()) c_requests.inc();
  } else {
    reject(req.seq, "reject");
  }
  if (opt_.latency_hook) opt_.latency_hook(req, r.ok, r.wall_ms);
}

void Service::reject(std::uint64_t seq, const std::string& gap_class) {
  count_gap(stats_, gap_class);
  if (writer_ && !gap_class.empty()) writer_->append_gap(seq, gap_class);
  if (obs::enabled()) {
    c_requests.inc();
    c_rejected.inc();
    if (gap_class != "reject" && !gap_class.empty()) c_shed.inc();
  }
}

std::vector<Service::EvalResult> Service::eval_live(
    const std::vector<const Request*>& reqs) {
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < reqs.size(); ++i)
    if (reqs[i] != nullptr) live.push_back(i);
  std::vector<EvalResult> results(reqs.size());
  if (live.size() == 1) {
    // Not through parallel_for: a single-chunk run opens a TaskScope, which
    // would run the request's own inner parallel work sequentially.
    results[live[0]] = eval(*reqs[live[0]]);
  } else if (live.size() > 1) {
    // Read-only fan-out: results land in per-index slots.
    exec::parallel_for(live.size(),
                       [&](std::size_t i) { results[live[i]] = eval(*reqs[live[i]]); });
  }
  return results;
}

void Service::count_batch(std::uint64_t accepted) {
  if (accepted == 0) return;
  ++stats_.batches;
  stats_.max_batch = std::max(stats_.max_batch, accepted);
  if (obs::enabled()) c_batches.inc();
}

void Service::flush(std::vector<PendingReq>& pending, std::ostream& out) {
  if (pending.empty()) return;

  std::vector<const Request*> live(pending.size(), nullptr);
  for (std::size_t i = 0; i < pending.size(); ++i)
    if (!pending[i].shed) live[i] = &pending[i].req;
  std::vector<EvalResult> results = eval_live(live);
  count_batch(static_cast<std::uint64_t>(std::count_if(
      results.begin(), results.end(), [](const EvalResult& r) { return r.ok; })));

  const std::uint64_t last_seq = pending.back().req.seq;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    PendingReq& p = pending[i];
    if (p.shed) {
      out << render_error(p.req, p.err) << '\n';
      reject(p.req.seq, p.gap_class);
      if (opt_.latency_hook) opt_.latency_hook(p.req, false, 0.0);
    } else {
      emit(out, p.req, std::move(results[i]));
    }
  }
  pending.clear();
  commit_group(last_seq);
}

void Service::commit_group(std::uint64_t last_seq) {
  if (writer_) writer_->commit();
  ++groups_committed_;
  last_committed_seq_ = last_seq;
  maybe_snapshot();
}

void Service::maybe_snapshot() {
  if (!opt_.snapshot_sink || opt_.snapshot_every == 0) return;
  if (groups_committed_ % opt_.snapshot_every != 0) return;
  // Only snapshot at safe points: every processed line is durable, so a
  // recovery from this snapshot resumes exactly after stats.lines. When a
  // cadence tick lands on an unsafe commit (the flush forced by a boundary
  // whose own line is not yet committed), it is skipped — deterministically,
  // so recovered and uninterrupted runs still snapshot at the same points.
  if (stats_.lines != last_committed_seq_) return;
  durable::ServiceSnapshot snap = snapshot_state();
  std::string bytes = durable::encode_snapshot(snap);
  if (opt_.selfcheck) {
    check::Report rep = check::validate_snapshot(snap);
    durable::ServiceSnapshot back;
    durable::SnapshotError serr;
    if (!durable::decode_snapshot(bytes, back, serr))
      rep.add("snapshot.roundtrip", "decode of a fresh snapshot failed: " + serr.code);
    else if (durable::encode_snapshot(back) != bytes)
      rep.add("snapshot.roundtrip", "encode(decode(s)) != s");
    if (!rep.ok()) {
      violations_ += rep.violations.size();
      std::string text = rep.to_string();
      std::fprintf(stderr, "svc snapshot selfcheck[line %llu]: %zu violation(s)\n%s\n",
                   static_cast<unsigned long long>(stats_.lines),
                   rep.violations.size(), text.c_str());
    }
  }
  opt_.snapshot_sink(bytes);
  if (obs::enabled()) c_snapshots.inc();
}

durable::ServiceSnapshot Service::snapshot_state() const {
  durable::ServiceSnapshot s;
  s.stats = stats_;
  s.groups_committed = groups_committed_;
  for (std::uint32_t id = 0; id < kMaxSessions; ++id) {
    if (histories_[id].empty()) continue;
    durable::SnapshotSession sess;
    sess.id = id;
    sess.records = histories_[id];
    s.sessions.push_back(std::move(sess));
  }
  return s;
}

void Service::process_line(std::string line, std::ostream& out,
                           std::vector<PendingReq>& pending) {
  const std::uint64_t seq = ++stats_.lines;
  if (!line.empty() && line.back() == '\r') line.pop_back();

  if (opt_.max_line_bytes != 0 && line.size() > opt_.max_line_bytes) {
    // Shed before parsing: the cap exists so a hostile line cannot make the
    // parser do work proportional to its length.
    flush(pending, out);
    RequestError err{"svc.overload.line_too_long",
                     "request line of " + std::to_string(line.size()) +
                         " bytes exceeds the " +
                         std::to_string(opt_.max_line_bytes) + "-byte cap"};
    out << render_line_error(seq, err) << '\n';
    reject(seq, "oversize");
    commit_group(seq);
    return;
  }

  Request req;
  RequestError err;
  if (!parse_request(line, seq, req, err)) {
    // A rejected line is a batch boundary so the error response keeps
    // its place in the stream.
    flush(pending, out);
    out << render_line_error(seq, err) << '\n';
    reject(seq, "reject");
    commit_group(seq);
    return;
  }

  if (read_only(req.op)) {
    PendingReq p;
    p.req = std::move(req);
    if (opt_.max_queued != 0) {
      // Admission control: depth = live queued requests for this shard.
      std::size_t depth = 0;
      for (const PendingReq& q : pending)
        if (!q.shed && q.req.session == p.req.session) ++depth;
      if (depth >= opt_.max_queued) {
        p.shed = true;
        p.gap_class = "queue";
        p.err = RequestError{
            "svc.overload.queue_full",
            "session " + std::to_string(p.req.session) + " already has " +
                std::to_string(depth) + " queued request(s) (cap " +
                std::to_string(opt_.max_queued) + ")"};
      } else if (p.req.deadline_ms > 0.0) {
        // Deterministic deadline floor: each queued request ahead costs at
        // least the minimum augmentation budget at the policy rate.
        const double floor_ms =
            static_cast<double>(depth) *
            (static_cast<double>(opt_.slo.min_augmentations) /
             opt_.slo.augmentations_per_ms);
        if (p.req.deadline_ms < floor_ms) {
          p.shed = true;
          p.gap_class = "deadline";
          p.err = RequestError{
              "svc.overload.deadline",
              "deadline_ms below the deterministic queue floor for " +
                  std::to_string(depth) + " queued request(s)"};
        }
      }
    }
    pending.push_back(std::move(p));
    if (pending.size() >= opt_.max_batch) flush(pending, out);
  } else {
    flush(pending, out);
    const std::uint64_t mseq = req.seq;
    emit(out, req, eval(req));
    commit_group(mseq);
  }
}

void Service::run(std::istream& in, std::ostream& out) {
  OBS_SPAN("svc.run");
  std::string line;
  std::vector<PendingReq> pending;
  pending.reserve(opt_.max_batch);
  bool first = true;

  while (std::getline(in, line)) {
    if (first) {
      first = false;
      std::string probe = line;
      if (!probe.empty() && probe.back() == '\r') probe.pop_back();
      if (probe == durable::kJournalHeaderV2) {
        run_journal_script(in, out);
        return;
      }
    }
    process_line(std::move(line), out, pending);
  }
  flush(pending, out);
}

void Service::run_journal_script(std::istream& in, std::ostream& out) {
  std::string rest((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::string bytes = std::string(durable::kJournalHeaderV2) + '\n' + rest;
  durable::JournalContents jc;
  durable::JournalError jerr;
  if (!durable::read_journal(bytes, jc, jerr)) {
    out << render_line_error(0, {jerr.code, jerr.message + " (record " +
                                                std::to_string(jerr.record) + ")"})
        << '\n';
    reject(0, "");
    return;
  }

  for (const durable::JournalGroup& g : jc.groups) {
    // Parse every record up front with its original seq; gaps re-journal
    // and count but emit no response line (their original responses were
    // errors and are not reconstructible from a content-free marker).
    std::vector<Request> reqs(g.entries.size());
    std::vector<const Request*> live(g.entries.size(), nullptr);
    std::uint64_t last_seq = stats_.lines;
    for (std::size_t i = 0; i < g.entries.size(); ++i) {
      const durable::JournalEntry& e = g.entries[i];
      last_seq = std::max(last_seq, e.seq);
      if (!e.is_record) continue;
      RequestError rerr;
      if (!parse_request(e.canonical, e.seq, reqs[i], rerr)) {
        out << render_line_error(e.seq, {"svc.journal.bad_canonical",
                                         "journaled record at seq " +
                                             std::to_string(e.seq) +
                                             " fails parse_request: " + rerr.code})
            << '\n';
        reject(e.seq, "");
        return;
      }
      live[i] = &reqs[i];
    }
    stats_.lines = last_seq;

    // Re-evaluate with the original batch layout, so the re-journaled
    // frames match the input byte for byte.
    std::vector<EvalResult> results = eval_live(live);
    std::uint64_t batch = 0;
    for (std::size_t i = 0; i < g.entries.size(); ++i)
      if (results[i].ok && read_only(reqs[i].op)) ++batch;
    count_batch(batch);

    for (std::size_t i = 0; i < g.entries.size(); ++i) {
      const durable::JournalEntry& e = g.entries[i];
      if (e.is_record)
        emit(out, reqs[i], std::move(results[i]));
      else
        reject(e.seq, e.gap_class);
    }
    commit_group(last_seq);
  }
}

bool Service::replay_group_recover(const durable::JournalGroup& g,
                                   RecoverStats& rs, std::string& error) {
  std::uint64_t last_seq = stats_.lines;
  std::uint64_t read_only_records = 0;
  bool reexecuted = false;
  for (const durable::JournalEntry& e : g.entries) {
    last_seq = std::max(last_seq, e.seq);
    if (!e.is_record) {
      count_gap(stats_, e.gap_class);
      continue;
    }
    Request req;
    RequestError rerr;
    if (!parse_request(e.canonical, e.seq, req, rerr)) {
      error = "svc.recover.replay_failed: journaled record at seq " +
              std::to_string(e.seq) + " fails parse_request: " + rerr.code;
      return false;
    }
    ++rs.records;
    ++stats_.journal_lines;
    ++stats_.accepted;
    ++stats_.accepted_by_op[static_cast<int>(req.op)];
    if (mutating(req.op)) {
      EvalResult r = eval(req);
      if (!r.ok) {
        error = "svc.recover.replay_failed: journaled " +
                std::string(to_string(req.op)) + " at seq " +
                std::to_string(e.seq) + " re-rejected: " + r.response;
        return false;
      }
      reexecuted = true;
      capture_history(req);
    } else if (read_only(req.op)) {
      // Fast-forwarded from the commit tally, never re-solved. Stats and
      // Manifest are count-only: no state to rebuild, and the manifest
      // side effect is not replayed.
      ++read_only_records;
    }
  }
  add_tally(stats_, g.tally);
  count_batch(read_only_records);
  stats_.lines = last_seq;
  ++groups_committed_;
  last_committed_seq_ = last_seq;
  if (reexecuted) {
    ++rs.groups_reexec;
    if (obs::enabled()) c_rec_reexec.inc();
  } else {
    ++rs.groups_fast;
    if (obs::enabled()) c_rec_fast.inc();
  }
  return true;
}

bool Service::recover(const durable::ServiceSnapshot* snap,
                      const durable::JournalContents& journal, RecoverStats& rs,
                      std::string& error) {
  OBS_SPAN("svc.recover");
  rs = RecoverStats{};
  std::uint64_t snap_lines = 0;

  if (snap != nullptr) {
    check::Report rep = check::validate_snapshot(*snap);
    if (!rep.ok()) {
      error = "svc.recover.bad_snapshot: " + rep.violations[0].code + ": " +
              rep.violations[0].message;
      return false;
    }
    // Command-sourcing: rebuild each shard by re-executing its mutating
    // history through the normal eval path (bitwise-equal state), then
    // restore the counters verbatim from the snapshot.
    for (const durable::SnapshotSession& sess : snap->sessions) {
      for (const durable::SnapshotRecord& rec : sess.records) {
        Request req;
        RequestError rerr;
        if (!parse_request(rec.canonical, rec.seq, req, rerr)) {
          error = "svc.recover.replay_failed: snapshot record at seq " +
                  std::to_string(rec.seq) + " fails parse_request: " + rerr.code;
          return false;
        }
        EvalResult r = eval(req);
        if (!r.ok) {
          error = "svc.recover.replay_failed: snapshot " + rec.op +
                  " at seq " + std::to_string(rec.seq) +
                  " re-rejected: " + r.response;
          return false;
        }
      }
      histories_[sess.id] = sess.records;
    }
    stats_ = snap->stats;
    groups_committed_ = snap->groups_committed;
    last_committed_seq_ = snap->stats.lines;
    snap_lines = snap->stats.lines;
  }

  for (const durable::JournalGroup& g : journal.groups) {
    std::uint64_t first = g.entries.front().seq;
    std::uint64_t last = first;
    for (const durable::JournalEntry& e : g.entries) {
      if (e.seq < first) first = e.seq;
      if (e.seq > last) last = e.seq;
    }
    if (last <= snap_lines) continue;  // already folded into the snapshot
    if (first <= snap_lines) {
      error = "svc.recover.misaligned: journal group spanning seqs " +
              std::to_string(first) + ".." + std::to_string(last) +
              " straddles the snapshot at line " + std::to_string(snap_lines);
      return false;
    }
    if (!replay_group_recover(g, rs, error)) return false;
  }
  rs.resume_seq = stats_.lines;
  return true;
}

}  // namespace flattree::svc
