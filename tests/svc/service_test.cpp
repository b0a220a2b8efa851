// svc::Service end to end, in process: the byte-identity matrix (threads
// 1 vs 8, obs on vs off), the journal's replay
// fixpoint, deadline-budgeted responses, the protocol error paths, and
// deterministic batch accounting. This is the sockets-free version of the
// acceptance criterion the flattree_svc binary test repeats out of
// process.

#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/parallel_for.hpp"
#include "obs/metrics.hpp"

namespace flattree::svc {
namespace {

struct RunResult {
  std::string responses;
  std::string journal;
  ServiceStats stats;
  std::size_t violations = 0;
};

RunResult run_service(const std::string& script, ServiceOptions opt = {}) {
  std::ostringstream journal;
  opt.journal = &journal;
  Service service(opt);
  std::istringstream in(script);
  std::ostringstream out;
  service.run(in, out);
  return {out.str(), journal.str(), service.stats(), service.selfcheck_violations()};
}

/// Parses the `index`-th response line (0-based) into a JsonValue.
obs::JsonValue response_at(const std::string& responses, std::size_t index) {
  std::istringstream in(responses);
  std::string line;
  for (std::size_t i = 0; i <= index; ++i) {
    EXPECT_TRUE(static_cast<bool>(std::getline(in, line))) << "response " << index;
  }
  obs::JsonValue v;
  obs::JsonError err;
  EXPECT_TRUE(obs::json_parse(line, v, &err)) << line << " -> " << err.code;
  return v;
}

bool response_ok(const obs::JsonValue& v) {
  const obs::JsonValue* ok = v.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

std::string error_code(const obs::JsonValue& v) {
  const obs::JsonValue* err = v.find("error");
  if (err == nullptr) return "";
  const obs::JsonValue* code = err->find("code");
  return code != nullptr ? code->as_string() : "";
}

/// A small but complete session: build, traffic, faults, a staged
/// conversion, queries (one deadlined), a what-if, expand-as-plan, stats.
std::string full_script() {
  return R"({"op":"hello","id":1}
{"op":"build","k":4}
{"op":"traffic","cluster":8,"pattern":"broadcast","placement":"none","seed":7}
{"op":"fault","events":[{"t":1,"kind":"switch_down","a":0}],"advance":2}
{"op":"query","id":"q1"}
{"op":"query","id":"q2","deadline_ms":0.01}
{"op":"what_if","target":"global"}
{"op":"convert","target":"global","advance":0}
{"op":"convert","advance":1000000}
{"op":"fault","events":[{"t":2,"kind":"switch_up","a":0}]}
{"op":"convert","target":"clos"}
{"op":"stats"}
)";
}

TEST(Service, ByteIdentityAcrossThreadsAndObs) {
  const std::string script = full_script();
  ServiceOptions base;
  base.max_batch = 4;

  exec::set_global_threads(1);
  RunResult reference = run_service(script, base);
  ASSERT_FALSE(reference.responses.empty());

  struct Config {
    unsigned threads;
    bool obs;
  };
  const Config configs[] = {{8, false}, {1, true}, {8, true}};
  for (const Config& c : configs) {
    exec::set_global_threads(c.threads);
    obs::set_enabled(c.obs);
    RunResult got = run_service(script, base);
    EXPECT_EQ(got.responses, reference.responses)
        << "threads=" << c.threads << " obs=" << c.obs;
    EXPECT_EQ(got.journal, reference.journal);
  }
  obs::set_enabled(false);
  exec::set_global_threads(0);
}

TEST(Service, RefusesABatchCapOutsideItsRange) {
  // A cap of 0 forms no batch, and one above kMaxBatch is not reserved.
  for (std::size_t cap : {std::size_t{0}, kMaxBatch + 1}) {
    ServiceOptions opt;
    opt.max_batch = cap;
    EXPECT_THROW(Service{opt}, std::invalid_argument) << cap;
  }
  ServiceOptions opt;
  opt.max_batch = kMaxBatch;
  EXPECT_NO_THROW(Service{opt});
}

TEST(Service, JournalIsAReplayFixpoint) {
  // The v2 journal frames the canonical form of every accepted request and
  // marks rejected lines with content-free gap frames. Replaying it as the
  // script must reproduce the same state trajectory, the same counters
  // (including the rejections, reconstructed from the gaps), and journal
  // the exact same bytes.
  std::string script = full_script() +
                       "this line is not json\n"
                       "{\"op\":\"frobnicate\"}\n";
  RunResult first = run_service(script);
  EXPECT_EQ(first.stats.rejected, 2u);

  RunResult replayed = run_service(first.journal);
  EXPECT_EQ(replayed.stats.rejected, first.stats.rejected);
  EXPECT_EQ(replayed.stats.accepted, first.stats.accepted);
  EXPECT_EQ(replayed.stats.batches, first.stats.batches);
  EXPECT_EQ(replayed.stats.max_batch, first.stats.max_batch);
  EXPECT_EQ(replayed.journal, first.journal);  // fixpoint
}

TEST(Service, RejectedRequestsAreNotJournaled) {
  RunResult r = run_service(
      "{\"op\":\"query\"}\n"          // not built -> rejected
      "{\"op\":\"hello\"}\n"          // accepted
      "not json at all\n"             // parse error -> rejected
      "{\"op\":\"build\",\"k\":-3}\n"  // bad params -> rejected
  );
  EXPECT_EQ(r.stats.accepted, 1u);
  EXPECT_EQ(r.stats.rejected, 3u);
  EXPECT_EQ(r.stats.journal_lines, 1u);
  // Only the accepted request's bytes appear (as a record frame); the
  // rejected lines leave content-free gap frames, never their payloads.
  EXPECT_NE(r.journal.find("2 {\"op\":\"hello\"}\n"), std::string::npos) << r.journal;
  EXPECT_EQ(r.journal.find("query"), std::string::npos) << r.journal;
  EXPECT_EQ(r.journal.find("not json"), std::string::npos) << r.journal;
  EXPECT_EQ(r.journal.find("build"), std::string::npos) << r.journal;
  EXPECT_NE(r.journal.find("x 1 reject"), std::string::npos) << r.journal;
  EXPECT_NE(r.journal.find("x 3 reject"), std::string::npos) << r.journal;
  EXPECT_NE(r.journal.find("x 4 reject"), std::string::npos) << r.journal;
}

TEST(Service, EveryLineGetsAResponseInOrder) {
  RunResult r = run_service(
      "{\"op\":\"hello\",\"id\":\"a\"}\n"
      "garbage\n"
      "{\"op\":\"hello\",\"id\":\"b\"}\n");
  std::istringstream in(r.responses);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  // seq is the 1-based input line number, even for the malformed line.
  EXPECT_NE(lines[0].find("\"seq\":1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"id\":\"a\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"seq\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[2].find("\"seq\":3"), std::string::npos);
  EXPECT_NE(lines[2].find("\"id\":\"b\""), std::string::npos);
}

TEST(Service, DeadlinedQueryIsTruncatedAndCertified) {
  RunResult r = run_service(full_script());
  // Response 6 (0-based 5) is the deadline_ms:0.01 query.
  obs::JsonValue v = response_at(r.responses, 5);
  ASSERT_TRUE(response_ok(v));
  const obs::JsonValue* truncated = v.find("truncated");
  const obs::JsonValue* certified = v.find("certified");
  const obs::JsonValue* budget = v.find("budget");
  ASSERT_NE(truncated, nullptr);
  ASSERT_NE(certified, nullptr);
  ASSERT_NE(budget, nullptr);
  EXPECT_TRUE(truncated->as_bool());  // 40 augmentations cannot converge
  EXPECT_TRUE(certified->as_bool());  // but the bracket still certifies
  EXPECT_EQ(budget->as_int(), 40);    // 0.01 ms * 4000 augs/ms

  // The undeadlined query (0-based 4) must not be truncated.
  obs::JsonValue free_q = response_at(r.responses, 4);
  ASSERT_TRUE(response_ok(free_q));
  EXPECT_FALSE(free_q.find("truncated")->as_bool());
  EXPECT_EQ(free_q.find("budget")->as_int(), 0);
}

TEST(Service, QueryBeforeBuildIsRejected) {
  RunResult r = run_service("{\"op\":\"query\"}\n{\"op\":\"what_if\",\"target\":\"clos\"}\n");
  EXPECT_EQ(error_code(response_at(r.responses, 0)), "svc.session.not_built");
  EXPECT_EQ(error_code(response_at(r.responses, 1)), "svc.session.not_built");
}

TEST(Service, ConvertWhileInFlightIsRejected) {
  RunResult r = run_service(
      "{\"op\":\"build\",\"k\":4}\n"
      "{\"op\":\"convert\",\"target\":\"global\",\"advance\":1}\n"
      "{\"op\":\"convert\",\"target\":\"local\"}\n"   // still in flight
      "{\"op\":\"convert\",\"advance\":1000000}\n"     // drain
      "{\"op\":\"convert\",\"target\":\"local\"}\n");  // now legal
  obs::JsonValue begin = response_at(r.responses, 1);
  ASSERT_TRUE(response_ok(begin));
  EXPECT_TRUE(begin.find("in_flight")->as_bool());
  EXPECT_EQ(error_code(response_at(r.responses, 2)), "svc.convert.in_flight");
  EXPECT_TRUE(response_ok(response_at(r.responses, 3)));
  EXPECT_TRUE(response_ok(response_at(r.responses, 4)));
}

TEST(Service, WhatIfIsLegalMidConversion) {
  RunResult r = run_service(
      "{\"op\":\"build\",\"k\":4}\n"
      "{\"op\":\"convert\",\"target\":\"global\",\"advance\":1}\n"
      "{\"op\":\"what_if\",\"target\":\"local\"}\n");
  obs::JsonValue v = response_at(r.responses, 2);
  EXPECT_TRUE(response_ok(v)) << error_code(v);
  EXPECT_NE(v.find("steps"), nullptr);
}

TEST(Service, FaultBatchIsAtomic) {
  // The second event regresses time, so the whole batch must be rejected
  // and the first event must NOT have been applied: the follow-up query
  // sees zero down switches.
  RunResult r = run_service(
      "{\"op\":\"build\",\"k\":4}\n"
      "{\"op\":\"fault\",\"events\":[{\"t\":5,\"kind\":\"switch_down\",\"a\":0},"
      "{\"t\":4,\"kind\":\"switch_up\",\"a\":0}]}\n"
      "{\"op\":\"query\",\"lambda\":false}\n");
  EXPECT_EQ(error_code(response_at(r.responses, 1)), "svc.fault.time_regression");
  obs::JsonValue q = response_at(r.responses, 2);
  ASSERT_TRUE(response_ok(q));
  EXPECT_EQ(q.find("down_switches")->as_int(), 0);
}

TEST(Service, MalformedFaultEventRejectsBatch) {
  RunResult r = run_service(
      "{\"op\":\"build\",\"k\":4}\n"
      "{\"op\":\"fault\",\"events\":[{\"t\":1,\"kind\":\"switch_down\",\"a\":0},"
      "{\"t\":2,\"kind\":\"no_such_kind\",\"a\":1}]}\n"
      "{\"op\":\"query\",\"lambda\":false}\n");
  EXPECT_EQ(error_code(response_at(r.responses, 1)), "svc.fault.bad_event");
  obs::JsonValue q = response_at(r.responses, 2);
  ASSERT_TRUE(response_ok(q));
  EXPECT_EQ(q.find("down_switches")->as_int(), 0);
}

TEST(Service, BadAdvanceRejectsFaultBatchBeforeApply) {
  // 'advance' validates with the rest of the request, before any event is
  // applied: a batch of valid events with a malformed advance is rejected
  // without touching the session and without a journal line.
  RunResult r = run_service(
      "{\"op\":\"build\",\"k\":4}\n"
      "{\"op\":\"fault\",\"events\":[{\"t\":1,\"kind\":\"switch_down\",\"a\":0}],"
      "\"advance\":-1}\n"
      "{\"op\":\"query\",\"lambda\":false}\n");
  EXPECT_EQ(error_code(response_at(r.responses, 1)), "svc.request.bad_field");
  obs::JsonValue q = response_at(r.responses, 2);
  ASSERT_TRUE(response_ok(q));
  EXPECT_EQ(q.find("down_switches")->as_int(), 0);
  EXPECT_EQ(r.journal.find("\"op\":\"fault\""), std::string::npos);
}

TEST(Service, NestedIntegersAreBoundedByThePlant) {
  // k = 4: 20 switches, 16 converters, 16 servers. Nested ids above the
  // plant, negative ones and ones past 2^32 are refused under the op's
  // code instead of being wrapped to 32 bits; the session is untouched.
  RunResult r = run_service(
      "{\"op\":\"build\",\"k\":4}\n"
      "{\"op\":\"fault\",\"events\":[{\"t\":0.5,\"kind\":\"switch_down\",\"a\":4294967297}]}\n"
      "{\"op\":\"fault\",\"events\":[{\"t\":0.5,\"kind\":\"switch_down\",\"a\":20}]}\n"
      "{\"op\":\"fault\",\"events\":[{\"t\":0.5,\"kind\":\"switch_down\",\"a\":-1}]}\n"
      "{\"op\":\"fault\",\"events\":[{\"t\":0.5,\"kind\":\"link_down\",\"a\":0,"
      "\"b\":9223372036854775807}]}\n"
      "{\"op\":\"fault\",\"events\":[{\"t\":0.5,\"kind\":\"converter_stuck\",\"a\":16}]}\n"
      "{\"op\":\"query\",\"lambda\":false}\n"
      "{\"op\":\"fault\",\"events\":[{\"t\":0.5,\"kind\":\"switch_down\",\"a\":1}]}\n"
      "{\"op\":\"design\",\"iters\":0,\"mix\":[{\"kind\":\"broadcast\","
      "\"cluster\":4294967299,\"count\":1}]}\n"
      "{\"op\":\"design\",\"iters\":0,\"mix\":[{\"kind\":\"broadcast\",\"cluster\":17}]}\n"
      "{\"op\":\"design\",\"iters\":0,\"mix\":[{\"kind\":\"broadcast\",\"count\":65537}]}\n"
      "{\"op\":\"design\",\"iters\":0,\"mix\":[{\"kind\":\"broadcast\","
      "\"count\":4294967297}]}\n"
      "{\"op\":\"design\",\"iters\":0,\"mix\":[{\"kind\":\"broadcast\",\"cluster\":16,"
      "\"count\":65536}]}\n");
  for (std::size_t i = 1; i <= 5; ++i)
    EXPECT_EQ(error_code(response_at(r.responses, i)), "svc.fault.bad_event") << i;
  obs::JsonValue q = response_at(r.responses, 6);
  ASSERT_TRUE(response_ok(q));
  EXPECT_EQ(q.find("down_switches")->as_int(), 0);
  obs::JsonValue f = response_at(r.responses, 7);
  ASSERT_TRUE(response_ok(f));
  EXPECT_EQ(f.find("changed")->as_int(), 1);  // switch 1 was still up
  for (std::size_t i = 8; i <= 11; ++i)
    EXPECT_EQ(error_code(response_at(r.responses, i)), "svc.design.bad_mix") << i;
  EXPECT_TRUE(response_ok(response_at(r.responses, 12)));  // both bounds inclusive
}

TEST(Service, TrafficDefaultClusterClampsToPlant) {
  // k=4 fat tree has 16 servers, fewer than the default cluster size of
  // 40; the default clamps to the plant so the workload is non-empty.
  RunResult r = run_service(
      "{\"op\":\"build\",\"k\":4}\n"
      "{\"op\":\"traffic\",\"seed\":1}\n");
  obs::JsonValue v = response_at(r.responses, 1);
  ASSERT_TRUE(response_ok(v)) << error_code(v);
  EXPECT_GT(v.find("demands")->as_int(), 0);
}

TEST(Service, TrafficClusterBelowTwoIsABadField) {
  // No pattern has a cluster of fewer than two servers; a broadcast or
  // incast of one used to throw inside the workload generator and answer
  // svc.internal.
  std::string script = "{\"op\":\"build\",\"k\":4}\n";
  for (const char* pattern : {"broadcast", "incast", "all_to_all"})
    for (int cluster : {0, 1})
      script += std::string("{\"op\":\"traffic\",\"cluster\":") +
                std::to_string(cluster) + ",\"pattern\":\"" + pattern +
                "\",\"placement\":\"none\",\"seed\":1}\n";
  script += "{\"op\":\"traffic\",\"cluster\":2,\"pattern\":\"incast\"}\n";
  RunResult r = run_service(script);
  for (std::size_t i = 1; i <= 6; ++i)
    EXPECT_EQ(error_code(response_at(r.responses, i)), "svc.request.bad_field") << i;
  EXPECT_TRUE(response_ok(response_at(r.responses, 7)));
}

TEST(Service, ExpandWithFaultsOutstandingIsRejected) {
  // Generic expandable plant (fat-trees have no core headroom).
  std::string build =
      "{\"op\":\"build\",\"pods\":6,\"d\":4,\"r\":2,\"h\":4,"
      "\"servers_per_edge\":4,\"edge_ports\":6,\"agg_ports\":8,"
      "\"core_ports\":10,\"m\":1,\"n\":1}\n";
  RunResult r = run_service(
      build +
      "{\"op\":\"fault\",\"events\":[{\"t\":1,\"kind\":\"switch_down\",\"a\":0}]}\n"
      "{\"op\":\"expand\",\"pods\":1,\"apply\":true}\n"
      "{\"op\":\"expand\",\"pods\":1}\n"  // plan-only is fine under faults
      "{\"op\":\"fault\",\"events\":[{\"t\":2,\"kind\":\"switch_up\",\"a\":0}]}\n"
      "{\"op\":\"expand\",\"pods\":1,\"apply\":true}\n");
  ASSERT_TRUE(response_ok(response_at(r.responses, 0)))
      << error_code(response_at(r.responses, 0));
  EXPECT_EQ(error_code(response_at(r.responses, 2)), "svc.expand.faults_outstanding");
  obs::JsonValue plan_only = response_at(r.responses, 3);
  ASSERT_TRUE(response_ok(plan_only));
  EXPECT_FALSE(plan_only.find("applied")->as_bool());
  obs::JsonValue applied = response_at(r.responses, 5);
  ASSERT_TRUE(response_ok(applied)) << error_code(applied);
  EXPECT_TRUE(applied.find("applied")->as_bool());
  EXPECT_EQ(applied.find("pods_after")->as_int(), 7);
}

TEST(Service, ExpandOnFatTreeIsInfeasible) {
  RunResult r = run_service(
      "{\"op\":\"build\",\"k\":4}\n"
      "{\"op\":\"expand\",\"pods\":1}\n");
  EXPECT_EQ(error_code(response_at(r.responses, 1)), "svc.expand.infeasible");
}

TEST(Service, SessionsAreIsolatedShards) {
  RunResult r = run_service(
      "{\"op\":\"build\",\"k\":4,\"session\":2}\n"
      "{\"op\":\"query\",\"session\":2,\"lambda\":false}\n"
      "{\"op\":\"query\",\"session\":3,\"lambda\":false}\n");
  EXPECT_TRUE(response_ok(response_at(r.responses, 1)));
  EXPECT_EQ(error_code(response_at(r.responses, 2)), "svc.session.not_built");
}

TEST(Service, BatchAccountingIsDeterministic) {
  // 5 consecutive read-only requests with max_batch 2 -> batches of
  // 2, 2, 1; boundaries depend only on the input and the cap.
  ServiceOptions opt;
  opt.max_batch = 2;
  const std::string script =
      "{\"op\":\"hello\"}\n{\"op\":\"hello\"}\n{\"op\":\"hello\"}\n"
      "{\"op\":\"hello\"}\n{\"op\":\"hello\"}\n";
  exec::set_global_threads(1);
  RunResult seq = run_service(script, opt);
  exec::set_global_threads(8);
  RunResult par = run_service(script, opt);
  exec::set_global_threads(0);

  EXPECT_EQ(seq.stats.batches, 3u);
  EXPECT_EQ(seq.stats.max_batch, 2u);
  EXPECT_EQ(par.stats.batches, seq.stats.batches);
  EXPECT_EQ(par.stats.max_batch, seq.stats.max_batch);
  EXPECT_EQ(par.responses, seq.responses);

  // A mutating op forces a boundary mid-stream.
  RunResult split = run_service(
      "{\"op\":\"hello\"}\n{\"op\":\"stats\"}\n{\"op\":\"hello\"}\n", opt);
  EXPECT_EQ(split.stats.batches, 2u);
  EXPECT_EQ(split.stats.max_batch, 1u);
}

TEST(Service, StatsOpReportsDeterministicCounters) {
  RunResult r = run_service(full_script());
  obs::JsonValue stats = response_at(r.responses, 11);
  ASSERT_TRUE(response_ok(stats));
  EXPECT_EQ(stats.find("lines")->as_int(), 12);
  EXPECT_EQ(stats.find("accepted")->as_int(), 11);  // excludes the stats op itself
  EXPECT_EQ(stats.find("rejected")->as_int(), 0);
  EXPECT_EQ(stats.find("fault_events")->as_int(), 2);
  EXPECT_GE(stats.find("solves")->as_int(), 3);
  EXPECT_GE(stats.find("truncated_solves")->as_int(), 1);
  // No wall-clock fields: the stats payload must be byte-stable.
  EXPECT_EQ(stats.find("wall_ms"), nullptr);
  EXPECT_EQ(stats.find("elapsed"), nullptr);
}

TEST(Service, SelfcheckPassesOnACleanSession) {
  ServiceOptions opt;
  opt.selfcheck = true;
  RunResult r = run_service(full_script(), opt);
  EXPECT_EQ(r.violations, 0u);
}

}  // namespace
}  // namespace flattree::svc
