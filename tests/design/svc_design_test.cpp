// The svc `design` op, in process: response shape, deadline-driven
// iteration budgeting, mix validation errors, read-only batching, and the
// byte-identity matrix (threads, obs, batch layout) — the same contract
// the rest of the flattree-svc.v1 surface carries.

#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "exec/parallel_for.hpp"
#include "obs/metrics.hpp"

namespace flattree::svc {
namespace {

struct RunResult {
  std::string responses;
  std::string journal;
  ServiceStats stats;
};

RunResult run_service(const std::string& script, ServiceOptions opt = {}) {
  std::ostringstream journal;
  opt.journal = &journal;
  Service service(opt);
  std::istringstream in(script);
  std::ostringstream out;
  service.run(in, out);
  return {out.str(), journal.str(), service.stats()};
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

TEST(SvcDesign, RespondsWithALayoutAndCertifiedObjective) {
  RunResult r = run_service(
      "{\"op\":\"build\",\"k\":4}\n"
      "{\"op\":\"design\",\"iters\":8}\n");
  obs::JsonValue v = response_at(r.responses, 1);
  ASSERT_TRUE(response_ok(v));
  const obs::JsonValue* p = &v;  // payload fields inline in the envelope
  EXPECT_EQ(p->find("pods")->as_int(), 4);
  EXPECT_EQ(p->find("iters")->as_int(), 8);
  EXPECT_EQ(p->find("budget")->as_int(), 0);  // no deadline: unlimited
  EXPECT_GT(p->find("objective")->as_number(), 0.0);
  EXPECT_TRUE(p->find("certified")->as_bool());
  ASSERT_NE(p->find("layout"), nullptr);
  EXPECT_EQ(p->find("layout")->array().size(), 4u);  // one token per pod
  ASSERT_NE(p->find("moves"), nullptr);
  EXPECT_EQ(p->find("moves")->array().size(),
            static_cast<std::size_t>(p->find("accepted")->as_int()));
  // Decided iterations partition into accepted/rejected/skipped.
  EXPECT_EQ(p->find("accepted")->as_int() + p->find("rejected")->as_int() +
                p->find("skipped")->as_int(),
            8);
}

TEST(SvcDesign, DeadlineCapsTheIterationCount) {
  // SloPolicy defaults: 0.25 iterations/ms, floor 4 — a 10 ms deadline
  // budgets 4 iterations and caps the requested 64.
  RunResult r = run_service(
      "{\"op\":\"build\",\"k\":4}\n"
      "{\"op\":\"design\",\"iters\":64,\"deadline_ms\":10}\n");
  obs::JsonValue v = response_at(r.responses, 1);
  ASSERT_TRUE(response_ok(v));
  const obs::JsonValue* p = &v;
  EXPECT_EQ(p->find("budget")->as_int(), 4);
  EXPECT_EQ(p->find("iters")->as_int(), 4);
}

TEST(SvcDesign, RequiresABuiltSessionAndAValidMix) {
  RunResult r = run_service(
      "{\"op\":\"design\"}\n"
      "{\"op\":\"build\",\"k\":4}\n"
      "{\"op\":\"design\",\"mix\":[]}\n"
      "{\"op\":\"design\",\"mix\":[{\"kind\":\"frobnicate\"}]}\n"
      "{\"op\":\"design\",\"mix\":[{\"kind\":\"broadcast\",\"cluster\":1}]}\n"
      "{\"op\":\"design\",\"iters\":4,\"mix\":"
      "[{\"kind\":\"broadcast\",\"affinity\":\"global\",\"cluster\":8,\"count\":1}]}\n");
  EXPECT_EQ(error_code(response_at(r.responses, 0)), "svc.session.not_built");
  EXPECT_EQ(error_code(response_at(r.responses, 2)), "svc.design.bad_mix");
  EXPECT_EQ(error_code(response_at(r.responses, 3)), "svc.design.bad_mix");
  EXPECT_EQ(error_code(response_at(r.responses, 4)), "svc.design.bad_mix");
  EXPECT_TRUE(response_ok(response_at(r.responses, 5)));  // custom mix works
}

/// Drops journal v2 commit frames: commit placement intentionally tracks
/// batch (durability) boundaries, but records must be batch-invariant.
std::string strip_commits(const std::string& journal) {
  std::string out;
  std::size_t pos = 0;
  while (pos < journal.size()) {
    std::size_t nl = journal.find('\n', pos);
    if (nl == std::string::npos) nl = journal.size() - 1;
    std::string line = journal.substr(pos, nl + 1 - pos);
    if (line.rfind("c ", 0) != 0 && line.rfind("u ", 0) != 0) out += line;
    pos = nl + 1;
  }
  return out;
}

TEST(SvcDesign, ByteIdenticalAcrossThreadsObsAndBatchLayout) {
  // Three identical read-only design requests: batched (max_batch 3) and
  // unbatched (max_batch 1) evaluations must produce the same bytes, at
  // any thread count, with observability on or off. Only commit-frame
  // placement may move across batch widths — commits are the batch
  // boundaries.
  const std::string script =
      "{\"op\":\"build\",\"k\":4}\n"
      "{\"op\":\"design\",\"iters\":6,\"id\":\"a\"}\n"
      "{\"op\":\"design\",\"iters\":6,\"id\":\"b\"}\n"
      "{\"op\":\"design\",\"iters\":6,\"seed\":2,\"id\":\"c\"}\n";

  ServiceOptions base;
  base.max_batch = 1;
  exec::set_global_threads(1);
  RunResult reference = run_service(script, base);
  ASSERT_FALSE(reference.responses.empty());

  struct Config {
    unsigned threads;
    bool obs;
    std::size_t max_batch;
  };
  const Config configs[] = {{8, false, 1}, {1, false, 3}, {8, true, 3}};
  for (const Config& c : configs) {
    exec::set_global_threads(c.threads);
    obs::set_enabled(c.obs);
    ServiceOptions opt;
    opt.max_batch = c.max_batch;
    RunResult got = run_service(script, opt);
    EXPECT_EQ(got.responses, reference.responses)
        << "threads=" << c.threads << " obs=" << c.obs
        << " max_batch=" << c.max_batch;
    if (c.max_batch == 1) EXPECT_EQ(got.journal, reference.journal);
    EXPECT_EQ(strip_commits(got.journal), strip_commits(reference.journal));
  }
  obs::set_enabled(false);
  exec::set_global_threads(0);

  // Identical requests answer identically; a different seed diverges.
  obs::JsonValue a = response_at(reference.responses, 1);
  obs::JsonValue b = response_at(reference.responses, 2);
  obs::JsonValue c = response_at(reference.responses, 3);
  EXPECT_EQ(a.find("objective")->as_number(), b.find("objective")->as_number());
  EXPECT_EQ(c.find("iters")->as_int(), 6);
}

TEST(SvcDesign, StatsCountDesignWorkDeterministically) {
  RunResult r = run_service(
      "{\"op\":\"build\",\"k\":4}\n"
      "{\"op\":\"design\",\"iters\":4}\n"
      "{\"op\":\"stats\"}\n");
  obs::JsonValue stats = response_at(r.responses, 2);
  ASSERT_TRUE(response_ok(stats));
  const obs::JsonValue* p = &stats;
  const obs::JsonValue* ops = p->find("ops");
  ASSERT_NE(ops, nullptr);
  ASSERT_NE(ops->find("design"), nullptr);
  EXPECT_EQ(ops->find("design")->as_int(), 1);
  // 3 uniforms + initial walk score + decided moves + cold rescore.
  obs::JsonValue d = response_at(r.responses, 1);
  const std::int64_t decided =
      d.find("accepted")->as_int() + d.find("rejected")->as_int();
  EXPECT_EQ(p->find("solves")->as_int(), 3 + 1 + decided + 1);
  EXPECT_GE(p->find("certified_solves")->as_int(), 4);  // 3 uniforms + winner
}

}  // namespace
}  // namespace flattree::svc
