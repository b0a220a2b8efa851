// Negative controls for check::validate_weighted_fib: every te.wfib.* code
// fires on a deliberately corrupted table and stays quiet on a clean one
// (src/check convention — each violation code earns a test that triggers
// exactly it).

#include "check/te_check.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "check/report.hpp"
#include "routing/ecmp.hpp"
#include "routing/fib.hpp"
#include "te/long_line.hpp"
#include "te/wcmp.hpp"
#include "topo/fat_tree.hpp"

namespace flattree::check {
namespace {

bool has_code(const Report& r, const std::string& code) {
  return std::any_of(r.violations.begin(), r.violations.end(),
                     [&](const Violation& v) { return v.code == code; });
}

/// 0 -- 1 -- 2 line with servers at the ends.
topo::Topology line3() {
  topo::Topology t;
  for (int i = 0; i < 3; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 4);
  t.add_link(0, 1, topo::LinkOrigin::Random);
  t.add_link(1, 2, topo::LinkOrigin::Random);
  t.add_server(0);
  t.add_server(2);
  return t;
}

te::WeightedFib clean_line_fib() {
  te::WeightedFib fib(3);
  fib.add_route(0, 2, 0, 64);
  fib.add_route(1, 2, 1, 64);
  return fib;
}

TEST(TeCheck, CleanTablePasses) {
  topo::Topology t = line3();
  te::WeightedFib fib = clean_line_fib();
  Report r = validate_weighted_fib(t, fib, {{0, 2}});
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_GT(r.checks_run, 0u);
}

TEST(TeCheck, CompiledFatTreePasses) {
  topo::FatTree ft = topo::build_fat_tree(4);
  routing::EcmpRouting ecmp(ft.topo.graph());
  auto pairs = routing::all_server_pairs(ft.topo);
  te::WeightedFib fib = te::compile_wcmp_paths(ft.topo, ecmp, pairs);
  Report r = validate_weighted_fib(ft.topo, fib, pairs);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(TeCheck, FlagsZeroWeightRule) {
  topo::Topology t = line3();
  te::WeightedFib fib = clean_line_fib();
  fib.add_route(1, 2, 0, 0);  // unpruned zero-weight rule
  Report r = validate_weighted_fib(t, fib, {{0, 2}});
  EXPECT_TRUE(has_code(r, "te.wfib.zero_weight")) << r.to_string();
}

TEST(TeCheck, FlagsBadLink) {
  topo::Topology t = line3();
  // Unknown link id.
  te::WeightedFib unknown = clean_line_fib();
  unknown.add_route(0, 2, 99, 64);
  EXPECT_TRUE(has_code(validate_weighted_fib(t, unknown, {{0, 2}}), "te.wfib.bad_link"));
  // Known link, but not incident to the switch holding the rule.
  te::WeightedFib elsewhere = clean_line_fib();
  elsewhere.add_route(0, 2, 1, 64);  // link 1 connects 1--2, not 0
  EXPECT_TRUE(
      has_code(validate_weighted_fib(t, elsewhere, {{0, 2}}), "te.wfib.bad_link"));
}

TEST(TeCheck, FlagsWeightSumViolation) {
  topo::Topology t = line3();
  te::WeightedFib fib(3);
  fib.add_route(0, 2, 0, 63);  // budget is 64
  fib.add_route(1, 2, 1, 64);
  Report r = validate_weighted_fib(t, fib, {{0, 2}});
  EXPECT_TRUE(has_code(r, "te.wfib.weight_sum")) << r.to_string();
}

TEST(TeCheck, FlagsDisconnectedPair) {
  // Two isolated islands: 0--1 and 2 alone.
  topo::Topology t;
  for (int i = 0; i < 3; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 4);
  t.add_link(0, 1, topo::LinkOrigin::Random);
  t.add_server(0);
  t.add_server(2);
  te::WeightedFib fib(3);
  Report r = validate_weighted_fib(t, fib, {{0, 2}});
  EXPECT_TRUE(has_code(r, "te.wfib.disconnected")) << r.to_string();
  // A disconnected pair is reported as such, not misclassified as a
  // blackhole the table could have fixed.
  EXPECT_FALSE(has_code(r, "te.wfib.blackhole"));
}

TEST(TeCheck, FlagsBlackhole) {
  topo::Topology t = line3();
  te::WeightedFib fib(3);
  fib.add_route(0, 2, 0, 64);  // nothing installed at 1
  Report r = validate_weighted_fib(t, fib, {{0, 2}});
  EXPECT_TRUE(has_code(r, "te.wfib.blackhole")) << r.to_string();
}

TEST(TeCheck, FlagsLoop) {
  topo::Topology t = line3();
  te::WeightedFib fib(3);
  fib.add_route(0, 2, 0, 64);
  fib.add_route(1, 2, 0, 64);  // bounces back toward 0
  Report r = validate_weighted_fib(t, fib, {{0, 2}});
  EXPECT_TRUE(has_code(r, "te.wfib.loop")) << r.to_string();
}

TEST(TeCheck, FlagsHopLimit) {
  // A walk of exactly kFibHopLimit hops passes; one hop more is flagged.
  const std::uint32_t n = kFibHopLimit + 2;  // the 0 -> n-1 walk is 33 hops
  Report r = validate_weighted_fib(te::long_line(n), te::long_line_fib(n), {{0, n - 1}});
  EXPECT_TRUE(has_code(r, "te.wfib.hop_limit")) << r.to_string();
  const std::uint32_t at_limit = kFibHopLimit + 1;
  Report ok = validate_weighted_fib(te::long_line(at_limit), te::long_line_fib(at_limit),
                                    {{0, at_limit - 1}});
  EXPECT_TRUE(ok.ok()) << ok.to_string();
}

TEST(TeCheck, FlagsEqualCostWeightNotOne) {
  topo::Topology t = line3();
  te::WeightedFib fib = te::WeightedFib::equal_cost(3);
  fib.add_route(0, 2, 0, 2);  // equal-cost rules carry weight 1
  fib.add_route(1, 2, 1, 1);
  Report r = validate_weighted_fib(t, fib, {{0, 2}});
  EXPECT_TRUE(has_code(r, "te.wfib.weight_sum")) << r.to_string();
  EXPECT_EQ(r.violations.size(), 1u) << r.to_string();
}

TEST(TeCheck, FlagsSidewaysHop) {
  // Diamond 0 -> {1, 2} -> 3 plus a 1--2 crossbar: 1 and 2 are both one
  // hop from 3, so the rule 1 -> 2 keeps every walk loop-free and short
  // but does not make progress.
  topo::Topology t;
  for (int i = 0; i < 4; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 4);
  t.add_link(0, 1, topo::LinkOrigin::Random);  // link 0
  t.add_link(0, 2, topo::LinkOrigin::Random);  // link 1
  t.add_link(1, 3, topo::LinkOrigin::Random);  // link 2
  t.add_link(2, 3, topo::LinkOrigin::Random);  // link 3
  t.add_link(1, 2, topo::LinkOrigin::Random);  // link 4
  t.add_server(0);
  t.add_server(3);
  te::WeightedFib fib = te::WeightedFib::equal_cost(4);
  fib.add_route(0, 3, 0, 1);
  fib.add_route(1, 3, 2, 1);
  fib.add_route(1, 3, 4, 1);  // sideways
  fib.add_route(2, 3, 3, 1);
  Report r = validate_weighted_fib(t, fib, {{0, 3}});
  EXPECT_TRUE(has_code(r, "te.wfib.progress")) << r.to_string();
  EXPECT_EQ(r.violations.size(), 1u) << r.to_string();
}

TEST(TeCheck, FlagsEqualCostBadLinkWithoutReadingIt) {
  // An out-of-range link id must be reported, never dereferenced (the
  // walk skips it; Graph::link() is unchecked).
  topo::Topology t = line3();
  te::WeightedFib fib = te::WeightedFib::equal_cost(3);
  fib.add_route(0, 2, 0, 1);
  fib.add_route(1, 2, 1, 1);
  fib.add_route(1, 2, static_cast<graph::LinkId>(t.link_count() + 7), 1);
  Report r = validate_weighted_fib(t, fib, {{0, 2}});
  EXPECT_TRUE(has_code(r, "te.wfib.bad_link")) << r.to_string();
}

TEST(TeCheck, OneWalkFaultPerDestination) {
  topo::Topology t = line3();
  te::WeightedFib fib(3);  // empty: both sources blackhole toward 2...
  t.add_server(1);             // ...so pairs (0,2) and (1,2) share the fault
  Report r = validate_weighted_fib(t, fib, {{0, 2}, {1, 2}});
  std::size_t blackholes = 0;
  for (const Violation& v : r.violations)
    if (v.code == "te.wfib.blackhole") ++blackholes;
  EXPECT_EQ(blackholes, 1u);
}

}  // namespace
}  // namespace flattree::check
