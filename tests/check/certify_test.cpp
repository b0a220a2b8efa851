#include "check/certify.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "check/report.hpp"

namespace flattree::check {
namespace {

bool has_code(const Report& r, const std::string& code) {
  return std::any_of(r.violations.begin(), r.violations.end(),
                     [&](const Violation& v) { return v.code == code; });
}

/// Diamond 0-1-3 / 0-2-3 plus a chord; two commodities.
struct Instance {
  graph::Graph g;
  std::vector<mcf::Commodity> cs;
  mcf::McfResult r;

  explicit Instance(double epsilon = 0.05) {
    g.add_nodes(4);
    g.add_link(0, 1, 1.0);
    g.add_link(1, 3, 1.0);
    g.add_link(0, 2, 1.0);
    g.add_link(2, 3, 0.5);
    g.add_link(1, 2, 2.0);
    cs = {{0, 3, 1.0}, {1, 2, 0.5}};
    mcf::McfOptions opt;
    opt.epsilon = epsilon;
    r = mcf::max_concurrent_flow(g, cs, opt);
  }
};

TEST(Certify, GenuineResultPasses) {
  Instance in;
  CertifyOptions opts;
  opts.epsilon = 0.05;
  Report report = certify(in.g, in.cs, in.r, opts);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.checks_run, 5u);
}

TEST(Certify, SizeMismatchesShortCircuit) {
  Instance in;
  mcf::McfResult bad = in.r;
  bad.arc_flow.pop_back();
  Report r1 = certify(in.g, in.cs, bad);
  EXPECT_TRUE(has_code(r1, "mcf.arc_flow_size"));
  EXPECT_EQ(r1.violations.size(), 1u);  // nothing else is meaningful

  bad = in.r;
  bad.commodity_routed.push_back(0.0);
  Report r2 = certify(in.g, in.cs, bad);
  EXPECT_TRUE(has_code(r2, "mcf.routed_size"));
}

TEST(Certify, OverCapacityDetected) {
  Instance in;
  mcf::McfResult bad = in.r;
  bad.arc_flow[0] = in.g.link(0).capacity * 1.5;
  Report report = certify(in.g, in.cs, bad);
  EXPECT_TRUE(has_code(report, "mcf.capacity")) << report.to_string();
}

TEST(Certify, ConservationViolationDetected) {
  Instance in;
  mcf::McfResult bad = in.r;
  // Inject flow out of thin air on one arc: divergence breaks at both
  // endpoints (the arc stays within capacity).
  bad.arc_flow[8] += 0.25;
  Report report = certify(in.g, in.cs, bad);
  EXPECT_TRUE(has_code(report, "mcf.conservation")) << report.to_string();
}

TEST(Certify, InflatedRoutedTotalDetected) {
  Instance in;
  mcf::McfResult bad = in.r;
  // Claim a commodity shipped more than its paths carried.
  bad.commodity_routed[0] += 0.5;
  Report report = certify(in.g, in.cs, bad);
  EXPECT_TRUE(has_code(report, "mcf.conservation")) << report.to_string();
}

TEST(Certify, UnachievedLambdaDetected) {
  Instance in;
  mcf::McfResult bad = in.r;
  // Claim a higher certified bound than the flows support. Dropping a
  // commodity's routed total breaks primal support without touching flows.
  bad.commodity_routed[0] *= 0.5;
  Report report = certify(in.g, in.cs, bad);
  EXPECT_TRUE(has_code(report, "mcf.primal_support")) << report.to_string();
}

TEST(Certify, InvertedBracketDetected) {
  Instance in;
  mcf::McfResult bad = in.r;
  bad.lambda_upper = bad.lambda_lower * 0.5;
  Report report = certify(in.g, in.cs, bad);
  EXPECT_TRUE(has_code(report, "mcf.bracket")) << report.to_string();
}

TEST(Certify, FptasGapCheckedOnlyWhenMeaningful) {
  Instance in;
  // A fabricated huge upper bound breaks the (1 - 3 eps) floor.
  mcf::McfResult bad = in.r;
  bad.lambda_upper = bad.lambda_lower * 10.0;
  CertifyOptions opts;
  opts.epsilon = 0.05;
  EXPECT_TRUE(has_code(certify(in.g, in.cs, bad, opts), "mcf.fptas_gap"));
  // No epsilon -> no gap check.
  EXPECT_FALSE(has_code(certify(in.g, in.cs, bad), "mcf.fptas_gap"));
  // Truncated runs carry no gap promise.
  bad.truncated = true;
  EXPECT_FALSE(has_code(certify(in.g, in.cs, bad, opts), "mcf.fptas_gap"));
  // eps >= 1/3 makes the floor vacuous-or-negative; skipped.
  bad.truncated = false;
  opts.epsilon = 0.5;
  EXPECT_FALSE(has_code(certify(in.g, in.cs, bad, opts), "mcf.fptas_gap"));
}

TEST(Certify, TruncatedRunStillCertifiesPrimally) {
  // Two augmentations, the first phase's worth: bounds hold, flows
  // feasible, certificate passes (gap check skipped via result.truncated).
  graph::Graph g;
  g.add_nodes(4);
  g.add_link(0, 1, 1.0);
  g.add_link(1, 2, 2.0);
  g.add_link(2, 3, 0.5);
  g.add_link(0, 3, 1.0);
  // Two sources and two sinks, so the instance reaches GK.
  std::vector<mcf::Commodity> cs{{0, 3, 1.0}, {1, 2, 0.5}};
  mcf::McfOptions opt;
  opt.epsilon = 0.05;
  opt.max_augmentations = 2;
  auto r = mcf::max_concurrent_flow(g, cs, opt);
  ASSERT_TRUE(r.truncated);
  CertifyOptions opts;
  opts.epsilon = 0.05;
  Report report = certify(g, cs, r, opts);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Certify, SkippedUpperBoundBracketsTrivially) {
  graph::Graph g;
  g.add_nodes(2);
  g.add_link(0, 1, 1.0);
  // Two sources and two sinks, so the instance reaches GK.
  const std::vector<mcf::Commodity> cs{{0, 1, 1.0}, {1, 0, 1.0}};
  mcf::McfOptions opt;
  opt.epsilon = 0.1;
  opt.compute_upper_bound = false;
  auto r = mcf::max_concurrent_flow(g, cs, opt);
  ASSERT_TRUE(std::isinf(r.lambda_upper));
  CertifyOptions opts;
  opts.epsilon = 0.1;  // gap check must self-skip on the infinite upper
  Report report = certify(g, cs, r, opts);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// -- the dual bound of GK results -------------------------------------------

TEST(Certify, GkResultPassesTheDualBound) {
  Instance in;
  ASSERT_EQ(in.r.dual_length.size(), in.g.link_count() * 2);
  Report report = certify(in.g, in.cs, in.r);
  EXPECT_TRUE(report.ok()) << report.to_string();
  // Without lengths or a finite upper bound there is nothing to check.
  mcf::McfResult skipped = in.r;
  skipped.dual_length.clear();
  skipped.lambda_upper = std::numeric_limits<double>::infinity();
  EXPECT_EQ(certify(in.g, in.cs, skipped).checks_run + 1, report.checks_run);
}

TEST(Certify, LoweredUpperBoundDetected) {
  // lambda_upper is D(l) / alpha(l) of its own lengths; a value just
  // below it still brackets lambda_lower but no longer follows from l.
  Instance in;
  mcf::McfResult bad = in.r;
  bad.lambda_upper *= 1.0 - 1e-4;
  Report report = certify(in.g, in.cs, bad);
  EXPECT_TRUE(has_code(report, "mcf.dual_bound")) << report.to_string();
  bad.lambda_upper = in.r.lambda_lower;
  EXPECT_TRUE(has_code(certify(in.g, in.cs, bad), "mcf.dual_bound"));
}

TEST(Certify, MalformedDualLengthsDetected) {
  Instance in;
  mcf::McfResult bad = in.r;
  bad.dual_length.pop_back();  // wrong size
  EXPECT_TRUE(has_code(certify(in.g, in.cs, bad), "mcf.dual_bound"));
  bad.dual_length.clear();  // a finite upper bound with no lengths behind it
  EXPECT_TRUE(has_code(certify(in.g, in.cs, bad), "mcf.dual_bound"));
  bad = in.r;
  bad.dual_length[3] = -bad.dual_length[3];  // negative length
  EXPECT_TRUE(has_code(certify(in.g, in.cs, bad), "mcf.dual_bound"));
  bad = in.r;
  bad.dual_length[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(has_code(certify(in.g, in.cs, bad), "mcf.dual_bound"));
  bad = in.r;
  bad.dual_length.assign(bad.dual_length.size(), 0.0);  // alpha(l) = 0
  EXPECT_TRUE(has_code(certify(in.g, in.cs, bad), "mcf.dual_bound"));
}

// -- the cut bound of exact (one-source / one-sink) results ----------------

/// One source behind a bottleneck: 0 -10- 1, then 1 reaches 2 and 3 over
/// unit links; the exact answer's cut is {0, 1}.
struct CutInstance {
  graph::Graph g;
  std::vector<mcf::Commodity> cs{{0, 2, 1.0}, {0, 3, 1.0}};
  mcf::McfResult r;

  CutInstance() {
    g.add_nodes(4);
    g.add_link(0, 1, 10.0);
    g.add_link(1, 2, 1.0);
    g.add_link(1, 3, 1.0);
    r = mcf::max_concurrent_flow(g, cs);
  }
};

TEST(Certify, ExactResultPassesTheCutBound) {
  CutInstance in;
  ASSERT_EQ(in.r.cut_source_side, (std::vector<std::uint8_t>{1, 1, 0, 0}));
  Report report = certify(in.g, in.cs, in.r);
  EXPECT_TRUE(report.ok()) << report.to_string();
  // A GK result carries no cut and skips the check; it runs the dual-bound
  // check in its place, which the exact result skips.
  Instance gk;
  ASSERT_TRUE(gk.r.cut_source_side.empty());
  ASSERT_TRUE(in.r.dual_length.empty());
  EXPECT_EQ(certify(gk.g, gk.cs, gk.r).checks_run, report.checks_run);
}

TEST(Certify, UpperBelowTheCutRatioDetected) {
  CutInstance in;
  mcf::McfResult bad = in.r;
  bad.lambda_upper *= 0.5;  // below cap 2 / crossing demand 2
  Report report = certify(in.g, in.cs, bad);
  EXPECT_TRUE(has_code(report, "mcf.cut_bound")) << report.to_string();
}

TEST(Certify, EmptyOrFullCutSetDetected) {
  CutInstance in;
  mcf::McfResult bad = in.r;
  bad.cut_source_side.assign(4, 0);
  EXPECT_TRUE(has_code(certify(in.g, in.cs, bad), "mcf.cut_bound"));
  bad.cut_source_side.assign(4, 1);
  EXPECT_TRUE(has_code(certify(in.g, in.cs, bad), "mcf.cut_bound"));
  bad.cut_source_side.assign(3, 1);  // wrong size
  EXPECT_TRUE(has_code(certify(in.g, in.cs, bad), "mcf.cut_bound"));
}

TEST(Certify, CutSetWithoutCrossingDemandDetected) {
  CutInstance in;
  mcf::McfResult bad = in.r;
  bad.cut_source_side = {0, 1, 1, 0};  // no commodity source inside
  EXPECT_TRUE(has_code(certify(in.g, in.cs, bad), "mcf.cut_bound"));
  bad.cut_source_side = {1, 0, 1, 1};  // the source, but every target too
  EXPECT_TRUE(has_code(certify(in.g, in.cs, bad), "mcf.cut_bound"));
}

// -- certify_served: degraded-service certificates (ISSUE 5) ---------------

/// Two components {0,1} / {2,3}; commodity 1 is unreachable.
struct ServedInstance {
  graph::Graph g;
  std::vector<mcf::Commodity> cs;
  mcf::McfResult r;

  ServedInstance() {
    g.add_nodes(4);
    g.add_link(0, 1, 1.0);
    g.add_link(2, 3, 1.0);
    cs = {{0, 1, 1.0}, {0, 3, 3.0}};
    mcf::McfOptions opt;
    opt.epsilon = 0.05;
    opt.allow_unreachable = true;
    r = mcf::max_concurrent_flow(g, cs, opt);
  }
};

TEST(CertifyServed, GenuineDegradedResultPasses) {
  ServedInstance in;
  ASSERT_EQ(in.r.unreachable, (std::vector<std::uint32_t>{1}));
  CertifyOptions opts;
  opts.epsilon = 0.05;
  Report report = certify_served(in.g, in.cs, in.r, opts);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(CertifyServed, EquivalentToCertifyWhenNothingExcluded) {
  Instance in;  // fully-connected diamond
  CertifyOptions opts;
  opts.epsilon = 0.05;
  Report plain = certify(in.g, in.cs, in.r, opts);
  Report served = certify_served(in.g, in.cs, in.r, opts);
  EXPECT_EQ(plain.ok(), served.ok());
  EXPECT_TRUE(served.ok()) << served.to_string();
}

TEST(CertifyServed, FlowOnAnExcludedCommodityDetected) {
  ServedInstance in;
  in.r.commodity_routed[1] = 0.25;  // routed through a declared cut
  Report report = certify_served(in.g, in.cs, in.r, {});
  EXPECT_TRUE(has_code(report, "mcf.unreachable_routed")) << report.to_string();
}

TEST(CertifyServed, WrongServedFractionDetected) {
  ServedInstance in;
  in.r.served_fraction = 1.0;  // claims full service while excluding demand
  Report report = certify_served(in.g, in.cs, in.r, {});
  EXPECT_TRUE(has_code(report, "mcf.served_fraction")) << report.to_string();
}

TEST(CertifyServed, MalformedUnreachableIndicesDetected) {
  ServedInstance in;
  mcf::McfResult out_of_range = in.r;
  out_of_range.unreachable = {7};
  Report r1 = certify_served(in.g, in.cs, out_of_range, {});
  EXPECT_TRUE(has_code(r1, "mcf.unreachable_index")) << r1.to_string();

  mcf::McfResult unsorted = in.r;
  unsorted.unreachable = {1, 1};  // not strictly ascending
  Report r2 = certify_served(in.g, in.cs, unsorted, {});
  EXPECT_TRUE(has_code(r2, "mcf.unreachable_index")) << r2.to_string();
}

}  // namespace
}  // namespace flattree::check
