#include "check/differential.hpp"

#include <gtest/gtest.h>

#include "graph/adjacent.hpp"
#include "obs/metrics.hpp"

namespace flattree::check {
namespace {

/// mcf.gk.gap_stops so far (metrics must be on).
std::uint64_t gap_stops() {
  for (const auto& [name, value] : obs::snapshot_metrics().counters)
    if (name == "mcf.gk.gap_stops") return value;
  return 0;
}

TEST(Differential, GkAgreesWithExactLpAcrossSeeds) {
  // On small instances GK must land within (1 + eps) of the exact LP
  // optimum and bracket it, every seed. A one-source or one-sink draw
  // would take the exact max-flow path instead; none of these 20 does, so
  // the sweep really exercises GK. The stop rule must fire on some seeds:
  // a gap-stopped bracket still holds the optimum.
  const bool metrics_before = obs::enabled();
  obs::set_enabled(true);
  obs::reset_metrics();
  std::size_t gk_seeds = 0, gap_stopped = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    DifferentialSpec spec;
    spec.seed = seed;
    const std::uint64_t stops_before = gap_stops();
    DifferentialOutcome out = run_differential(spec);
    gap_stopped += gap_stops() - stops_before;
    EXPECT_TRUE(out.report.ok())
        << "seed " << seed << ":\n" << out.report.to_string();
    EXPECT_GT(out.exact, 0.0) << "seed " << seed;
    EXPECT_GT(out.result.lambda_lower, 0.0) << "seed " << seed;
    EXPECT_LE(out.result.lambda_lower, out.exact * (1.0 + 1e-6)) << "seed " << seed;
    EXPECT_GE(out.result.lambda_upper, out.exact * (1.0 - 1e-6)) << "seed " << seed;
    gk_seeds += out.ran_gk();
  }
  obs::reset_metrics();
  obs::set_enabled(metrics_before);
  EXPECT_EQ(gk_seeds, 20u);
  EXPECT_GE(gap_stopped, 1u);
}

TEST(Differential, SimpleGraphInstances) {
  DifferentialSpec spec;
  spec.seed = 5;
  spec.parallel_links = false;
  DifferentialOutcome out = run_differential(spec);
  EXPECT_TRUE(out.report.ok()) << out.report.to_string();
  // The generator honored the simple-graph request.
  EXPECT_FALSE(graph::has_parallel_links(out.graph));
}

TEST(Differential, TighterEpsilonStillAgrees) {
  DifferentialSpec spec;
  spec.seed = 11;
  spec.epsilon = 0.02;
  spec.nodes = 8;
  spec.extra_links = 6;
  spec.commodities = 4;
  DifferentialOutcome out = run_differential(spec);
  EXPECT_TRUE(out.report.ok()) << out.report.to_string();
  // Bracket actually contains the exact optimum.
  EXPECT_LE(out.result.lambda_lower, out.exact * (1.0 + 1e-6));
  EXPECT_GE(out.result.lambda_upper, out.exact * (1.0 - 1e-6));
}

TEST(Differential, OneCommodityDrawTakesTheExactPath) {
  // The negative control for ran_gk(): one commodity is one source, which
  // max_concurrent_flow solves exactly, and the LP must agree to 1e-6.
  DifferentialSpec spec;
  spec.seed = 3;
  spec.commodities = 1;
  spec.gap_factor = 1.0000001;
  DifferentialOutcome out = run_differential(spec);
  EXPECT_FALSE(out.ran_gk());
  EXPECT_TRUE(out.report.ok()) << out.report.to_string();
}

TEST(Differential, StrictGapFactorCanFail) {
  // A gap factor of 1.0 demands lambda_lower == exact, which an FPTAS with
  // eps = 0.3 generally misses — proving the harness actually compares.
  bool saw_gap_violation = false;
  for (std::uint64_t seed = 1; seed <= 10 && !saw_gap_violation; ++seed) {
    DifferentialSpec spec;
    spec.seed = seed;
    spec.epsilon = 0.3;
    spec.gap_factor = 1.0000001;
    DifferentialOutcome out = run_differential(spec);
    for (const Violation& v : out.report.violations)
      if (v.code == "diff.gap") saw_gap_violation = true;
  }
  EXPECT_TRUE(saw_gap_violation);
}

}  // namespace
}  // namespace flattree::check
