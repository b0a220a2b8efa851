#include "sim/flow_gen.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace flattree::sim {
namespace {

TEST(FlowSizeDist, SamplesWithinBounds) {
  FlowSizeDist dist;
  util::Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    double s = dist.sample(rng);
    EXPECT_GE(s, dist.short_lo);
    EXPECT_LE(s, dist.long_hi * (1 + 1e-9));
  }
}

TEST(FlowSizeDist, EmpiricalMeanMatchesAnalytic) {
  FlowSizeDist dist;
  util::Rng rng(2);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += dist.sample(rng);
  EXPECT_NEAR(sum / n, dist.mean(), dist.mean() * 0.05);
}

TEST(FlowSizeDist, MostFlowsAreShort) {
  FlowSizeDist dist;
  util::Rng rng(3);
  int shorts = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    if (dist.sample(rng) <= dist.short_hi) ++shorts;
  EXPECT_NEAR(static_cast<double>(shorts) / n, dist.p_short, 0.02);
}

TEST(PoissonFlows, CountAndOrdering) {
  FlowSizeDist dist;
  util::Rng rng(4);
  auto flows = poisson_flows(500, 10.0, 64, dist, rng);
  ASSERT_EQ(flows.size(), 500u);
  for (std::size_t i = 1; i < flows.size(); ++i)
    EXPECT_GE(flows[i].arrival, flows[i - 1].arrival);
  for (const auto& f : flows) {
    EXPECT_NE(f.src, f.dst);
    EXPECT_LT(f.src, 64u);
    EXPECT_LT(f.dst, 64u);
    EXPECT_GT(f.size, 0.0);
  }
}

TEST(PoissonFlows, InterArrivalMeanMatchesRate) {
  FlowSizeDist dist;
  util::Rng rng(5);
  auto flows = poisson_flows(20000, 5.0, 16, dist, rng);
  double span = flows.back().arrival;
  EXPECT_NEAR(span / 20000.0, 0.2, 0.02);
}

TEST(PoissonFlows, ErrorCases) {
  FlowSizeDist dist;
  util::Rng rng(6);
  EXPECT_THROW(poisson_flows(10, 1.0, 1, dist, rng), std::invalid_argument);
  EXPECT_THROW(poisson_flows(10, 0.0, 8, dist, rng), std::invalid_argument);
  // A NaN rate fails no `<= 0` test and would yield NaN arrivals; an
  // infinite one would put every flow at t = 0.
  for (double rate : {std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity(),
                      -std::numeric_limits<double>::infinity()})
    EXPECT_THROW(poisson_flows(10, rate, 8, dist, rng), std::invalid_argument) << rate;
}

}  // namespace
}  // namespace flattree::sim
