#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace flattree::util {
namespace {

TEST(Distribution, RejectsEmpty) {
  EXPECT_THROW(Distribution({}), std::invalid_argument);
}

TEST(Distribution, QuantilesOfKnownSamples) {
  Distribution d({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(d.quantile(0.0), 1.0);
  EXPECT_EQ(d.quantile(1.0), 5.0);
  EXPECT_EQ(d.median(), 3.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.1), 1.4);  // interpolated
}

TEST(Distribution, UnsortedInputHandled) {
  Distribution d({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_EQ(d.median(), 3.0);
  EXPECT_DOUBLE_EQ(d.mean(), 3.0);
}

TEST(Distribution, SingleSample) {
  Distribution d({7.0});
  EXPECT_EQ(d.quantile(0.0), 7.0);
  EXPECT_EQ(d.quantile(0.5), 7.0);
  EXPECT_EQ(d.quantile(1.0), 7.0);
}

// Percentiles are quantiles scaled by 100: p maps to quantile(p / 100).
TEST(Percentile, MatchesDistribution) {
  Distribution d({10, 20, 30, 40});
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 25.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 10.0);
}

TEST(Percentile, RejectsEmpty) {
  EXPECT_THROW(Distribution(std::vector<double>{}), std::invalid_argument);
}

TEST(Percentile, SingleSampleAnyP) {
  Distribution d({42.0});
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) EXPECT_EQ(d.quantile(p / 100.0), 42.0);
}

TEST(Percentile, OutOfRangeClampsToExtremes) {
  Distribution d({1.0, 2.0, 3.0});
  EXPECT_EQ(d.quantile(-0.1), 1.0);
  EXPECT_EQ(d.quantile(1.5), 3.0);
}

TEST(Distribution, DuplicateHeavySamples) {
  // 90 copies of 1.0, then 9 of 2.0, one of 100.0: the bulk quantiles
  // sit on the plateau, only the extreme tail sees the outlier.
  std::vector<double> xs(90, 1.0);
  xs.insert(xs.end(), 9, 2.0);
  xs.push_back(100.0);
  Distribution d(xs);
  EXPECT_EQ(d.quantile(0.0), 1.0);
  EXPECT_EQ(d.median(), 1.0);
  EXPECT_EQ(d.quantile(0.89), 1.0);
  EXPECT_EQ(d.quantile(0.95), 2.0);
  EXPECT_EQ(d.quantile(1.0), 100.0);
  // p99 interpolates on the edge of the outlier: between 2 and 100.
  double p99 = d.quantile(0.99);
  EXPECT_GE(p99, 2.0);
  EXPECT_LE(p99, 100.0);
}

TEST(Distribution, AllIdenticalSamples) {
  Distribution d(std::vector<double>(1000, 3.25));
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) EXPECT_EQ(d.quantile(q), 3.25);
  EXPECT_DOUBLE_EQ(d.mean(), 3.25);
}

}  // namespace
}  // namespace flattree::util
