#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "exec/parallel_for.hpp"

namespace flattree::obs {
namespace {

/// RAII: enables obs for one test, restores the previous state after.
class ObsOn {
 public:
  ObsOn() : before_(enabled()) {
    set_enabled(true);
    reset_metrics();
  }
  ~ObsOn() {
    reset_metrics();
    set_enabled(before_);
  }

 private:
  bool before_;
};

std::uint64_t counter_value(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return 0;
}

const HistogramSnapshot* find_hist(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return &h;
  return nullptr;
}

TEST(Metrics, DisabledRecordingIsDropped) {
  bool before = enabled();
  set_enabled(false);
  reset_metrics();
  Counter c("test.disabled.counter");
  c.add(100);
  Histogram h("test.disabled.hist", {1.0, 2.0});
  h.observe(1.5);
  set_enabled(true);
  auto snap = snapshot_metrics();
  set_enabled(before);
  EXPECT_EQ(counter_value(snap, "test.disabled.counter"), 0u);
  const HistogramSnapshot* hs = find_hist(snap, "test.disabled.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 0u);
}

TEST(Metrics, CounterAccumulates) {
  ObsOn on;
  Counter c("test.metrics.counter");
  c.inc();
  c.add(9);
  auto snap = snapshot_metrics();
  EXPECT_EQ(counter_value(snap, "test.metrics.counter"), 10u);
}

TEST(Metrics, SameNameSharesOneMetric) {
  ObsOn on;
  Counter a("test.metrics.shared");
  Counter b("test.metrics.shared");
  EXPECT_EQ(a.id(), b.id());
  a.inc();
  b.inc();
  EXPECT_EQ(counter_value(snapshot_metrics(), "test.metrics.shared"), 2u);
}

TEST(Metrics, GaugeLastWriteWins) {
  ObsOn on;
  Gauge g("test.metrics.gauge");
  g.set(2.5);
  g.set(1.5);  // last write wins
  auto snap = snapshot_metrics();
  double gv = 0.0;
  for (const auto& [n, v] : snap.gauges)
    if (n == "test.metrics.gauge") gv = v;
  EXPECT_EQ(gv, 1.5);
}

TEST(Metrics, HistogramBucketsAndStats) {
  ObsOn on;
  Histogram h("test.metrics.hist", {1.0, 10.0, 100.0});
  for (double v : {0.5, 0.7, 5.0, 50.0, 500.0, 1000.0}) h.observe(v);
  auto snap = snapshot_metrics();
  const HistogramSnapshot* hs = find_hist(snap, "test.metrics.hist");
  ASSERT_NE(hs, nullptr);
  ASSERT_EQ(hs->buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(hs->buckets[0], 2u);      // <= 1
  EXPECT_EQ(hs->buckets[1], 1u);      // <= 10
  EXPECT_EQ(hs->buckets[2], 1u);      // <= 100
  EXPECT_EQ(hs->buckets[3], 2u);      // overflow
  EXPECT_EQ(hs->count, 6u);
  EXPECT_EQ(hs->min, 0.5);
  EXPECT_EQ(hs->max, 1000.0);
  EXPECT_NEAR(hs->sum, 1556.2, 1e-9);
}

TEST(Metrics, ExponentialAndLinearBounds) {
  auto exp = Histogram::exponential_bounds(1.0, 2.0, 4);
  ASSERT_EQ(exp.size(), 4u);
  EXPECT_EQ(exp[0], 1.0);
  EXPECT_EQ(exp[1], 2.0);
  EXPECT_EQ(exp[2], 4.0);
  EXPECT_EQ(exp[3], 8.0);
  auto lin = Histogram::linear_bounds(0.5, 0.25, 3);
  ASSERT_EQ(lin.size(), 3u);
  EXPECT_EQ(lin[0], 0.5);
  EXPECT_EQ(lin[1], 0.75);
  EXPECT_EQ(lin[2], 1.0);
  ASSERT_TRUE(std::is_sorted(exp.begin(), exp.end()));
  ASSERT_TRUE(std::is_sorted(lin.begin(), lin.end()));
}

TEST(Metrics, ResetZeroesButKeepsRegistrations) {
  ObsOn on;
  Counter c("test.metrics.reset_me");
  c.add(5);
  reset_metrics();
  auto snap = snapshot_metrics();
  EXPECT_EQ(counter_value(snap, "test.metrics.reset_me"), 0u);
  bool registered = false;
  for (const auto& [n, v] : snap.counters) registered = registered || n == "test.metrics.reset_me";
  EXPECT_TRUE(registered);
}

TEST(Metrics, SnapshotIsNameSorted) {
  ObsOn on;
  Counter("test.metrics.zz").inc();
  Counter("test.metrics.aa").inc();
  auto snap = snapshot_metrics();
  ASSERT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST(Metrics, ThreadShardsMergeDeterministically) {
  // The same parallel workload must yield identical counter totals and
  // histogram buckets at every thread count (integer merges commute).
  auto run = [](unsigned threads) {
    exec::set_global_threads(threads);
    reset_metrics();
    Counter c("test.metrics.par_counter");
    Histogram h("test.metrics.par_hist", {10.0, 100.0, 1000.0});
    exec::parallel_for(1000, [&](std::size_t i) {
      c.add(i % 3 + 1);
      h.observe(static_cast<double>(i));
    });
    return snapshot_metrics();
  };
  ObsOn on;
  auto s1 = run(1);
  auto s4 = run(4);
  exec::set_global_threads(0);
  EXPECT_EQ(counter_value(s1, "test.metrics.par_counter"),
            counter_value(s4, "test.metrics.par_counter"));
  EXPECT_EQ(counter_value(s1, "test.metrics.par_counter"), 1999u);  // sum of i%3+1
  const HistogramSnapshot* h1 = find_hist(s1, "test.metrics.par_hist");
  const HistogramSnapshot* h4 = find_hist(s4, "test.metrics.par_hist");
  ASSERT_NE(h1, nullptr);
  ASSERT_NE(h4, nullptr);
  EXPECT_EQ(h1->buckets, h4->buckets);
  EXPECT_EQ(h1->count, h4->count);
  EXPECT_EQ(h1->min, h4->min);
  EXPECT_EQ(h1->max, h4->max);
}

TEST(Metrics, PlainThreadsFlushOnExit) {
  ObsOn on;
  Counter c("test.metrics.raw_thread");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < 100; ++i) c.inc();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter_value(snapshot_metrics(), "test.metrics.raw_thread"), 400u);
}

TEST(Metrics, SubsystemsListsDottedPrefixesWithLiveValues) {
  ObsOn on;
  Counter("alpha.one.count").inc();
  Counter("beta.two.count").add(3);
  Counter("gamma.zero.count");  // registered but zero: not a live subsystem
  auto subs = snapshot_metrics().subsystems();
  EXPECT_NE(std::find(subs.begin(), subs.end(), "alpha"), subs.end());
  EXPECT_NE(std::find(subs.begin(), subs.end(), "beta"), subs.end());
  EXPECT_EQ(std::find(subs.begin(), subs.end(), "gamma"), subs.end());
}

}  // namespace
}  // namespace flattree::obs
