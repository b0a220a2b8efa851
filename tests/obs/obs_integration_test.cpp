// End-to-end observability: run a small multi-subsystem workload with
// metrics on and assert (a) the snapshot covers >= 4 instrumented
// subsystems, (b) counter totals are identical at different thread counts,
// and (c) instrumentation does not change computed results.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/recovery.hpp"
#include "exec/parallel_for.hpp"
#include "mcf/garg_koenemann.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/ksp_routing.hpp"
#include "sim/packet_sim.hpp"
#include "topo/apl.hpp"
#include "topo/fat_tree.hpp"
#include "workload/traffic.hpp"

namespace flattree {
namespace {

constexpr std::uint32_t kK = 4;

struct WorkloadResult {
  double apl = 0.0;
  double lambda = 0.0;
  double last_finish = 0.0;
  obs::MetricsSnapshot snap;
};

/// Touches core (flat-tree build + conversion + recovery), topo + graph +
/// exec (APL), mcf (GK solve), routing + sim (KSP-routed packet run).
WorkloadResult run_workload(unsigned threads) {
  exec::set_global_threads(threads);
  obs::reset_metrics();
  WorkloadResult out;

  core::FlatTreeConfig cfg;
  cfg.k = kK;
  core::Controller controller(cfg);
  controller.apply(core::Mode::GlobalRandom);
  topo::Topology t = controller.topology();
  out.apl = topo::server_apl(t).average;

  core::FailureSet failures;
  failures.failed_switches.push_back(0);
  core::apply_failures(t, failures);

  workload::Cluster cluster{{0, 1, 2, 3, 4, 5}};
  auto demands = workload::all_to_all_traffic(cluster);
  auto commodities = mcf::aggregate_to_switches(t, demands);
  mcf::McfOptions opt;
  opt.epsilon = 0.2;
  out.lambda = mcf::max_concurrent_flow(t.graph(), commodities, opt).lambda_lower;

  routing::KspRouting routing(t.graph(), 4);
  std::vector<sim::PacketFlow> flows;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const auto dst = static_cast<topo::ServerId>((i + 5) % 16);
    flows.push_back({i, dst, 4, 0.1 * i, &routing.paths(t.host(i), t.host(dst))});
  }
  te::WeightedFib table = te::WeightedFib::equal_cost(t.switch_count());  // unread
  sim::PacketSimConfig pcfg;
  pcfg.queue_packets = 0;
  out.last_finish = sim::PacketSimulator(t, table, pcfg).run(flows).finish_time;

  out.snap = obs::snapshot_metrics();
  exec::set_global_threads(0);
  return out;
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return 0;
}

TEST(ObsIntegration, WorkloadCoversAtLeastFourSubsystems) {
  bool before = obs::enabled();
  obs::set_enabled(true);
  WorkloadResult r = run_workload(2);
  obs::reset_metrics();
  obs::set_enabled(before);

  auto subs = r.snap.subsystems();
  for (const char* want : {"core", "graph", "mcf", "sim", "topo"})
    EXPECT_NE(std::find(subs.begin(), subs.end(), want), subs.end())
        << "missing subsystem " << want;
  EXPECT_GE(subs.size(), 4u);

  EXPECT_GE(counter_value(r.snap, "core.flat_tree.builds"), 1u);
  EXPECT_GE(counter_value(r.snap, "core.controller.applies"), 1u);
  EXPECT_GE(counter_value(r.snap, "core.recovery.failure_sets_applied"), 1u);
  EXPECT_GE(counter_value(r.snap, "graph.apl.sources_visited"), 1u);
  EXPECT_GE(counter_value(r.snap, "mcf.gk.solves"), 1u);
  EXPECT_GE(counter_value(r.snap, "mcf.gk.phases"), 1u);
  EXPECT_GE(counter_value(r.snap, "routing.ksp.cache_misses"), 1u);
  EXPECT_EQ(counter_value(r.snap, "sim.packet.delivered"), 32u);
}

TEST(ObsIntegration, CountersIdenticalAcrossThreadCounts) {
  bool before = obs::enabled();
  obs::set_enabled(true);
  WorkloadResult r1 = run_workload(1);
  WorkloadResult r4 = run_workload(4);
  obs::reset_metrics();
  obs::set_enabled(before);

  EXPECT_EQ(r1.apl, r4.apl);
  EXPECT_EQ(r1.lambda, r4.lambda);
  EXPECT_EQ(r1.last_finish, r4.last_finish);
  ASSERT_EQ(r1.snap.counters.size(), r4.snap.counters.size());
  for (std::size_t i = 0; i < r1.snap.counters.size(); ++i) {
    EXPECT_EQ(r1.snap.counters[i].first, r4.snap.counters[i].first);
    // exec.pool.busy_ns and worker-busy histograms are wall-clock
    // measurements; everything else must match exactly.
    const std::string& name = r1.snap.counters[i].first;
    if (name.find("busy") != std::string::npos) continue;
    EXPECT_EQ(r1.snap.counters[i].second, r4.snap.counters[i].second) << name;
  }
}

TEST(ObsIntegration, InstrumentationDoesNotChangeResults) {
  bool before = obs::enabled();
  obs::set_enabled(false);
  WorkloadResult off = run_workload(2);
  obs::set_enabled(true);
  WorkloadResult on = run_workload(2);
  obs::reset_metrics();
  obs::set_enabled(before);

  EXPECT_EQ(off.apl, on.apl);
  EXPECT_EQ(off.lambda, on.lambda);
  EXPECT_EQ(off.last_finish, on.last_finish);
  // And the disabled run recorded nothing.
  EXPECT_EQ(counter_value(off.snap, "mcf.gk.solves"), 0u);
  EXPECT_GE(counter_value(on.snap, "mcf.gk.solves"), 1u);
}

}  // namespace
}  // namespace flattree
