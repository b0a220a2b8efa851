// DCTCP/ECN congestion-control loop of sim::PacketSimulator (ISSUE 7
// tentpole): marking, window dynamics, and the headline property — at a
// fixed incast load DCTCP keeps the mean queue below drop-tail while
// losing fewer packets. Everything here is deterministic discrete-event
// time, so the comparisons are exact assertions, not statistics.

#include <gtest/gtest.h>

#include "routing/ecmp.hpp"
#include "routing/fib.hpp"
#include "sim/packet_sim.hpp"
#include "te/wcmp.hpp"
#include "topo/fat_tree.hpp"
#include "topo/topo_helpers.hpp"
#include "workload/traffic.hpp"

namespace flattree::sim {
namespace {

struct Fixture {
  topo::FatTree ft = topo::build_fat_tree(4);
  routing::EcmpRouting routing{ft.topo.graph()};
  te::WeightedFib fib =
      te::compile_fib(ft.topo, routing, routing::all_server_pairs(ft.topo));

  topo::ServerId server(std::uint32_t pod, std::uint32_t j, std::uint32_t s) const {
    return topo::server_at(ft, pod, j, s);
  }
};

/// Fixed incast: 12 sources send a train to one sink at NIC rate 4x the
/// link capacity — the sink's edge link must congest.
std::vector<PacketFlow> incast_flows(std::uint32_t train) {
  auto demands = workload::incast_pattern(16, 12, /*seed=*/7);
  std::vector<PacketFlow> flows;
  for (const auto& d : demands) flows.push_back({d.src, d.dst, train, 0.0});
  return flows;
}

PacketSimConfig congested(bool ecn) {
  PacketSimConfig cfg;
  cfg.nic_rate = 4.0;
  cfg.queue_packets = 16;
  cfg.ecn = ecn;
  cfg.ecn_threshold = 4;
  return cfg;
}

TEST(Dctcp, HoldsQueueAndLossBelowDropTailAtFixedIncastLoad) {
  Fixture fx;
  auto flows = incast_flows(/*train=*/48);
  PacketSimulator droptail(fx.ft.topo, fx.fib, congested(false));
  PacketSimulator dctcp(fx.ft.topo, fx.fib, congested(true));
  auto base = droptail.run(flows);
  auto ecn = dctcp.run(flows);
  ASSERT_GT(base.dropped, 0u);  // the load must actually congest drop-tail
  EXPECT_LT(ecn.mean_queue, base.mean_queue);
  EXPECT_LT(ecn.dropped, base.dropped);
  EXPECT_LT(ecn.loss_rate(), base.loss_rate());
  // The loop earns the improvement through marking and window cuts.
  EXPECT_GT(ecn.ecn_marked, 0u);
  EXPECT_GT(ecn.window_cuts, 0u);
  EXPECT_EQ(base.ecn_marked, 0u);  // drop-tail never marks
  EXPECT_EQ(base.window_cuts, 0u);
}

TEST(Dctcp, ConservesPacketsAndIsDeterministic) {
  Fixture fx;
  auto flows = incast_flows(/*train=*/32);
  PacketSimulator sim(fx.ft.topo, fx.fib, congested(true));
  auto a = sim.run(flows);
  auto b = sim.run(flows);
  EXPECT_EQ(a.injected, 12u * 32u);
  EXPECT_EQ(a.delivered + a.dropped, a.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.ecn_marked, b.ecn_marked);
  EXPECT_EQ(a.window_cuts, b.window_cuts);
  EXPECT_DOUBLE_EQ(a.fct_p99, b.fct_p99);
  EXPECT_DOUBLE_EQ(a.mean_queue, b.mean_queue);
  EXPECT_DOUBLE_EQ(a.finish_time, b.finish_time);
}

TEST(Dctcp, UncongestedFlowSeesNoMarksOrCuts) {
  Fixture fx;
  PacketSimConfig cfg;
  cfg.ecn = true;
  cfg.ecn_threshold = 8;
  cfg.nic_rate = 1.0;  // injection matches link capacity: queues stay short
  PacketSimulator sim(fx.ft.topo, fx.fib, cfg);
  auto stats = sim.run({{fx.server(0, 0, 0), fx.server(1, 0, 0), 10, 0.0}});
  EXPECT_EQ(stats.delivered, 10u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.ecn_marked, 0u);
  EXPECT_EQ(stats.window_cuts, 0u);
  EXPECT_DOUBLE_EQ(stats.mark_rate(), 0.0);
}

TEST(Dctcp, WindowedRunPopulatesFctPercentiles) {
  Fixture fx;
  auto flows = incast_flows(/*train=*/16);
  PacketSimulator sim(fx.ft.topo, fx.fib, congested(true));
  auto stats = sim.run(flows);
  EXPECT_GT(stats.fct_mean, 0.0);
  EXPECT_GT(stats.fct_p50, 0.0);
  EXPECT_GE(stats.fct_p99, stats.fct_p50);
  EXPECT_GE(stats.fct_max, stats.fct_p99);
  EXPECT_GE(stats.mark_rate(), 0.0);
  EXPECT_LE(stats.mark_rate(), 1.0);
}

TEST(Flowlet, SimCountsSwitchesAndStillDelivers) {
  Fixture fx;
  PacketSimConfig cfg;
  cfg.queue_packets = 0;  // infinite buffers: nothing can be lost
  cfg.nic_rate = 4.0;
  // NIC injection gap is 0.25; a smaller flowlet gap makes every packet
  // its own flowlet, maximizing re-hashing.
  cfg.flowlet_gap = 0.1;
  PacketSimulator sim(fx.ft.topo, fx.fib, cfg);
  auto stats = sim.run({{fx.server(0, 0, 0), fx.server(1, 0, 0), 20, 0.0}});
  EXPECT_EQ(stats.delivered, 20u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.flowlet_switches, 19u);  // every injection after the first
}

TEST(Flowlet, DisabledGapMatchesLegacyByteForByte) {
  Fixture fx;
  std::vector<PacketFlow> flows;
  for (std::uint32_t s = 0; s < 8; ++s)
    flows.push_back({s, static_cast<topo::ServerId>(15 - s), 6, 0.05 * s});
  PacketSimConfig off;  // flowlet_gap = 0: identity salting
  PacketSimulator legacy(fx.ft.topo, fx.fib);
  PacketSimulator salted(fx.ft.topo, fx.fib, off);
  auto a = legacy.run(flows);
  auto b = salted.run(flows);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_DOUBLE_EQ(a.mean_delay, b.mean_delay);
  EXPECT_DOUBLE_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(b.flowlet_switches, 0u);
}

}  // namespace
}  // namespace flattree::sim
