#include "sim/packet_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "routing/ecmp.hpp"
#include "routing/fib.hpp"
#include "routing/ksp_routing.hpp"
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

TEST(PacketSim, SinglePacketDelayClosedForm) {
  Fixture fx;
  PacketSimConfig cfg;
  cfg.propagation_delay = 0.01;
  PacketSimulator sim(fx.ft.topo, fx.fib, cfg);
  // Inter-pod path: 4 switch hops; delay = 4 * (1/cap + prop).
  auto stats = sim.run({{fx.server(0, 0, 0), fx.server(1, 0, 0), 1, 0.0}});
  EXPECT_EQ(stats.injected, 1u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_NEAR(stats.mean_delay, 4 * (1.0 + 0.01), 1e-9);
}

TEST(PacketSim, SameSwitchDeliveryIsImmediate) {
  Fixture fx;
  PacketSimulator sim(fx.ft.topo, fx.fib);
  auto stats = sim.run({{fx.server(0, 0, 0), fx.server(0, 0, 1), 1, 0.0}});
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_delay, 0.0);  // no switch hops in the fabric
}

TEST(PacketSim, TrainQueuesBehindItself) {
  Fixture fx;
  PacketSimConfig cfg;
  cfg.propagation_delay = 0.0;
  cfg.nic_rate = 10.0;  // injection faster than the 1.0-capacity links
  cfg.queue_packets = 0;  // infinite queues
  PacketSimulator sim(fx.ft.topo, fx.fib, cfg);
  auto stats = sim.run({{fx.server(0, 0, 0), fx.server(1, 0, 0), 10, 0.0}});
  EXPECT_EQ(stats.delivered, 10u);
  // First packet: 4 hops x 1.0; last packet injected at 0.9 but serialized
  // behind 9 predecessors on the first link: leaves hop1 at 10, arrives
  // after 3 more hops at 13 -> delay 12.1; mean grows beyond the base 4.
  EXPECT_GT(stats.mean_delay, 4.0);
  EXPECT_NEAR(stats.max_delay, 13.0 - 0.9, 1e-9);
}

TEST(PacketSim, FiniteQueuesDropTail) {
  Fixture fx;
  PacketSimConfig cfg;
  cfg.nic_rate = 100.0;  // slam the first queue
  cfg.queue_packets = 4;
  PacketSimulator sim(fx.ft.topo, fx.fib, cfg);
  auto stats = sim.run({{fx.server(0, 0, 0), fx.server(1, 0, 0), 50, 0.0}});
  EXPECT_EQ(stats.injected, 50u);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_EQ(stats.delivered + stats.dropped, 50u);
  EXPECT_GT(stats.loss_rate(), 0.0);
}

TEST(PacketSim, DisjointFlowsDontInterfere) {
  Fixture fx;
  PacketSimConfig cfg;
  cfg.propagation_delay = 0.0;
  PacketSimulator sim(fx.ft.topo, fx.fib, cfg);
  // Two flows inside different pods, entirely disjoint paths.
  auto stats = sim.run({{fx.server(0, 0, 0), fx.server(0, 1, 0), 5, 0.0},
                        {fx.server(2, 0, 0), fx.server(2, 1, 0), 5, 0.0}});
  EXPECT_EQ(stats.delivered, 10u);
  // Intra-pod: 2 hops; NIC-paced injection (gap 1.0) matches link rate so
  // no queueing: every packet sees exactly 2.0.
  EXPECT_NEAR(stats.mean_delay, 2.0, 1e-9);
  EXPECT_NEAR(stats.max_delay, 2.0, 1e-9);
}

TEST(PacketSim, DeterministicAcrossRuns) {
  Fixture fx;
  PacketSimulator sim(fx.ft.topo, fx.fib);
  std::vector<PacketFlow> flows;
  for (std::uint32_t s = 0; s < 8; ++s)
    flows.push_back({s, static_cast<topo::ServerId>(15 - s), 6, 0.05 * s});
  auto a = sim.run(flows);
  auto b = sim.run(flows);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_DOUBLE_EQ(a.mean_delay, b.mean_delay);
  EXPECT_DOUBLE_EQ(a.finish_time, b.finish_time);
}

TEST(PacketSim, AllPacketsAccountedUnderLoad) {
  Fixture fx;
  PacketSimConfig cfg;
  cfg.queue_packets = 8;
  cfg.nic_rate = 4.0;
  PacketSimulator sim(fx.ft.topo, fx.fib, cfg);
  std::vector<PacketFlow> flows;
  for (std::uint32_t s = 0; s < 16; ++s)
    flows.push_back({s, static_cast<topo::ServerId>((s + 5) % 16), 20, 0.0});
  auto stats = sim.run(flows);
  EXPECT_EQ(stats.injected, 320u);
  EXPECT_EQ(stats.delivered + stats.dropped, stats.injected);
  EXPECT_GT(stats.finish_time, 0.0);
}

TEST(PacketSim, ErrorCases) {
  Fixture fx;
  PacketSimulator sim(fx.ft.topo, fx.fib);
  EXPECT_THROW(sim.run({}), std::invalid_argument);
  EXPECT_THROW(sim.run({{3, 3, 1, 0.0}}), std::invalid_argument);
}

TEST(PacketSim, MissingFibRouteThrows) {
  Fixture fx;
  te::WeightedFib empty = te::WeightedFib::equal_cost(fx.ft.topo.switch_count());
  PacketSimulator sim(fx.ft.topo, empty);
  EXPECT_THROW(sim.run({{fx.server(0, 0, 0), fx.server(1, 0, 0), 1, 0.0}}),
               std::runtime_error);
}

// -- edge-case hardening (ISSUE 7 satellite) ---------------------------------

TEST(PacketSim, NothingDeliveredReportsZeroStats) {
  // Zero-packet flows are legal no-ops; with nothing injected every
  // delay/FCT statistic is a defined 0.0 rather than NaN.
  Fixture fx;
  PacketSimulator sim(fx.ft.topo, fx.fib);
  auto stats = sim.run({{fx.server(0, 0, 0), fx.server(1, 0, 0), 0, 0.0}});
  EXPECT_EQ(stats.injected, 0u);
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_delay, 0.0);
  EXPECT_DOUBLE_EQ(stats.p99_delay, 0.0);
  EXPECT_DOUBLE_EQ(stats.max_delay, 0.0);
  EXPECT_DOUBLE_EQ(stats.fct_mean, 0.0);
  EXPECT_DOUBLE_EQ(stats.fct_p50, 0.0);
  EXPECT_DOUBLE_EQ(stats.fct_p99, 0.0);
  EXPECT_DOUBLE_EQ(stats.fct_max, 0.0);
  EXPECT_DOUBLE_EQ(stats.loss_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mark_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_queue, 0.0);
  EXPECT_DOUBLE_EQ(stats.max_queue, 0.0);
}

TEST(PacketSim, InfiniteBuffersNeverDrop) {
  // queue_packets = 0 is the documented infinite-buffer mode: even a
  // severe incast cannot lose a packet, it only queues.
  Fixture fx;
  PacketSimConfig cfg;
  cfg.queue_packets = 0;
  cfg.nic_rate = 100.0;
  PacketSimulator sim(fx.ft.topo, fx.fib, cfg);
  std::vector<PacketFlow> flows;
  for (std::uint32_t s = 0; s < 8; ++s)
    flows.push_back({s, fx.server(3, 1, 1), 25, 0.0});
  auto stats = sim.run(flows);
  EXPECT_EQ(stats.injected, 200u);
  EXPECT_EQ(stats.delivered, 200u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_GT(stats.max_queue, 16.0);  // far beyond any finite default
}

TEST(PacketSim, SrcEqualsDstRejectedEvenAmongValidFlows) {
  // Documented choice: src == dst flows are rejected (the fabric model has
  // nothing to simulate), not silently delivered at zero hops.
  Fixture fx;
  PacketSimulator sim(fx.ft.topo, fx.fib);
  EXPECT_THROW(sim.run({{fx.server(0, 0, 0), fx.server(1, 0, 0), 1, 0.0},
                        {5, 5, 1, 0.0}}),
               std::invalid_argument);
}

TEST(PacketSim, FctTracksLastPacketOfEachFlow) {
  Fixture fx;
  PacketSimConfig cfg;
  cfg.propagation_delay = 0.0;
  cfg.nic_rate = 1.0;
  PacketSimulator sim(fx.ft.topo, fx.fib, cfg);
  // Intra-pod 2-hop path at matched rates: packet p is injected at p and
  // delivered at p + 2, so a 5-packet flow started at 0 completes at 6.
  auto stats = sim.run({{fx.server(0, 0, 0), fx.server(0, 1, 0), 5, 0.0}});
  EXPECT_EQ(stats.delivered, 5u);
  EXPECT_NEAR(stats.fct_mean, 6.0, 1e-9);
  EXPECT_NEAR(stats.fct_p50, 6.0, 1e-9);
  EXPECT_NEAR(stats.fct_max, 6.0, 1e-9);
}

// -- input validation ---------------------------------------------------------

/// A 2-flow inter-pod run with ECN on, the shape the refused inputs used to
/// hang or corrupt.
PacketStats run_two_flows(const Fixture& fx, PacketSimConfig cfg, double start = 0.0) {
  cfg.ecn = true;
  PacketSimulator sim(fx.ft.topo, fx.fib, cfg);
  return sim.run({{fx.server(0, 0, 0), fx.server(1, 0, 0), 4, start},
                  {fx.server(2, 0, 0), fx.server(3, 0, 0), 4, 0.0}});
}

void expect_refused(const Fixture& fx, const PacketSimConfig& cfg, const char* field) {
  try {
    run_two_flows(fx, cfg);
    ADD_FAILURE() << field << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(PacketSim, NanNicRateRefused) {
  Fixture fx;
  PacketSimConfig cfg;
  cfg.nic_rate = std::nan("");
  expect_refused(fx, cfg, "nic_rate");
  cfg.nic_rate = -1.0;
  expect_refused(fx, cfg, "nic_rate");
}

TEST(PacketSim, NanPropagationDelayRefused) {
  Fixture fx;
  PacketSimConfig cfg;
  cfg.propagation_delay = std::nan("");
  expect_refused(fx, cfg, "propagation_delay");
  cfg.propagation_delay = std::numeric_limits<double>::infinity();
  expect_refused(fx, cfg, "propagation_delay");
}

TEST(PacketSim, NegativePropagationDelayRefused) {
  Fixture fx;
  PacketSimConfig cfg;
  cfg.propagation_delay = -5.0;
  expect_refused(fx, cfg, "propagation_delay");
  cfg.propagation_delay = 0.0;  // the boundary stays legal
  EXPECT_EQ(run_two_flows(fx, cfg).delivered, 8u);
}

TEST(PacketSim, NonFiniteFlowStartRefused) {
  Fixture fx;
  for (double start : {std::nan(""), std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
    try {
      run_two_flows(fx, PacketSimConfig{}, start);
      ADD_FAILURE() << "start " << start << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("start"), std::string::npos) << e.what();
    }
  }
  // A finite negative start is an ordinary time origin.
  EXPECT_EQ(run_two_flows(fx, PacketSimConfig{}, -3.0).delivered, 8u);
}

// -- source routes --------------------------------------------------------------

/// The k=4 fat-tree's KSP8 set between pod 0's and pod 1's first edge
/// switches: four 4-hop shortest paths, then four 6-hop detours.
struct RoutedFixture : Fixture {
  routing::KspRouting ksp{ft.topo.graph(), 8};
  topo::ServerId src = topo::server_at(ft, 0, 0, 0);
  topo::ServerId dst = topo::server_at(ft, 1, 0, 0);
  const std::vector<graph::Path>& set = ksp.paths(ft.edge_switch(0, 0), ft.edge_switch(1, 0));
};

TEST(PacketSim, RoutedPacketsStripeOverThePathSet) {
  RoutedFixture fx;
  ASSERT_EQ(fx.set.size(), 8u);
  ASSERT_EQ(fx.set[0].links.size(), 4u);
  ASSERT_EQ(fx.set[4].links.size(), 6u);
  const std::vector<graph::Path> set{fx.set[0], fx.set[4]};
  PacketSimConfig cfg;
  cfg.propagation_delay = 0.01;
  cfg.nic_rate = 0.1;  // 10 time units apart: the packets never meet
  // The table would send both packets over 4 hops; the routes send packet
  // 0 over 4 and packet 1 over the 6-hop detour.
  PacketStats stats =
      PacketSimulator(fx.ft.topo, fx.fib, cfg).run({{fx.src, fx.dst, 2, 0.0, &set}});
  EXPECT_EQ(stats.delivered, 2u);
  EXPECT_NEAR(stats.mean_delay, 5 * 1.01, 1e-9);
  EXPECT_NEAR(stats.max_delay, 6 * 1.01, 1e-9);
  // An empty set means the table.
  const std::vector<graph::Path> none;
  stats = PacketSimulator(fx.ft.topo, fx.fib, cfg).run({{fx.src, fx.dst, 2, 0.0, &none}});
  EXPECT_NEAR(stats.max_delay, 4 * 1.01, 1e-9);
}

TEST(PacketSim, RoutedFlowsSkipTheFlowletTable) {
  // Every packet of a slow flow starts a flowlet, but only the table
  // flow's count: a routed flow never consults the flowlet table.
  RoutedFixture fx;
  PacketSimConfig cfg;
  cfg.nic_rate = 0.1;
  cfg.flowlet_gap = 0.5;
  for (bool ecn : {false, true}) {
    cfg.ecn = ecn;
    PacketStats stats = PacketSimulator(fx.ft.topo, fx.fib, cfg)
                            .run({{fx.src, fx.dst, 4, 0.0, &fx.set},
                                  {fx.server(2, 0, 0), fx.server(3, 0, 0), 4, 0.0}});
    EXPECT_EQ(stats.delivered, 8u) << ecn;
    EXPECT_EQ(stats.flowlet_switches, 3u) << ecn;
  }
}

/// Runs a valid table flow beside a flow routed over `set`, and expects
/// the run to be refused with `what` in the message.
void expect_route_refused(const RoutedFixture& fx, topo::ServerId src, topo::ServerId dst,
                          const std::vector<graph::Path>& set, const char* what) {
  PacketSimulator sim(fx.ft.topo, fx.fib);
  try {
    sim.run({{fx.server(2, 0, 0), fx.server(3, 0, 0), 1, 0.0}, {src, dst, 1, 0.0, &set}});
    ADD_FAILURE() << what << ": accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(PacketSim, RouteNotStartingAtTheSourceRefused) {
  RoutedFixture fx;
  expect_route_refused(fx, fx.server(2, 0, 0), fx.dst, fx.set, "start at host(src)");
}

TEST(PacketSim, RouteNotEndingAtTheDestinationRefused) {
  RoutedFixture fx;
  expect_route_refused(fx, fx.src, fx.server(3, 0, 0), fx.set, "end at host(dst)");
}

TEST(PacketSim, RouteLinkNotJoiningItsNodesRefused) {
  RoutedFixture fx;
  std::vector<graph::Path> set{fx.set[0]};
  set[0].links[1] = set[0].links[0];
  expect_route_refused(fx, fx.src, fx.dst, set, "does not join consecutive nodes");
  set[0] = fx.set[0];
  set[0].links.pop_back();
  expect_route_refused(fx, fx.src, fx.dst, set, "does not join consecutive nodes");
}

TEST(PacketSim, RouteThroughTheDestinationRefused) {
  // Pod 0: edge 0 -> agg 0 -> edge 1 (the destination) -> agg 1 -> edge 1.
  RoutedFixture fx;
  const auto& pod = fx.ksp.paths(fx.ft.edge_switch(0, 0), fx.ft.edge_switch(0, 1));
  ASSERT_EQ(pod[1].links.size(), 2u);  // the two 2-hop paths come first
  graph::Path loop = pod[0];
  loop.nodes.push_back(pod[1].nodes[1]);
  loop.nodes.push_back(pod[1].nodes[2]);
  loop.links.push_back(pod[1].links[1]);
  loop.links.push_back(pod[1].links[1]);
  expect_route_refused(fx, fx.src, fx.server(0, 1, 0), {loop}, "reaches host(dst) before");
}

TEST(PacketSim, MoreThan65535RoutesRefused) {
  RoutedFixture fx;
  std::vector<graph::Path> set(65535, fx.set[0]);
  PacketSimulator sim(fx.ft.topo, fx.fib);
  EXPECT_EQ(sim.run({{fx.src, fx.dst, 1, 0.0, &set}}).delivered, 1u);
  set.push_back(fx.set[0]);
  expect_route_refused(fx, fx.src, fx.dst, set, "more than 65,535 paths");
}

TEST(PacketSim, RouteOver65535HopsRefused) {
  // Edge 0 and agg 0 of pod 0 bounce a packet before it crosses to edge 1
  // (the fat-tree is bipartite, so an edge-to-edge walk has even length).
  RoutedFixture fx;
  const auto& pod = fx.ksp.paths(fx.ft.edge_switch(0, 0), fx.ft.edge_switch(0, 1));
  auto bounce = [&](std::size_t hops) {
    graph::Path p;
    p.nodes.push_back(pod[0].nodes[0]);
    for (std::size_t i = 0; i + 1 < hops; ++i) {
      p.links.push_back(pod[0].links[0]);
      p.nodes.push_back(pod[0].nodes[i % 2 == 0 ? 1 : 0]);
    }
    p.links.push_back(pod[0].links[1]);
    p.nodes.push_back(pod[0].nodes[2]);
    return std::vector<graph::Path>{p};
  };
  const topo::ServerId dst = fx.server(0, 1, 0);
  const auto longest = bounce(65534);
  PacketSimConfig cfg;
  cfg.propagation_delay = 0.0;
  PacketStats stats =
      PacketSimulator(fx.ft.topo, fx.fib, cfg).run({{fx.src, dst, 1, 0.0, &longest}});
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_NEAR(stats.max_delay, 65534.0, 1e-6);
  expect_route_refused(fx, fx.src, dst, bounce(65536), "more than 65,535 hops");
}

// -- golden stats -------------------------------------------------------------

/// One row of pinned PacketStats for the golden matrix below.
struct Golden {
  bool ecn;
  bool wcmp;
  std::uint64_t injected, delivered, dropped, ecn_marked, window_cuts;
  double finish_time, fct_p99;
};

TEST(PacketSim, GoldenStatsAcrossTablesAndEcn) {
  // Absolute values, not relations: a fixed k=4 incast plus a permutation
  // over {drop-tail, DCTCP} x {equal-cost, WCMP} tables, with flowlets on.
  // Any change to the event loop's ordering, the hash or the DCTCP window
  // arithmetic moves at least one of these numbers.
  Fixture fx;
  routing::EcmpRouting ecmp(fx.ft.topo.graph());
  te::WeightedFib wcmp =
      te::compile_wcmp_paths(fx.ft.topo, ecmp, routing::all_server_pairs(fx.ft.topo));
  std::vector<PacketFlow> flows;
  for (const auto& d : workload::incast_pattern(16, 12, /*seed=*/7))
    flows.push_back({d.src, d.dst, 48, 0.0});
  util::Rng rng(3);
  for (const auto& d : workload::permutation_traffic(16, rng))
    if (d.src != d.dst) flows.push_back({d.src, d.dst, 16, 1.0});
  ASSERT_EQ(flows.size(), 28u);

  const Golden golden[] = {
      {false, false, 832, 299, 533, 0, 0, 72.040000000000006, 71.230000000000004},
      {false, true, 832, 241, 591, 0, 0, 70.040000000000006, 68.739999999999995},
      {true, false, 832, 784, 48, 454, 323, 287.23999999999978, 286.69999999999976},
      {true, true, 832, 772, 60, 426, 316, 287.46999999999986, 285.55839999999989},
  };
  for (const Golden& g : golden) {
    SCOPED_TRACE(std::string(g.ecn ? "dctcp" : "drop-tail") + (g.wcmp ? "/wcmp" : "/ecmp"));
    PacketSimConfig cfg;
    cfg.nic_rate = 4.0;
    cfg.queue_packets = 16;
    cfg.ecn = g.ecn;
    cfg.ecn_threshold = 4;
    cfg.flowlet_gap = 0.5;
    PacketStats s = PacketSimulator(fx.ft.topo, g.wcmp ? wcmp : fx.fib, cfg).run(flows);
    EXPECT_EQ(s.injected, g.injected);
    EXPECT_EQ(s.delivered, g.delivered);
    EXPECT_EQ(s.dropped, g.dropped);
    EXPECT_EQ(s.ecn_marked, g.ecn_marked);
    EXPECT_EQ(s.window_cuts, g.window_cuts);
    EXPECT_DOUBLE_EQ(s.finish_time, g.finish_time);
    EXPECT_DOUBLE_EQ(s.fct_p99, g.fct_p99);
  }
}

}  // namespace
}  // namespace flattree::sim
