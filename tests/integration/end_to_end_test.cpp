// End-to-end reproduction checks: the paper's qualitative claims, asserted
// at small scale (k = 8) so the suite stays fast. The bench binaries
// regenerate the full figures.

#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "core/profile.hpp"
#include "core/zones.hpp"
#include "mcf/garg_koenemann.hpp"
#include "routing/ecmp.hpp"
#include "routing/ksp_routing.hpp"
#include "sim/packet_sim.hpp"
#include "topo/apl.hpp"
#include "topo/fat_tree.hpp"
#include "topo/random_graph.hpp"
#include "topo/two_stage.hpp"
#include "workload/traffic.hpp"

namespace flattree {
namespace {

constexpr std::uint32_t kK = 8;

double throughput(const topo::Topology& t, const std::vector<mcf::ServerDemand>& demands,
                  double epsilon = 0.15) {
  auto commodities = mcf::aggregate_to_switches(t, demands);
  mcf::McfOptions opt;
  opt.epsilon = epsilon;
  opt.compute_upper_bound = false;
  return mcf::max_concurrent_flow(t.graph(), commodities, opt).lambda_lower;
}

TEST(PaperClaims, Figure5AplOrdering) {
  // Random graph <= flat-tree global RG < fat-tree, flat-tree close to RG.
  core::FlatTreeConfig cfg;
  cfg.k = kK;
  core::FlatTreeNetwork net(cfg);
  util::Rng rng(1);
  double apl_ft = topo::server_apl(topo::build_fat_tree(kK).topo).average;
  double apl_flat = topo::server_apl(net.build(core::Mode::GlobalRandom)).average;
  double apl_rg = topo::server_apl(topo::build_jellyfish_like_fat_tree(kK, rng)).average;
  EXPECT_LT(apl_flat, apl_ft);
  EXPECT_LT(apl_rg, apl_ft);
  // Paper: within 5% of random graph at the profiled (m, n); allow slack
  // at this small scale.
  EXPECT_LT(apl_flat, apl_rg * 1.12);
}

TEST(PaperClaims, Figure6IntraPodApl) {
  // Within-pod server pairs: flat-tree local RG and fat-tree beat the
  // global random graph (whose pod servers scatter network-wide).
  core::FlatTreeConfig cfg;
  cfg.k = kK;
  core::FlatTreeNetwork net(cfg);
  util::Rng rng(2);
  topo::Topology flat = net.build(core::Mode::LocalRandom);
  topo::FatTree ft = topo::build_fat_tree(kK);
  topo::Topology rg = topo::build_jellyfish_like_fat_tree(kK, rng);

  auto pod_groups = [&](const topo::Topology&) {
    std::vector<std::vector<topo::ServerId>> groups(kK);
    const std::uint32_t per_pod = kK * kK / 4;
    for (topo::ServerId s = 0; s < kK * kK * kK / 4; ++s) groups[s / per_pod].push_back(s);
    return groups;
  };
  double a_flat = topo::server_apl_grouped(flat, pod_groups(flat)).average;
  double a_ft = topo::server_apl_grouped(ft.topo, pod_groups(ft.topo)).average;
  double a_rg = topo::server_apl_grouped(rg, pod_groups(rg)).average;
  EXPECT_LT(a_flat, a_rg);
  EXPECT_LT(a_ft, a_rg);
  EXPECT_LT(a_flat, a_ft * 1.05);  // flat-tree at least on par with fat-tree
}

TEST(PaperClaims, Figure7BroadcastThroughput) {
  // Broadcast hot-spot clusters: flat-tree (global RG) and random graph
  // clearly beat fat-tree; flat-tree is close to random graph.
  core::FlatTreeConfig cfg;
  cfg.k = kK;
  core::FlatTreeNetwork net(cfg);
  util::Rng rng(3);
  topo::FatTree ft = topo::build_fat_tree(kK);
  topo::Topology flat = net.build(core::Mode::GlobalRandom);
  topo::Topology rg = topo::build_jellyfish_like_fat_tree(kK, rng);

  const std::uint32_t cluster_size = 100;  // scaled-down 1000-server cluster
  // Average over hot-spot draws: at this small scale a single unlucky hot
  // spot can sit on a port-poor switch in any topology.
  auto run = [&](const topo::Topology& t) {
    double sum = 0.0;
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      util::Rng wl(4 + seed);
      auto clusters =
          workload::make_clusters(t.server_count(), cluster_size,
                                  workload::Placement::Locality, kK * kK / 4, wl);
      auto demands = workload::cluster_traffic(clusters, workload::Pattern::Broadcast, wl);
      sum += throughput(t, demands);
    }
    return sum / 3.0;
  };
  double th_ft = run(ft.topo), th_flat = run(flat), th_rg = run(rg);
  EXPECT_GT(th_flat, th_ft * 1.2);   // paper reports ~1.5x at full scale
  EXPECT_GT(th_rg, th_ft * 1.2);
  EXPECT_GT(th_flat, th_rg * 0.85);  // "very close to random graph"
}

TEST(PaperClaims, Figure8SmallClusterThroughput) {
  // 20-server all-to-all with locality: flat-tree local RG beats fat-tree
  // at least at small k (paper: outperforms two-stage RG for k <= 14).
  core::FlatTreeConfig cfg;
  cfg.k = kK;
  core::FlatTreeNetwork net(cfg);
  util::Rng rng(5);
  topo::FatTree ft = topo::build_fat_tree(kK);
  topo::Topology flat = net.build(core::Mode::LocalRandom);
  topo::Topology two_stage = topo::build_two_stage_random_graph(kK, rng);

  auto run = [&](const topo::Topology& t) {
    util::Rng wl(6);
    auto clusters = workload::make_clusters(t.server_count(), 20,
                                            workload::Placement::Locality, kK * kK / 4, wl);
    auto demands = workload::cluster_traffic(clusters, workload::Pattern::AllToAll, wl);
    return throughput(t, demands);
  };
  double th_flat = run(flat);
  double th_ts = run(two_stage);
  double th_ft = run(ft.topo);
  EXPECT_GT(th_flat, th_ts * 0.9);
  EXPECT_GT(th_flat, 0.0);
  EXPECT_GT(th_ft, 0.0);
}

TEST(PaperClaims, Section34HybridZoneIsolation) {
  // Hybrid mode: each zone's throughput matches a dedicated network of the
  // same mode within solver tolerance.
  core::FlatTreeConfig cfg;
  cfg.k = kK;
  core::FlatTreeNetwork net(cfg);
  core::ZonePartition zones = core::ZonePartition::proportion(kK, 0.5);
  topo::Topology hybrid = net.build(zones.pod_modes);

  // Global zone: broadcast clusters placed on the global pods.
  util::Rng wl(7);
  auto global_servers = core::servers_in_pods(net, zones.pods_in(core::Mode::GlobalRandom));
  auto g_clusters = workload::make_clusters_subset(global_servers, 40,
                                                   workload::Placement::NoLocality,
                                                   kK * kK / 4, wl);
  auto g_demands = workload::cluster_traffic(g_clusters, workload::Pattern::Broadcast, wl);

  auto local_servers = core::servers_in_pods(net, zones.pods_in(core::Mode::LocalRandom));
  auto l_clusters = workload::make_clusters_subset(local_servers, 16,
                                                   workload::Placement::WeakLocality,
                                                   kK * kK / 4, wl);
  auto l_demands = workload::cluster_traffic(l_clusters, workload::Pattern::AllToAll, wl);

  double g_hybrid = throughput(hybrid, g_demands);
  double l_hybrid = throughput(hybrid, l_demands);
  EXPECT_GT(g_hybrid, 0.0);
  EXPECT_GT(l_hybrid, 0.0);

  // Joint workload: zone throughputs should not collapse when both run
  // (shared core, but the paper reports perfect segregation).
  std::vector<mcf::ServerDemand> joint = g_demands;
  joint.insert(joint.end(), l_demands.begin(), l_demands.end());
  double joint_lambda = throughput(hybrid, joint);
  EXPECT_GT(joint_lambda, 0.5 * std::min(g_hybrid, l_hybrid));
}

TEST(Integration, ControllerDrivenConversionAffectsWorkload) {
  core::Controller ctl([] {
    core::FlatTreeConfig cfg;
    cfg.k = kK;
    return cfg;
  }());
  util::Rng wl(8);
  auto clusters = workload::make_clusters(kK * kK * kK / 4, 100,
                                          workload::Placement::NoLocality, kK * kK / 4, wl);
  auto demands = workload::cluster_traffic(clusters, workload::Pattern::Broadcast, wl);

  double clos_lambda = throughput(ctl.topology(), demands);
  ctl.apply(core::Mode::GlobalRandom);
  double grg_lambda = throughput(ctl.topology(), demands);
  EXPECT_GT(grg_lambda, clos_lambda);
}

TEST(Integration, RoutedPacketSimRunsOnConvertedTopology) {
  // A permutation burst source-routed over each pair's KSP4 set on the
  // converted fabric: with unbounded queues every packet arrives.
  core::FlatTreeConfig cfg;
  cfg.k = 4;
  core::FlatTreeNetwork net(cfg);
  topo::Topology grg = net.build(core::Mode::GlobalRandom);
  routing::KspRouting routing(grg.graph(), 4);
  util::Rng rng(9);
  std::vector<sim::PacketFlow> flows;
  std::size_t routed = 0;
  for (const auto& d :
       workload::permutation_traffic(static_cast<std::uint32_t>(grg.server_count()), rng)) {
    flows.push_back({d.src, d.dst, 8, 0.0});
    const graph::NodeId a = grg.host(d.src), b = grg.host(d.dst);
    if (a != b) {
      flows.back().paths = &routing.paths(a, b);
      ++routed;
    }
  }
  ASSERT_GT(routed, 0u);
  // Routed flows never read the table, and same-switch pairs are
  // delivered without it, so an empty one will do.
  te::WeightedFib table = te::WeightedFib::equal_cost(grg.switch_count());
  sim::PacketSimConfig pcfg;
  pcfg.queue_packets = 0;
  sim::PacketStats stats = sim::PacketSimulator(grg, table, pcfg).run(flows);
  EXPECT_EQ(stats.injected, 8u * flows.size());
  EXPECT_EQ(stats.delivered, stats.injected);
  EXPECT_GT(stats.fct_max, 0.0);
}

TEST(Integration, ProfiledMnMatchesPaperChoiceAtK16) {
  // Paper Section 3.2: the profiled optimum is m = k/8, n = 2k/8. In our
  // construction (m, n) = (k/8, k/8) ties (k/8, 2k/8) exactly at k = 16,
  // so assert the paper's choice attains the minimum rather than that the
  // argmin tie-breaks the same way.
  core::ProfileResult r = core::profile_mn(16);
  EXPECT_EQ(r.best_m, 2u);
  double paper_choice_apl = 0.0;
  for (const core::ProfilePoint& p : r.points)
    if (p.m == 2 && p.n == 4) paper_choice_apl = p.apl;
  EXPECT_NEAR(paper_choice_apl, r.best_apl, r.best_apl * 1e-9);
}

}  // namespace
}  // namespace flattree
