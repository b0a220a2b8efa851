// Hybrid-mode operation: zoned topologies driven by workload placement
// (paper Sections 2.6 and 3.4).
//
//   $ ./hybrid_zones [--k 8]
//
// A mixed workload arrives (large broadcast clusters + small all-to-all
// clusters). The controller recommends a zone split, converts the network,
// places each class into its zone, and reports per-zone throughput
// against a dedicated network of the same mode.

#include <cstdio>

#include "core/controller.hpp"
#include "core/zones.hpp"
#include "mcf/garg_koenemann.hpp"
#include "util/cli.hpp"
#include "workload/traffic.hpp"

using namespace flattree;

namespace {

double lambda(const topo::Topology& t, const std::vector<mcf::ServerDemand>& demands) {
  auto commodities = mcf::aggregate_to_switches(t, demands);
  mcf::McfOptions opt;
  opt.epsilon = 0.12;
  opt.compute_upper_bound = false;
  return mcf::max_concurrent_flow(t.graph(), commodities, opt).lambda_lower;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t k = 8, seed = 1;
  util::CliParser cli("Hybrid flat-tree: zoned conversion driven by workloads.");
  cli.add_int("k", &k, {4, 256, 2}, "fat-tree parameter");
  cli.add_int("seed", &seed, {0, INT64_MAX}, "workload RNG seed");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  const std::uint32_t ku = static_cast<std::uint32_t>(k);
  const std::uint32_t per_pod = ku * ku / 4;
  core::FlatTreeConfig config;
  config.k = ku;
  core::Controller controller(config);
  const core::FlatTreeNetwork& net = controller.network();
  const std::uint32_t total = net.params().total_servers();

  // Incoming workload: 60% of servers in big broadcast clusters, 40% in
  // small all-to-all clusters.
  core::WorkloadHint hint;
  hint.servers_in_large_clusters = total * 6 / 10;
  hint.servers_in_small_clusters = total - hint.servers_in_large_clusters;
  core::ZonePartition zones = core::recommend_zones(ku, hint);
  std::printf("workload: %llu servers in large clusters, %llu in small ones\n",
              static_cast<unsigned long long>(hint.servers_in_large_clusters),
              static_cast<unsigned long long>(hint.servers_in_small_clusters));
  std::printf("recommended zones: %zu pods global-random, %zu pods local-random\n",
              zones.pods_in(core::Mode::GlobalRandom).size(),
              zones.pods_in(core::Mode::LocalRandom).size());

  core::ReconfigPlan plan = controller.apply(zones);
  std::printf("converted with %zu converter reconfigurations\n\n", plan.steps.size());
  topo::Topology hybrid = controller.topology();

  // Place each workload class into its zone and measure.
  util::Rng rng(static_cast<std::uint64_t>(seed));
  auto g_servers = core::servers_in_pods(net, zones.pods_in(core::Mode::GlobalRandom));
  auto l_servers = core::servers_in_pods(net, zones.pods_in(core::Mode::LocalRandom));
  std::uint32_t g_size = std::min<std::uint32_t>(40, static_cast<std::uint32_t>(g_servers.size()));
  std::uint32_t l_size = std::min<std::uint32_t>(16, static_cast<std::uint32_t>(l_servers.size()));

  auto g_clusters = workload::make_clusters_subset(g_servers, g_size,
                                                   workload::Placement::NoLocality,
                                                   per_pod, rng);
  auto l_clusters = workload::make_clusters_subset(l_servers, l_size,
                                                   workload::Placement::WeakLocality,
                                                   per_pod, rng);
  auto g_demands = workload::cluster_traffic(g_clusters, workload::Pattern::Broadcast, rng);
  auto l_demands = workload::cluster_traffic(l_clusters, workload::Pattern::AllToAll, rng);

  double g_zone = lambda(hybrid, g_demands);
  double l_zone = lambda(hybrid, l_demands);
  std::printf("global zone: %zu broadcast clusters of %u -> lambda %.5f\n",
              g_clusters.size(), g_size, g_zone);
  std::printf("local zone:  %zu all-to-all clusters of %u -> lambda %.5f\n",
              l_clusters.size(), l_size, l_zone);

  // Paper Section 3.4: each zone should match a dedicated network.
  double g_dedicated = lambda(net.build(core::Mode::GlobalRandom), g_demands);
  double l_dedicated = lambda(net.build(core::Mode::LocalRandom), l_demands);
  std::printf("\ndedicated-network references: global %.5f (ratio %.2f), "
              "local %.5f (ratio %.2f)\n",
              g_dedicated, g_zone / g_dedicated, l_dedicated, l_zone / l_dedicated);
  std::printf("ratios near 1.0 reproduce the paper's zone-segregation claim.\n");
  return 0;
}
