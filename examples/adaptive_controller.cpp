// Adaptive operation (paper Sections 2.6 and 5): the controller reconverts
// the network as the workload mix shifts, e.g. across a daily cycle.
//
//   $ ./adaptive_controller [--k 8]
//
// Three workload phases (analytics-heavy night, service-heavy day, mixed
// evening) are measured under every static mode and under the controller's
// recommended zoning, showing that adapting the topology tracks the best
// static choice in each phase.

#include <cstdio>

#include "core/controller.hpp"
#include "core/zones.hpp"
#include "mcf/garg_koenemann.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/traffic.hpp"

using namespace flattree;

namespace {

struct Phase {
  const char* name;
  double large_fraction;  ///< share of servers in big broadcast clusters
};

double lambda(const topo::Topology& t, const std::vector<mcf::ServerDemand>& demands) {
  auto commodities = mcf::aggregate_to_switches(t, demands);
  if (commodities.empty()) return 0.0;
  mcf::McfOptions opt;
  opt.epsilon = 0.15;
  opt.compute_upper_bound = false;
  return mcf::max_concurrent_flow(t.graph(), commodities, opt).lambda_lower;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t k = 8, seed = 1;
  util::CliParser cli("Adaptive controller: reconvert as the workload mix shifts.");
  cli.add_int("k", &k, {4, 256, 2}, "fat-tree parameter");
  cli.add_int("seed", &seed, {0, INT64_MAX}, "workload RNG seed");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  const std::uint32_t ku = static_cast<std::uint32_t>(k);
  const std::uint32_t per_pod = ku * ku / 4;
  core::FlatTreeConfig cfg;
  cfg.k = ku;
  core::Controller controller(cfg);
  const core::FlatTreeNetwork& net = controller.network();
  const std::uint32_t total = net.params().total_servers();

  const Phase phases[] = {{"night (batch analytics)", 0.9},
                          {"day (small services)", 0.2},
                          {"evening (mixed)", 0.5}};

  util::Table table({"phase", "static clos", "static global", "static local",
                     "adaptive zones", "reconfig steps"});
  for (const Phase& phase : phases) {
    // Build the phase's workload: big broadcast clusters for the "large"
    // share, 16-server all-to-all clusters for the rest.
    util::Rng rng(static_cast<std::uint64_t>(seed) * 71 + static_cast<std::uint64_t>(
                                                              phase.large_fraction * 100));
    std::uint32_t large_servers =
        static_cast<std::uint32_t>(phase.large_fraction * total);
    std::vector<topo::ServerId> large_pool, small_pool;
    for (topo::ServerId s = 0; s < total; ++s)
      (s < large_servers ? large_pool : small_pool).push_back(s);

    std::vector<mcf::ServerDemand> demands;
    if (large_pool.size() >= 2) {
      auto clusters = workload::make_clusters_subset(
          large_pool, std::min<std::uint32_t>(40, static_cast<std::uint32_t>(large_pool.size())),
          workload::Placement::NoLocality, per_pod, rng);
      auto part = workload::cluster_traffic(clusters, workload::Pattern::Broadcast, rng);
      demands.insert(demands.end(), part.begin(), part.end());
    }
    if (small_pool.size() >= 16) {
      auto clusters = workload::make_clusters_subset(small_pool, 16,
                                                     workload::Placement::WeakLocality,
                                                     per_pod, rng);
      auto part = workload::cluster_traffic(clusters, workload::Pattern::AllToAll, rng);
      demands.insert(demands.end(), part.begin(), part.end());
    }

    // Static references.
    double clos = lambda(net.build(core::Mode::Clos), demands);
    double global = lambda(net.build(core::Mode::GlobalRandom), demands);
    double local = lambda(net.build(core::Mode::LocalRandom), demands);

    // Adaptive: recommend zones from the observed mix and reconvert.
    core::WorkloadHint hint;
    hint.servers_in_large_clusters = large_servers;
    hint.servers_in_small_clusters = total - large_servers;
    core::ReconfigPlan plan = controller.apply(core::recommend_zones(ku, hint));
    double adaptive = lambda(controller.topology(), demands);

    table.begin_row();
    table.add(phase.name);
    table.num(clos, 5);
    table.num(global, 5);
    table.num(local, 5);
    table.num(adaptive, 5);
    table.integer(static_cast<std::int64_t>(plan.steps.size()));
  }
  table.print("Adaptive reconversion across workload phases");
  std::puts("The adaptive column tracks the best static mode per phase while paying\n"
            "only incremental converter reconfigurations between phases.");
  return 0;
}
