// Throughput study: the paper's evaluation methodology end to end on one
// network size, with solver certificates.
//
//   $ ./throughput_study [--k 8] [--eps 0.08]
//
// Builds fat-tree, flat-tree (both modes), and the random-graph baselines
// from identical equipment, runs the two paper workloads, and reports the
// max concurrent flow value with its duality upper bound — every number
// carries its own optimality certificate.

#include <cstdio>

#include "core/flat_tree.hpp"
#include "exec/parallel_for.hpp"
#include "mcf/garg_koenemann.hpp"
#include "topo/fat_tree.hpp"
#include "topo/random_graph.hpp"
#include "topo/two_stage.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/traffic.hpp"

using namespace flattree;

int main(int argc, char** argv) {
  std::int64_t k = 8, seed = 1, cluster_big = 100, cluster_small = 20, threads = 0;
  double eps = 0.08;
  util::CliParser cli("Throughput study with optimality certificates.");
  // A cluster needs two members; one above the server count is capped.
  const util::IntRange cluster{2, UINT32_MAX};
  cli.add_int("k", &k, {4, 256, 2}, "fat-tree parameter");
  cli.add_int("seed", &seed, {0, INT64_MAX}, "RNG seed");
  cli.add_int("big-cluster", &cluster_big, cluster, "broadcast cluster size");
  cli.add_int("small-cluster", &cluster_small, cluster, "all-to-all cluster size");
  cli.add_double("eps", &eps, util::DoubleRange::open(0.0, 1.0), "Garg-Koenemann epsilon");
  cli.add_int("threads", &threads, {0, exec::kMaxThreads},
              "execution threads (0 = FLATTREE_THREADS env / hardware concurrency)");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  exec::set_global_threads(static_cast<unsigned>(threads));

  const std::uint32_t ku = static_cast<std::uint32_t>(k);
  const std::uint32_t per_pod = ku * ku / 4;
  core::FlatTreeConfig cfg;
  cfg.k = ku;
  core::FlatTreeNetwork net(cfg);
  util::Rng rng(static_cast<std::uint64_t>(seed));

  struct Entry {
    const char* name;
    topo::Topology topo;
  };
  std::vector<Entry> topologies;
  topologies.push_back({"fat-tree", topo::build_fat_tree(ku).topo});
  topologies.push_back({"flat-tree global RG", net.build(core::Mode::GlobalRandom)});
  topologies.push_back({"flat-tree local RG", net.build(core::Mode::LocalRandom)});
  topologies.push_back({"random graph", topo::build_jellyfish_like_fat_tree(ku, rng)});
  topologies.push_back({"two-stage random", topo::build_two_stage_random_graph(ku, rng)});

  util::Table table({"topology", "workload", "lambda (lower)", "upper bound", "gap %"});
  for (const Entry& entry : topologies) {
    for (int w = 0; w < 2; ++w) {
      util::Rng wl(static_cast<std::uint64_t>(seed) + 17);
      std::uint32_t size = static_cast<std::uint32_t>(w == 0 ? cluster_big : cluster_small);
      size = std::min<std::uint32_t>(size,
                                     static_cast<std::uint32_t>(entry.topo.server_count()));
      auto clusters = workload::make_clusters(
          static_cast<std::uint32_t>(entry.topo.server_count()), size,
          w == 0 ? workload::Placement::Locality : workload::Placement::WeakLocality,
          per_pod, wl);
      auto demands = workload::cluster_traffic(
          clusters, w == 0 ? workload::Pattern::Broadcast : workload::Pattern::AllToAll, wl);
      auto commodities = mcf::aggregate_to_switches(entry.topo, demands);
      mcf::McfOptions opt;
      opt.epsilon = eps;
      auto r = mcf::max_concurrent_flow(entry.topo.graph(), commodities, opt);
      table.begin_row();
      table.add(entry.name);
      table.add(w == 0 ? "broadcast/locality" : "all-to-all/weak");
      table.num(r.lambda_lower, 5);
      table.num(r.lambda_upper, 5);
      table.num(100.0 * (r.lambda_upper - r.lambda_lower) / r.lambda_upper, 1);
    }
  }
  table.print("Throughput with Garg-Koenemann certificates");
  return 0;
}
