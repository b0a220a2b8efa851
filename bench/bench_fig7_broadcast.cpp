// Figure 7: throughput of broadcast/incast traffic in 1000-server clusters.
//
// One random hot-spot server per cluster broadcasts a unit demand to every
// other member; throughput is the max concurrent flow value lambda (unit
// link capacities, relaxed server links). Locality packs clusters over
// consecutive servers; no-locality scatters them. Paper shape: flat-tree
// (global RG mode) tracks the random graph closely at ~1.5x fat-tree, all
// curves grow linearly in k, and none is locality-sensitive.
//
// Networks smaller than the cluster size use one all-servers cluster (the
// paper's k = 4..12 points cannot literally hold 1000 servers either) and
// the reported lambda is normalized to a per-1000-member hot spot
// (lambda * (size-1)/(cluster-1)), which reproduces the paper's linear
// growth in k across the whole sweep.

#include <algorithm>
#include <cstdio>

#include "common.hpp"
#include "topo/fat_tree.hpp"
#include "topo/random_graph.hpp"

using namespace flattree;

int main(int argc, char** argv) {
  std::int64_t kmax = 16, kstep = 4, cluster = 1000, seeds = 3, seed = 1;
  double eps = 0.12;
  bool full = false;
  util::CliParser cli(
      "Figure 7 reproduction: broadcast/incast throughput in 1000-server clusters.");
  cli.add_int("kmax", &kmax, bench::kKmax, "largest fat-tree parameter k");
  cli.add_int("kstep", &kstep, bench::kKstep, "k sweep step");
  cli.add_int("cluster", &cluster, bench::kCluster,
              "cluster size (capped at the server count)");
  cli.add_int("seeds", &seeds, bench::kSeeds, "hot-spot/placement draws to average");
  cli.add_int("seed", &seed, bench::kRngSeed, "base RNG seed");
  cli.add_double("eps", &eps, bench::kEps, "Garg-Koenemann epsilon");
  cli.add_bool("full", &full, "paper-scale sweep (k to 32 step 2; slow)");
  bench::Run run(cli, argc, argv);
  if (!run.parsed()) return cli.exit_code();
  run.set_int("seed", seed);
  run.set_double("eps", eps);
  if (full) {
    kmax = 32;
    kstep = 2;
  }

  util::Table table({"k", "fat-tree loc", "fat-tree noloc", "flat-tree loc",
                     "flat-tree noloc", "random loc", "random noloc"});
  for (std::uint32_t k : bench::k_values(kmax, kstep)) {
    const std::uint32_t servers = k * k * k / 4;
    const std::uint32_t size = std::min<std::uint32_t>(static_cast<std::uint32_t>(cluster),
                                                       servers);
    core::FlatTreeNetwork net = bench::profiled_network(k);
    topo::Topology flat = net.build(core::Mode::GlobalRandom);
    topo::FatTree ft = topo::build_fat_tree(k);
    util::Rng rg_rng(static_cast<std::uint64_t>(seed) * 271 + k);
    topo::Topology rg = topo::build_jellyfish_like_fat_tree(k, rg_rng);
    bench::check_topology(flat, "flat-tree(global)");
    bench::check_topology(ft.topo, "fat-tree");
    bench::check_topology(rg, "random-graph");
    bench::check_parity(ft.topo, flat, "fat-tree vs flat-tree");

    const double normalize = static_cast<double>(size - 1) /
                             static_cast<double>(cluster - 1);
    auto mean = [&](const topo::Topology& t, workload::Placement placement) {
      return normalize * bench::mean_cluster_throughput(
                             t, size, placement, workload::Pattern::Broadcast, k * k / 4,
                             eps, static_cast<std::uint64_t>(seed) * 997 + k,
                             static_cast<std::uint32_t>(seeds));
    };
    table.begin_row();
    table.integer(k);
    table.num(mean(ft.topo, workload::Placement::Locality), 5);
    table.num(mean(ft.topo, workload::Placement::NoLocality), 5);
    table.num(mean(flat, workload::Placement::Locality), 5);
    table.num(mean(flat, workload::Placement::NoLocality), 5);
    table.num(mean(rg, workload::Placement::Locality), 5);
    table.num(mean(rg, workload::Placement::NoLocality), 5);
    std::fprintf(stderr, "[fig7] k=%u done\n", k);
  }
  table.print("Figure 7: broadcast/incast throughput in 1000-server clusters");
  std::puts("Paper shape: flat-tree ~= random graph ~= 1.5x fat-tree; linear in k;\n"
            "insensitive to locality.");
  return bench::selfcheck_exit();
}
