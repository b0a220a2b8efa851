// Figure 8: throughput of all-to-all traffic in 20-server clusters.
//
// Every server exchanges unit demands with every other member of its
// 20-server cluster. Locality packs clusters consecutively; weak locality
// packs them randomly within pods (the paper's fragmentation worst case).
// Paper shape: flat-tree (local RG mode) tracks the local-random ideal,
// beating the two-stage random graph for small networks (k <= 14) and
// staying within ~6-9% above; fat-tree is highly placement-sensitive;
// the global random graph sits in between and is the least sensitive.

#include <cstdio>

#include "common.hpp"
#include "topo/fat_tree.hpp"
#include "topo/random_graph.hpp"
#include "topo/two_stage.hpp"

using namespace flattree;

int main(int argc, char** argv) {
  std::int64_t kmax = 12, kstep = 4, cluster = 20, seeds = 1, seed = 1;
  double eps = 0.12;
  bool full = false;
  std::int64_t threads = 0;
  util::CliParser cli(
      "Figure 8 reproduction: all-to-all throughput in 20-server clusters.");
  cli.add_int("kmax", &kmax, "largest fat-tree parameter k");
  cli.add_int("kstep", &kstep, "k sweep step");
  cli.add_int("cluster", &cluster, "cluster size");
  cli.add_int("seeds", &seeds, "placement draws to average");
  cli.add_int("seed", &seed, "base RNG seed");
  cli.add_double("eps", &eps, "Garg-Koenemann epsilon");
  cli.add_bool("full", &full, "paper-scale sweep (k to 32 step 2; slow)");
  bool selfcheck = false;
  bench::add_threads_flag(cli, &threads);
  bench::add_selfcheck_flag(cli, &selfcheck);
  bench::ObsFlags obsf;
  bench::add_obs_flags(cli, &obsf);
  if (!cli.parse(argc, argv)) return cli.exit_code();
  if (!bench::seeds_in_range("bench_fig8_alltoall", seeds)) return 2;
  bench::apply_threads(threads);
  bench::apply_selfcheck(selfcheck);
  bench::ObsScope obs_run(obsf, argc, argv);
  obs_run.set_int("threads", threads);
  obs_run.set_int("seed", seed);
  obs_run.set_double("eps", eps);
  if (full) {
    kmax = 32;
    kstep = 2;
  }

  util::Table table({"k", "fat loc", "fat weak", "flat loc", "flat weak", "2stage loc",
                     "2stage weak", "random loc", "random weak"});
  for (std::uint32_t k : bench::k_values(kmax, kstep)) {
    if (k * k * k / 4 < cluster) continue;  // network smaller than one cluster
    core::FlatTreeNetwork net = bench::profiled_network(k);
    topo::Topology flat = net.build(core::Mode::LocalRandom);
    topo::FatTree ft = topo::build_fat_tree(k);
    util::Rng rg_rng(static_cast<std::uint64_t>(seed) * 523 + k);
    topo::Topology rg = topo::build_jellyfish_like_fat_tree(k, rg_rng);
    topo::Topology ts = topo::build_two_stage_random_graph(k, rg_rng);
    bench::check_topology(flat, "flat-tree(local)");
    bench::check_topology(ft.topo, "fat-tree");
    bench::check_topology(rg, "random-graph");
    bench::check_topology(ts, "two-stage-random");
    bench::check_parity(ft.topo, flat, "fat-tree vs flat-tree(local)");

    auto mean = [&](const topo::Topology& t, workload::Placement placement) {
      return bench::mean_cluster_throughput(
          t, static_cast<std::uint32_t>(cluster), placement, workload::Pattern::AllToAll,
          k * k / 4, eps, static_cast<std::uint64_t>(seed) * 499 + k,
          static_cast<std::uint32_t>(seeds));
    };
    table.begin_row();
    table.integer(k);
    table.num(mean(ft.topo, workload::Placement::Locality), 5);
    table.num(mean(ft.topo, workload::Placement::WeakLocality), 5);
    table.num(mean(flat, workload::Placement::Locality), 5);
    table.num(mean(flat, workload::Placement::WeakLocality), 5);
    table.num(mean(ts, workload::Placement::Locality), 5);
    table.num(mean(ts, workload::Placement::WeakLocality), 5);
    table.num(mean(rg, workload::Placement::Locality), 5);
    table.num(mean(rg, workload::Placement::WeakLocality), 5);
    std::fprintf(stderr, "[fig8] k=%u done\n", k);
  }
  table.print("Figure 8: all-to-all throughput in 20-server clusters");
  std::puts("Paper shape: flat-tree ~= two-stage random (ahead for k <= 14); fat-tree\n"
            "strong under locality but collapses under weak locality; random graph\n"
            "moderate and least sensitive.");
  return bench::selfcheck_exit();
}
