// Figure 8: throughput of all-to-all traffic in 20-server clusters.
//
// Every server exchanges unit demands with every other member of its
// 20-server cluster. Locality packs clusters consecutively; weak locality
// packs them randomly within pods (the paper's fragmentation worst case).
// Paper shape: flat-tree (local RG mode) tracks the local-random ideal,
// beating the two-stage random graph for small networks (k <= 14) and
// staying within ~6-9% above; fat-tree is highly placement-sensitive;
// the global random graph sits in between and is the least sensitive.

#include <atomic>
#include <cstdio>
#include <utility>
#include <vector>

#include "common.hpp"
#include "topo/fat_tree.hpp"
#include "topo/random_graph.hpp"
#include "topo/two_stage.hpp"

using namespace flattree;

int main(int argc, char** argv) {
  std::int64_t kmax = 12, kstep = 4, cluster = 20, seeds = 1, seed = 1;
  double eps = 0.12;
  bool full = false;
  util::CliParser cli(
      "Figure 8 reproduction: all-to-all throughput in 20-server clusters.");
  cli.add_int("kmax", &kmax, bench::kKmax, "largest fat-tree parameter k");
  cli.add_int("kstep", &kstep, bench::kKstep, "k sweep step");
  cli.add_int("cluster", &cluster, bench::kCluster, "cluster size");
  cli.add_int("seeds", &seeds, bench::kSeeds, "placement draws to average");
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

  // One row per k. Rows build in parallel (each draws from its own
  // Rng(seed * 523 + k)), then the 8 cells of every row fan out over the
  // pool, largest k first so the slowest solves start early. Each cell's
  // inner seed fan-out runs sequentially inside its pool task, in seed
  // order, so every value is bit-identical at any thread count; the table
  // prints in row order afterwards. The cell that finishes a row reports
  // it on stderr, so a long run shows progress without touching stdout.
  struct Row {
    std::uint32_t k;
    topo::Topology topos[4];  ///< fat-tree, flat-tree (local), two-stage, random
  };
  std::vector<Row> rows;
  for (std::uint32_t k : bench::k_values(kmax, kstep))
    if (k * k * k / 4 >= cluster) rows.push_back({k, {}});  // else smaller than a cluster
  exec::parallel_for(rows.size(), [&](std::size_t r) {
    const std::uint32_t k = rows[r].k;
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
    rows[r].topos[0] = std::move(ft.topo);
    rows[r].topos[1] = std::move(flat);
    rows[r].topos[2] = std::move(ts);
    rows[r].topos[3] = std::move(rg);
  });

  constexpr workload::Placement kPlacements[2] = {workload::Placement::Locality,
                                                  workload::Placement::WeakLocality};
  std::vector<double> cells(rows.size() * 8);
  std::vector<std::atomic<std::uint32_t>> cells_left(rows.size());
  for (auto& left : cells_left) left.store(8);
  std::atomic<std::size_t> rows_done{0};
  exec::parallel_for(cells.size(), [&](std::size_t i) {
    const std::size_t c = cells.size() - 1 - i;
    const Row& row = rows[c / 8];
    const std::uint32_t k = row.k;
    cells[c] = bench::mean_cluster_throughput(
        row.topos[c % 8 / 2], static_cast<std::uint32_t>(cluster), kPlacements[c % 2],
        workload::Pattern::AllToAll, k * k / 4, eps,
        static_cast<std::uint64_t>(seed) * 499 + k, static_cast<std::uint32_t>(seeds));
    if (cells_left[c / 8].fetch_sub(1) == 1)
      std::fprintf(stderr, "bench_fig8_alltoall: k = %u done (%zu of %zu rows)\n", k,
                   rows_done.fetch_add(1) + 1, rows.size());
  });

  util::Table table({"k", "fat loc", "fat weak", "flat loc", "flat weak", "2stage loc",
                     "2stage weak", "random loc", "random weak"});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    table.begin_row();
    table.integer(rows[r].k);
    for (std::size_t col = 0; col < 8; ++col) table.num(cells[r * 8 + col], 5);
  }
  table.print("Figure 8: all-to-all throughput in 20-server clusters");
  std::puts("Paper shape: flat-tree ~= two-stage random (ahead for k <= 14); fat-tree\n"
            "strong under locality but collapses under weak locality; random graph\n"
            "moderate and least sensitive.");
  return bench::selfcheck_exit();
}
