// Figure 6: average path length of server pairs in the same pod.
//
// Flat-tree operates as approximated local random graphs (half the servers
// on edge switches, half on aggregation). Baselines: fat-tree, the global
// random graph (whose "pod" servers scatter network-wide), and the
// two-stage random graph. Paper shape: flat-tree lowest (it even beats
// two-stage RG thanks to the regular edge-aggregation mesh), then
// fat-tree, then two-stage, with the global random graph worst.

#include <cstdio>

#include "common.hpp"
#include "topo/apl.hpp"
#include "topo/fat_tree.hpp"
#include "topo/random_graph.hpp"
#include "topo/two_stage.hpp"

using namespace flattree;

namespace {

/// Server id groups corresponding to the fat-tree pods (the same logical
/// services, wherever each topology physically placed them).
std::vector<std::vector<topo::ServerId>> pod_groups(std::uint32_t k) {
  const std::uint32_t per_pod = k * k / 4;
  std::vector<std::vector<topo::ServerId>> groups(k);
  for (topo::ServerId s = 0; s < k * k * k / 4; ++s) groups[s / per_pod].push_back(s);
  return groups;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t kmax = 32, kstep = 2, seed = 1;
  util::CliParser cli(
      "Figure 6 reproduction: intra-pod server-pair average path length vs k.");
  cli.add_int("kmax", &kmax, bench::kKmax, "largest fat-tree parameter k");
  cli.add_int("kstep", &kstep, bench::kKstep, "k sweep step");
  cli.add_int("seed", &seed, bench::kRngSeed, "random graph seed");
  bench::Run run(cli, argc, argv);
  if (!run.parsed()) return cli.exit_code();
  run.set_int("seed", seed);

  util::Table table({"k", "flat-tree(local)", "fat-tree", "random-graph",
                     "two-stage-random"});
  for (std::uint32_t k : bench::k_values(kmax, kstep)) {
    auto groups = pod_groups(k);
    core::FlatTreeNetwork net = bench::profiled_network(k);
    util::Rng rng(static_cast<std::uint64_t>(seed) * 131 + k);

    topo::Topology local = net.build(core::Mode::LocalRandom);
    topo::Topology fat = topo::build_fat_tree(k).topo;
    topo::Topology rg = topo::build_jellyfish_like_fat_tree(k, rng);
    topo::Topology two_stage = topo::build_two_stage_random_graph(k, rng);
    bench::check_topology(local, "flat-tree(local)");
    bench::check_topology(fat, "fat-tree");
    bench::check_topology(rg, "random-graph");
    bench::check_topology(two_stage, "two-stage-random");
    bench::check_parity(fat, local, "fat-tree vs flat-tree(local)");

    table.begin_row();
    table.integer(k);
    table.num(topo::server_apl_grouped(local, groups).average);
    table.num(topo::server_apl_grouped(fat, groups).average);
    table.num(topo::server_apl_grouped(rg, groups).average);
    table.num(topo::server_apl_grouped(two_stage, groups).average);
  }
  table.print("Figure 6: average path length of server pairs in each pod");
  std::puts("Paper shape: flat-tree < fat-tree < two-stage random < random graph.");
  return bench::selfcheck_exit();
}
