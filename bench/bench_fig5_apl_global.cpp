// Figure 5: average path length of server pairs in the entire network.
//
// Series (as in the paper): fat-tree, random graph, and flat-tree in
// global-random-graph mode under the (m, n) sweep {k/8, 2k/8, 3k/8} with
// m + n <= k/2. The paper's conclusion: (m, n) = (k/8, 2k/8) minimizes the
// APL, landing within ~5% of the random graph and well below fat-tree.

#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "topo/apl.hpp"
#include "topo/fat_tree.hpp"
#include "topo/random_graph.hpp"

using namespace flattree;

namespace {

std::uint32_t eighth(std::uint32_t k, std::uint32_t mult) {
  return static_cast<std::uint32_t>(
      std::lround(static_cast<double>(mult) * static_cast<double>(k) / 8.0));
}

double flat_tree_apl(std::uint32_t k, std::uint32_t m, std::uint32_t n,
                     const topo::Topology* parity_ref) {
  core::FlatTreeConfig cfg;
  cfg.k = k;
  cfg.m = m;
  cfg.n = n;
  core::FlatTreeNetwork net(cfg);
  topo::Topology t = net.build(core::Mode::GlobalRandom);
  bench::check_topology(t, "flat-tree(global)");
  if (parity_ref != nullptr)
    bench::check_parity(*parity_ref, t, "fat-tree vs flat-tree");
  return topo::server_apl(t).average;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t kmax = 32, kstep = 2, seed = 1, rg_seeds = 1;
  bool full = false;
  util::CliParser cli(
      "Figure 5 reproduction: network-wide server-pair average path length vs k.");
  cli.add_int("kmax", &kmax, bench::kKmax, "largest fat-tree parameter k");
  cli.add_int("kstep", &kstep, bench::kKstep, "k sweep step");
  cli.add_int("seed", &seed, bench::kRngSeed, "random graph seed");
  cli.add_int("rg-seeds", &rg_seeds, bench::kSeeds, "random-graph draws to average");
  cli.add_bool("full", &full, "paper-scale sweep (k to 32 step 2; the default already is)");
  bench::Run run(cli, argc, argv);
  if (!run.parsed()) return cli.exit_code();
  run.set_int("seed", seed);
  if (full) {
    kmax = 32;
    kstep = 2;
  }

  // The paper's five flat-tree settings, as (m multiplier, n multiplier)
  // in units of k/8.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> settings{
      {1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2}};

  std::vector<std::string> headers{"k", "fat-tree", "random-graph"};
  for (auto [mm, nm] : settings)
    headers.push_back("flat(m=" + std::to_string(mm) + "k/8,n=" + std::to_string(nm) +
                      "k/8)");
  util::Table table(headers);

  for (std::uint32_t k : bench::k_values(kmax, kstep)) {
    table.begin_row();
    table.integer(k);
    topo::Topology fat = topo::build_fat_tree(k).topo;
    bench::check_topology(fat, "fat-tree");
    table.num(topo::server_apl(fat).average);
    double rg_sum = 0.0;
    for (std::int64_t s = 0; s < rg_seeds; ++s) {
      util::Rng rng(static_cast<std::uint64_t>(seed + s) * 1009 + k);
      topo::Topology rg = topo::build_jellyfish_like_fat_tree(k, rng);
      bench::check_topology(rg, "random-graph");
      rg_sum += topo::server_apl(rg).average;
    }
    table.num(rg_sum / static_cast<double>(rg_seeds));
    for (auto [mm, nm] : settings) {
      std::uint32_t m = std::max(1u, eighth(k, mm));
      std::uint32_t n = std::max(1u, eighth(k, nm));
      if (m + n > k / 2) {
        table.add("-");  // infeasible at this k (m + n > k/2)
        continue;
      }
      table.num(flat_tree_apl(k, m, n, &fat));
    }
  }
  table.print("Figure 5: average path length of server pairs (entire network)");
  std::puts("Paper shape: flat-tree(m=k/8, n=2k/8) within ~5% of random graph,\n"
            "both well below fat-tree (~5.5-5.9).");
  return bench::selfcheck_exit();
}
