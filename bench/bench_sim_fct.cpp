// Extension: flow-completion-time study on the flow-level simulator.
//
// The paper's control-plane section prescribes ECMP for Clos mode and
// k-shortest-paths for random-graph modes. This bench quantifies that
// pairing: mean/median/p99 FCT for a Poisson workload of heavy-tailed
// flows on (a) fat-tree + ECMP, (b) flat-tree global RG + KSP, and the
// mismatched combinations as the ablation.

#include <cstdio>

#include "common.hpp"
#include "routing/ecmp.hpp"
#include "routing/fib.hpp"
#include "routing/ksp_routing.hpp"
#include "sim/flow_gen.hpp"
#include "sim/flow_sim.hpp"
#include "topo/fat_tree.hpp"
#include "util/stats.hpp"

using namespace flattree;

namespace {

void report(util::Table& table, const std::string& name, const topo::Topology& t,
            routing::Routing& routing, const std::vector<sim::SimFlow>& flows) {
  sim::FlowSimulator simulator(t, routing);
  auto records = simulator.run(flows);
  std::vector<double> fcts;
  util::Accumulator hops;
  fcts.reserve(records.size());
  for (const auto& r : records) {
    fcts.push_back(r.fct());
    hops.add(r.hops);
  }
  util::Distribution dist(std::move(fcts));
  table.begin_row();
  table.add(name);
  table.num(dist.mean(), 4);
  table.num(dist.median(), 4);
  table.num(dist.quantile(0.99), 4);
  table.num(hops.mean(), 3);
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t k = 8, flows = 2000, seed = 1;
  double load = 4.0;
  std::int64_t threads = 0;
  util::CliParser cli("Extension: flow-level FCT for routing/topology pairings.");
  cli.add_int("k", &k, "fat-tree parameter");
  cli.add_int("flows", &flows, "number of flows to simulate");
  cli.add_double("load", &load, "Poisson arrival rate (flows per unit time)");
  cli.add_int("seed", &seed, "RNG seed");
  bool selfcheck = false;
  bench::add_threads_flag(cli, &threads);
  bench::add_selfcheck_flag(cli, &selfcheck);
  bench::ObsFlags obsf;
  bench::add_obs_flags(cli, &obsf);
  if (!cli.parse(argc, argv)) return cli.exit_code();
  if (!bench::k_in_range("bench_sim_fct", k)) return 2;
  bench::apply_threads(threads);
  bench::apply_selfcheck(selfcheck);
  bench::ObsScope obs_run(obsf, argc, argv);
  obs_run.set_int("threads", threads);
  obs_run.set_int("seed", seed);

  const std::uint32_t ku = static_cast<std::uint32_t>(k);
  topo::FatTree ft = topo::build_fat_tree(ku);
  core::FlatTreeNetwork net = bench::profiled_network(ku);
  topo::Topology grg = net.build(core::Mode::GlobalRandom);
  bench::check_topology(ft.topo, "fat-tree");
  bench::check_topology(grg, "flat-tree(global)");
  bench::check_parity(ft.topo, grg, "fat-tree vs flat-tree");

  util::Rng rng(static_cast<std::uint64_t>(seed));
  sim::FlowSizeDist dist;
  auto workload = sim::poisson_flows(static_cast<std::uint32_t>(flows), load,
                                     static_cast<std::uint32_t>(ft.topo.server_count()),
                                     dist, rng);

  util::Table table({"topology+routing", "mean FCT", "median FCT", "p99 FCT", "mean hops"});
  {
    routing::EcmpRouting ecmp(ft.topo.graph());
    report(table, "fat-tree + ECMP", ft.topo, ecmp, workload);
  }
  {
    routing::KspRouting ksp(ft.topo.graph(), 8);
    report(table, "fat-tree + KSP8", ft.topo, ksp, workload);
  }
  {
    routing::EcmpRouting ecmp(grg.graph());
    report(table, "flat-tree(gRG) + ECMP", grg, ecmp, workload);
  }
  {
    routing::KspRouting ksp(grg.graph(), 8);
    // Yen invariants on a sample of switch pairs: loopless, distinct,
    // length-sorted path sets.
    if (bench::selfcheck_enabled()) {
      auto pairs = routing::all_server_pairs(grg);
      for (std::size_t i = 0; i < pairs.size(); i += 97) {
        auto [src, dst] = pairs[i];
        bench::selfcheck_record(
            check::validate_paths(grg.graph(), src, dst, ksp.paths(src, dst)), "ksp");
      }
    }
    report(table, "flat-tree(gRG) + KSP8", grg, ksp, workload);
  }
  table.print("Extension: flow-completion time by topology and routing scheme");
  std::puts("Expected: the converted flat-tree shortens paths (lower mean hops) and\n"
            "KSP exploits its path diversity; ECMP suffices on the Clos fat-tree.");
  return bench::selfcheck_exit();
}
