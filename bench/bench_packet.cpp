// Extension: packet-level view of conversion — queueing delay and tail
// drops under bursty load, fat-tree vs converted flat-tree.
//
// Flow-level metrics (Figures 7/8) capture steady-state bandwidth; this
// bench injects synchronized packet trains (a shuffle-like burst) through
// equal-cost forwarding tables (te::compile_fib: ECMP next hops at weight
// 1) with finite queues, where shorter random-graph paths mean fewer
// serialization/queueing stages per packet.

#include <cstdio>

#include "common.hpp"
#include "routing/ecmp.hpp"
#include "routing/fib.hpp"
#include "sim/packet_sim.hpp"
#include "te/wcmp.hpp"
#include "topo/fat_tree.hpp"

using namespace flattree;

namespace {

void run_case(util::Table& table, const char* name, const topo::Topology& t,
              const std::vector<sim::PacketFlow>& flows, const sim::PacketSimConfig& cfg) {
  routing::EcmpRouting routing(t.graph());
  auto pairs = routing::all_server_pairs(t);
  te::WeightedFib fib = te::compile_fib(t, routing, pairs);
  // The equal-cost table is model-checked like any other: reachability,
  // strict hop-distance progress, loop-freedom and weight-1 rules.
  if (bench::selfcheck_enabled())
    bench::selfcheck_record(check::validate_weighted_fib(t, fib, pairs), "fib");
  sim::PacketSimulator simulator(t, fib, cfg);
  sim::PacketStats stats = simulator.run(flows);
  table.begin_row();
  table.add(name);
  table.integer(static_cast<std::int64_t>(stats.injected));
  table.num(100.0 * stats.loss_rate(), 2);
  table.num(stats.mean_delay, 3);
  table.num(stats.p99_delay, 3);
  table.num(stats.finish_time, 2);
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t k = 8, train = 24, seed = 1, queue = 16;
  double nic_rate = 4.0, prop_delay = 0.01;
  util::CliParser cli("Extension: packet-level burst behavior across conversions.");
  cli.add_int("k", &k, bench::kK, "fat-tree parameter");
  cli.add_int("train", &train, bench::kTrain, "packets per flow (burst length)");
  cli.add_int("queue-packets", &queue, {0, bench::kMaxU32},
              "output queue capacity in packets (0 = infinite)");
  cli.add_double("nic-rate", &nic_rate, util::DoubleRange::above(0.0),
                 "injection rate vs unit link capacity");
  cli.add_double("prop-delay", &prop_delay, util::DoubleRange::at_least(0.0),
                 "per-hop propagation delay");
  cli.add_int("seed", &seed, bench::kRngSeed, "RNG seed for the permutation");
  bench::Run run(cli, argc, argv);
  if (!run.parsed()) return cli.exit_code();
  run.set_int("seed", seed);

  const std::uint32_t ku = static_cast<std::uint32_t>(k);
  topo::FatTree ft = topo::build_fat_tree(ku);
  core::FlatTreeNetwork net = bench::profiled_network(ku);
  topo::Topology grg = net.build(core::Mode::GlobalRandom);
  bench::check_topology(ft.topo, "fat-tree");
  bench::check_topology(grg, "flat-tree(global)");
  bench::check_parity(ft.topo, grg, "fat-tree vs flat-tree");

  // Synchronized permutation burst: every server fires a train at t = 0.
  util::Rng rng(static_cast<std::uint64_t>(seed));
  auto demands = workload::permutation_traffic(net.params().total_servers(), rng);
  std::vector<sim::PacketFlow> flows;
  for (const auto& d : demands)
    flows.push_back({d.src, d.dst, static_cast<std::uint32_t>(train), 0.0});

  sim::PacketSimConfig cfg;
  cfg.queue_packets = static_cast<std::size_t>(queue);
  cfg.nic_rate = nic_rate;
  cfg.propagation_delay = prop_delay;

  util::Table table({"topology", "packets", "loss %", "mean delay", "p99 delay",
                     "finish time"});
  run_case(table, "fat-tree (clos)", ft.topo, flows, cfg);
  run_case(table, "flat-tree (global RG)", grg, flows, cfg);
  table.print("Extension: packet-level permutation burst");
  std::puts("Shorter converted paths reduce per-packet queueing stages; expect lower\n"
            "delay and earlier finish at comparable or lower loss.");
  return bench::selfcheck_exit();
}
