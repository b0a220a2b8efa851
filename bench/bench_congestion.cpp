// Extension: congestion behavior of the converted fabrics under WCMP +
// flowlet load balancing, drop-tail vs DCTCP (src/te, DESIGN.md §10), and
// the paper's §2.6 routing pairing: the same runs source-routed over KSP.
//
// Three workloads stress different parts of the fabric at equal equipment
// cost: incast (N sources hammer one sink's edge link), a fabric-wide
// synchronized permutation burst, and all-to-all inside a random server
// subset. Each runs on four topologies — fat-tree, flat-tree converted
// globally and per-pod, and a Jellyfish-style random graph from the same
// switch inventory — twice: the drop-tail baseline and the DCTCP/ECN loop.
// The two schemes share the compiled WCMP FIB, flowlet table settings, and
// flow list, so rows differ only where the congestion control differs.
//
// The first 24 rows forward by the table. The next 24 repeat the matrix
// with every flow striped over its switch pair's k = 8 shortest paths
// (routing::KspRouting, Jellyfish's k; packet i takes path i mod 8, as 8
// MPTCP subflows under one window), scheme names suffixed "+ksp8". Path
// sets are built only for the pairs the flows use; same-switch pairs stay
// on the table (zero hops). --selfcheck runs check::validate_paths on each
// routed pair.
//
// Every simulation is single-threaded discrete-event time; --threads only
// fans independent cases over the pool, and rows are assembled into a
// fixed-order table, so stdout is byte-identical at any thread count.
//
// --summary-json=PATH writes the machine-readable summary (BENCH_te.json
// in CI, schema flattree.bench_te.v1).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/json.hpp"
#include "routing/ecmp.hpp"
#include "routing/fib.hpp"
#include "routing/ksp_routing.hpp"
#include "sim/packet_sim.hpp"
#include "te/te.hpp"
#include "topo/fat_tree.hpp"
#include "topo/random_graph.hpp"

using namespace flattree;

namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Load {
  const char* name;
  std::vector<sim::PacketFlow> flows;
};

struct Topo {
  const char* name;
  const topo::Topology* topo;
  te::WeightedFib fib;
  /// KSP8 path sets; `routed` flows point into its cache.
  std::unique_ptr<routing::KspRouting> ksp;
  std::vector<Load> routed;  ///< the shared loads, source-routed over `ksp`
};

struct Case {
  const Topo* topo;
  const Load* load;
  bool ecn;
  const char* scheme;
  sim::PacketStats stats;
};

std::vector<sim::PacketFlow> to_flows(const std::vector<mcf::ServerDemand>& demands,
                                      std::uint32_t train) {
  std::vector<sim::PacketFlow> flows;
  flows.reserve(demands.size());
  for (const auto& d : demands) flows.push_back({d.src, d.dst, train, 0.0});
  return flows;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t k = 8, train = 32, seed = 1, queue = 16, sources = 24, a2a = 12;
  std::int64_t ecn_threshold = 8;
  double nic_rate = 4.0, prop_delay = 0.01, flowlet_gap = 0.5;
  std::string summary_json;
  util::CliParser cli(
      "Extension: WCMP + flowlet congestion study, drop-tail vs DCTCP.");
  cli.add_int("k", &k, bench::kK, "fat-tree parameter");
  cli.add_int("train", &train, bench::kTrain, "packets per flow");
  cli.add_int("sources", &sources, {1, bench::kMaxU32}, "incast fan-in (senders to one sink)");
  cli.add_int("a2a", &a2a, {2, bench::kMaxU32},
              "server subset size for the all-to-all workload");
  cli.add_int("queue-packets", &queue, {0, bench::kMaxU32},
              "output queue capacity in packets (0 = infinite)");
  cli.add_double("nic-rate", &nic_rate, util::DoubleRange::above(0.0),
                 "injection rate vs unit link capacity");
  cli.add_double("prop-delay", &prop_delay, util::DoubleRange::at_least(0.0),
                 "per-hop propagation delay");
  cli.add_double("flowlet-gap", &flowlet_gap, util::DoubleRange::at_least(0.0),
                 "flowlet idle gap (0 disables)");
  cli.add_int("ecn-threshold", &ecn_threshold, {1, bench::kMaxU32},
              "ECN marking threshold K in packets");
  cli.add_int("seed", &seed, bench::kRngSeed, "RNG seed for workloads and random topologies");
  cli.add_string("summary-json", &summary_json,
                 "write the machine-readable summary to this path");
  bench::Run run(cli, argc, argv);
  if (!run.parsed()) return cli.exit_code();
  run.set_int("seed", seed);

  const std::uint32_t ku = static_cast<std::uint32_t>(k);
  topo::FatTree ft = topo::build_fat_tree(ku);
  core::FlatTreeNetwork net = bench::profiled_network(ku);
  topo::Topology grg = net.build(core::Mode::GlobalRandom);
  topo::Topology prg = net.build(core::Mode::LocalRandom);
  util::Rng jelly_rng = util::Rng::substream(static_cast<std::uint64_t>(seed), 7);
  topo::Topology jelly = topo::build_jellyfish_like_fat_tree(ku, jelly_rng);
  bench::check_topology(ft.topo, "fat-tree");
  bench::check_topology(grg, "flat-tree(global)");
  bench::check_topology(prg, "flat-tree(pod)");
  bench::check_parity(ft.topo, grg, "fat-tree vs flat-tree(global)");
  bench::check_parity(ft.topo, prg, "fat-tree vs flat-tree(pod)");

  // One WCMP FIB per topology from ECMP path multiplicities; the model
  // checker runs over every server pair under --selfcheck.
  auto compile = [&](const char* name, const topo::Topology& t) {
    routing::EcmpRouting ecmp(t.graph());
    auto pairs = routing::all_server_pairs(t);
    te::WeightedFib fib = te::compile_wcmp_paths(t, ecmp, pairs);
    if (bench::selfcheck_enabled())
      bench::selfcheck_record(check::validate_weighted_fib(t, fib, pairs), name);
    return fib;
  };
  std::vector<Topo> topos;
  topos.push_back({"fat-tree (clos)", &ft.topo, compile("wcmp/fat-tree", ft.topo), {}, {}});
  topos.push_back({"flat-tree (global RG)", &grg, compile("wcmp/global", grg), {}, {}});
  topos.push_back({"flat-tree (pod RG)", &prg, compile("wcmp/pod", prg), {}, {}});
  topos.push_back({"jellyfish", &jelly, compile("wcmp/jellyfish", jelly), {}, {}});

  // Shared workloads (server ids are equipment-parity comparable across
  // the four builds). All derive from substreams of --seed.
  const std::uint32_t total = net.params().total_servers();
  const std::uint64_t seed_u = static_cast<std::uint64_t>(seed);
  // Defaults are sized for k=8; smaller fabrics clamp the fan-in/subset so
  // every k the topology builders accept still runs.
  const std::uint32_t fan_in =
      std::min<std::uint32_t>(static_cast<std::uint32_t>(sources), total - 1);
  const std::size_t subset =
      std::min<std::size_t>(static_cast<std::size_t>(a2a), total);
  std::vector<Load> loads;
  loads.push_back({"incast", to_flows(workload::incast_pattern(total, fan_in, seed_u),
                                      static_cast<std::uint32_t>(train))});
  {
    util::Rng perm_rng = util::Rng::substream(seed_u, 3);
    loads.push_back({"permutation", to_flows(workload::permutation_traffic(total, perm_rng),
                                             static_cast<std::uint32_t>(train))});
  }
  {
    util::Rng pick = util::Rng::substream(seed_u, 4);
    std::vector<topo::ServerId> servers(total);
    for (std::uint32_t s = 0; s < total; ++s) servers[s] = s;
    pick.shuffle(servers);
    std::vector<sim::PacketFlow> flows;
    for (std::size_t i = 0; i < subset; ++i)
      for (std::size_t j = 0; j < subset; ++j)
        if (i != j)
          flows.push_back({servers[i], servers[j], static_cast<std::uint32_t>(train), 0.0});
    loads.push_back({"all-to-all", std::move(flows)});
  }

  sim::PacketSimConfig base;
  base.queue_packets = static_cast<std::size_t>(queue);
  base.nic_rate = nic_rate;
  base.propagation_delay = prop_delay;
  base.flowlet_gap = flowlet_gap;
  base.ecn_threshold = static_cast<std::size_t>(ecn_threshold);

  // The routed copies of the loads: each flow between distinct switches
  // stripes over its pair's KSP8 set (built once per pair, on first use).
  for (Topo& t : topos) {
    t.ksp = std::make_unique<routing::KspRouting>(t.topo->graph(), 8);
    for (const Load& load : loads) {
      Load routed{load.name, load.flows};
      for (sim::PacketFlow& flow : routed.flows) {
        const graph::NodeId a = t.topo->host(flow.src), b = t.topo->host(flow.dst);
        if (a == b) continue;
        flow.paths = &t.ksp->paths(a, b);
        if (bench::selfcheck_enabled())
          bench::selfcheck_record(check::validate_paths(t.topo->graph(), a, b, *flow.paths),
                                  "ksp8");
      }
      t.routed.push_back(std::move(routed));
    }
  }

  // Fan the independent simulations over the pool; each case is a
  // single-threaded DES, so row values cannot depend on the fan-out.
  std::vector<Case> cases;
  for (bool routed : {false, true})
    for (const Topo& t : topos)
      for (std::size_t l = 0; l < loads.size(); ++l) {
        const Load* load = routed ? &t.routed[l] : &loads[l];
        cases.push_back({&t, load, false, routed ? "drop-tail+ksp8" : "drop-tail", {}});
        cases.push_back({&t, load, true, routed ? "dctcp+ksp8" : "dctcp", {}});
      }
  exec::parallel_for(cases.size(), [&](std::size_t i) {
    sim::PacketSimConfig cfg = base;
    cfg.ecn = cases[i].ecn;
    sim::PacketSimulator simulator(*cases[i].topo->topo, cases[i].topo->fib, cfg);
    cases[i].stats = simulator.run(cases[i].load->flows);
  });

  util::Table table({"topology", "workload", "scheme", "packets", "loss %", "mark %",
                     "fct p50", "fct p99", "mean queue", "max queue", "finish"});
  for (const Case& c : cases) {
    table.begin_row();
    table.add(c.topo->name);
    table.add(c.load->name);
    table.add(c.scheme);
    table.integer(static_cast<std::int64_t>(c.stats.injected));
    table.num(100.0 * c.stats.loss_rate(), 2);
    table.num(100.0 * c.stats.mark_rate(), 2);
    table.num(c.stats.fct_p50, 3);
    table.num(c.stats.fct_p99, 3);
    table.num(c.stats.mean_queue, 3);
    table.num(c.stats.max_queue, 0);
    table.num(c.stats.finish_time, 2);
  }
  table.print("Extension: congestion control and routing on converted fabrics "
              "(WCMP + flowlet vs KSP8 source routes)");
  std::puts("Expected: DCTCP holds queues near the marking threshold (lower mean queue\n"
            "and loss than drop-tail at the same load); random-graph conversions spread\n"
            "the permutation/all-to-all load while incast stays sink-limited everywhere.\n"
            "Paper §2.6 pairs ECMP with Clos and KSP with the random-graph modes: the\n"
            "+ksp8 rows should gain most on the random graphs.");

  if (!summary_json.empty()) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("schema");
    w.string_value("flattree.bench_te.v1");
    w.key("k");
    w.int_value(k);
    w.key("seed");
    w.int_value(seed);
    w.key("train");
    w.int_value(train);
    w.key("queue_packets");
    w.int_value(queue);
    w.key("ecn_threshold");
    w.int_value(ecn_threshold);
    w.key("flowlet_gap");
    w.double_value(flowlet_gap);
    w.key("cases");
    w.begin_array();
    for (const Case& c : cases) {
      w.begin_object();
      w.key("topology");
      w.string_value(c.topo->name);
      w.key("workload");
      w.string_value(c.load->name);
      w.key("scheme");
      w.string_value(c.scheme);
      w.key("injected");
      w.uint_value(c.stats.injected);
      w.key("delivered");
      w.uint_value(c.stats.delivered);
      w.key("dropped");
      w.uint_value(c.stats.dropped);
      w.key("ecn_marked");
      w.uint_value(c.stats.ecn_marked);
      w.key("window_cuts");
      w.uint_value(c.stats.window_cuts);
      w.key("flowlet_switches");
      w.uint_value(c.stats.flowlet_switches);
      w.key("fct_p50");
      w.double_value(c.stats.fct_p50);
      w.key("fct_p99");
      w.double_value(c.stats.fct_p99);
      w.key("mean_queue");
      w.double_value(c.stats.mean_queue);
      w.key("max_queue");
      w.double_value(c.stats.max_queue);
      w.key("finish_time");
      w.double_value(c.stats.finish_time);
      w.end_object();
    }
    w.end_array();
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(fnv1a(table.to_csv())));
    w.key("digest");
    w.string_value(digest);
    w.end_object();
    std::ofstream f(summary_json);
    if (!f) {
      std::fprintf(stderr, "bench_congestion: cannot open --summary-json '%s'\n",
                   summary_json.c_str());
      return 2;
    }
    f << w.str() << '\n';
  }
  return bench::selfcheck_exit();
}
