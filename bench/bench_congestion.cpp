// Extension: congestion behavior of the converted fabrics under WCMP +
// flowlet load balancing, drop-tail vs DCTCP (src/te, DESIGN.md §10).
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
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/json.hpp"
#include "routing/ecmp.hpp"
#include "routing/fib.hpp"
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

struct Topo {
  const char* name;
  const topo::Topology* topo;
  te::WeightedFib fib;
};

struct Load {
  const char* name;
  std::vector<sim::PacketFlow> flows;
};

struct Case {
  const char* topo;
  const char* workload;
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
  std::int64_t threads = 0;
  std::string summary_json;
  util::CliParser cli(
      "Extension: WCMP + flowlet congestion study, drop-tail vs DCTCP.");
  cli.add_int("k", &k, "fat-tree parameter");
  cli.add_int("train", &train, "packets per flow");
  cli.add_int("sources", &sources, "incast fan-in (senders to one sink)");
  cli.add_int("a2a", &a2a, "server subset size for the all-to-all workload");
  cli.add_int("queue-packets", &queue, "output queue capacity in packets (0 = infinite)");
  cli.add_double("nic-rate", &nic_rate, "injection rate vs unit link capacity");
  cli.add_double("prop-delay", &prop_delay, "per-hop propagation delay");
  cli.add_double("flowlet-gap", &flowlet_gap, "flowlet idle gap (<= 0 disables)");
  cli.add_int("ecn-threshold", &ecn_threshold, "ECN marking threshold K in packets");
  cli.add_int("seed", &seed, "RNG seed for workloads and random topologies");
  cli.add_string("summary-json", &summary_json,
                 "write the machine-readable summary to this path");
  bool selfcheck = false;
  bench::add_threads_flag(cli, &threads);
  bench::add_selfcheck_flag(cli, &selfcheck);
  bench::ObsFlags obsf;
  bench::add_obs_flags(cli, &obsf);
  if (!cli.parse(argc, argv)) return cli.exit_code();
  if (!bench::k_in_range("bench_congestion", k)) return 2;
  bench::apply_threads(threads);
  bench::apply_selfcheck(selfcheck);
  bench::ObsScope obs_run(obsf, argc, argv);
  obs_run.set_int("threads", threads);
  obs_run.set_int("seed", seed);

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
  topos.push_back({"fat-tree (clos)", &ft.topo, compile("wcmp/fat-tree", ft.topo)});
  topos.push_back({"flat-tree (global RG)", &grg, compile("wcmp/global", grg)});
  topos.push_back({"flat-tree (pod RG)", &prg, compile("wcmp/pod", prg)});
  topos.push_back({"jellyfish", &jelly, compile("wcmp/jellyfish", jelly)});

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

  // Fan the independent simulations over the pool; each case is a
  // single-threaded DES, so row values cannot depend on the fan-out.
  std::vector<Case> cases;
  for (const Topo& t : topos)
    for (const Load& load : loads)
      for (const char* scheme : {"drop-tail", "dctcp"})
        cases.push_back({t.name, load.name, scheme, {}});
  exec::parallel_for(cases.size(), [&](std::size_t i) {
    const std::size_t per_topo = loads.size() * 2;
    const Topo& t = topos[i / per_topo];
    const Load& load = loads[(i % per_topo) / 2];
    sim::PacketSimConfig cfg = base;
    cfg.ecn = (i % 2) == 1;
    sim::PacketSimulator simulator(*t.topo, t.fib, cfg);
    cases[i].stats = simulator.run(load.flows);
  });

  util::Table table({"topology", "workload", "scheme", "packets", "loss %", "mark %",
                     "fct p50", "fct p99", "mean queue", "max queue", "finish"});
  for (const Case& c : cases) {
    table.begin_row();
    table.add(c.topo);
    table.add(c.workload);
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
  table.print("Extension: congestion control on converted fabrics (WCMP + flowlet)");
  std::puts("Expected: DCTCP holds queues near the marking threshold (lower mean queue\n"
            "and loss than drop-tail at the same load); random-graph conversions spread\n"
            "the permutation/all-to-all load while incast stays sink-limited everywhere.");

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
      w.string_value(c.topo);
      w.key("workload");
      w.string_value(c.workload);
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
