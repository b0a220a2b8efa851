// Differential test: PacketSimulator::run against the two-heap reference
// loop in packet_sim_oracle.hpp. The configs cross fat-tree, flat-tree
// (global and local random) and Jellyfish at k=4 with equal-cost and WCMP
// tables and KSP4 source routes, queue capacities 0/1/4/16, ecn off/on,
// flowlet_gap 0/0.5 and equal or staggered starts, two draws per cell; the
// flows, NIC rate, propagation delay and ECN threshold of each config are
// drawn from Rng::substream. The 512 table configs take substreams 0..511
// and the routed ones follow. Every PacketStats field must match exactly.

#include "packet_sim_oracle.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/flat_tree.hpp"
#include "routing/ecmp.hpp"
#include "routing/fib.hpp"
#include "routing/ksp_routing.hpp"
#include "sim/packet_sim.hpp"
#include "te/wcmp.hpp"
#include "topo/fat_tree.hpp"
#include "topo/random_graph.hpp"
#include "util/rng.hpp"

namespace flattree::sim {
namespace {

constexpr std::uint64_t kSeed = 0x64657364696666ULL;

struct Fabric {
  std::string name;
  topo::Topology topo;
  std::unique_ptr<te::WeightedFib> ecmp;
  std::unique_ptr<te::WeightedFib> wcmp;
};

std::vector<Fabric> fabrics() {
  core::FlatTreeNetwork net{core::FlatTreeConfig{4}};
  util::Rng rng(11);
  std::vector<Fabric> out;
  out.push_back({"fat-tree", topo::build_fat_tree(4).topo, nullptr, nullptr});
  out.push_back({"flat-global", net.build(core::Mode::GlobalRandom), nullptr, nullptr});
  out.push_back({"flat-local", net.build(core::Mode::LocalRandom), nullptr, nullptr});
  out.push_back({"jellyfish", topo::build_jellyfish_like_fat_tree(4, rng), nullptr, nullptr});
  for (Fabric& f : out) {
    routing::EcmpRouting routing(f.topo.graph());
    auto pairs = routing::all_server_pairs(f.topo);
    f.ecmp = std::make_unique<te::WeightedFib>(te::compile_fib(f.topo, routing, pairs));
    f.wcmp = std::make_unique<te::WeightedFib>(te::compile_wcmp_paths(f.topo, routing, pairs));
  }
  return out;
}

void expect_same(const PacketStats& got, const PacketStats& want) {
  EXPECT_EQ(got.injected, want.injected);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.mean_delay, want.mean_delay);
  EXPECT_EQ(got.max_delay, want.max_delay);
  EXPECT_EQ(got.p99_delay, want.p99_delay);
  EXPECT_EQ(got.finish_time, want.finish_time);
  EXPECT_EQ(got.fct_mean, want.fct_mean);
  EXPECT_EQ(got.fct_p50, want.fct_p50);
  EXPECT_EQ(got.fct_p99, want.fct_p99);
  EXPECT_EQ(got.fct_max, want.fct_max);
  EXPECT_EQ(got.ecn_marked, want.ecn_marked);
  EXPECT_EQ(got.window_cuts, want.window_cuts);
  EXPECT_EQ(got.flowlet_switches, want.flowlet_switches);
  EXPECT_EQ(got.mean_queue, want.mean_queue);
  EXPECT_EQ(got.max_queue, want.max_queue);
}

enum class Table { Ecmp, Wcmp, Ksp4 };

TEST(PacketSimDiff, MatchesTwoHeapOracleBitForBit) {
  constexpr std::uint64_t kTableConfigs = 512;
  const std::vector<Fabric> fabs = fabrics();
  std::vector<routing::KspRouting> ksp;
  ksp.reserve(fabs.size());
  for (const Fabric& f : fabs) ksp.emplace_back(f.topo.graph(), 4);
  std::uint64_t table_configs = 0, routed_configs = 0, routed_hops = 0;
  std::uint64_t routed_dropped = 0, routed_marked = 0;
  std::uint64_t dropped = 0, marked = 0, flowlet_switches = 0;
  for (std::size_t fab = 0; fab < fabs.size(); ++fab)
    for (Table table : {Table::Ecmp, Table::Wcmp, Table::Ksp4})
      for (std::size_t queue : {0, 1, 4, 16})
        for (bool ecn : {false, true})
          for (int draw : {0, 1})
            for (double gap : {0.0, 0.5})
              for (bool staggered : {false, true}) {
                const Fabric& f = fabs[fab];
                const bool routed = table == Table::Ksp4;
                util::Rng rng = util::Rng::substream(
                    kSeed, routed ? kTableConfigs + routed_configs++ : table_configs++);
                PacketSimConfig cfg;
                cfg.queue_packets = queue;
                cfg.ecn = ecn;
                cfg.flowlet_gap = gap;
                cfg.nic_rate = rng.chance(0.5) ? 1.0 : 4.0;
                cfg.propagation_delay = rng.chance(0.5) ? 0.0 : 0.01;
                cfg.ecn_threshold = 1 + rng.index(4);
                const auto servers = static_cast<std::size_t>(f.topo.server_count());
                std::vector<PacketFlow> flows;
                const std::size_t n = 2 + rng.index(7);
                const auto hot = static_cast<topo::ServerId>(rng.index(servers));
                for (std::size_t i = 0; i < n; ++i) {
                  auto src = static_cast<topo::ServerId>(rng.index(servers));
                  // Half the flows converge on one server so queues fill.
                  auto dst = rng.chance(0.5) ? hot
                                             : static_cast<topo::ServerId>(rng.index(servers));
                  if (src == dst) src = static_cast<topo::ServerId>((src + 1) % servers);
                  const auto packets = static_cast<std::uint32_t>(rng.index(25));
                  // Equal starts mix 0.0 and -0.0, which must tie in the
                  // heap; staggered ones reach below zero.
                  const double start = staggered
                                           ? 0.25 * (static_cast<double>(rng.index(12)) - 2.0)
                                           : (rng.chance(0.5) ? 0.0 : -0.0);
                  flows.push_back({src, dst, packets, start});
                  const topo::NodeId a = f.topo.host(src), b = f.topo.host(dst);
                  if (routed && a != b) {
                    flows.back().paths = &ksp[fab].paths(a, b);
                    routed_hops += flows.back().paths->front().links.size();
                  }
                }
                const char* table_name = table == Table::Ecmp   ? "/ecmp"
                                         : table == Table::Wcmp ? "/wcmp"
                                                                : "/ksp4";
                SCOPED_TRACE(f.name + table_name + " queue " +
                             std::to_string(queue) + (ecn ? " ecn" : " drop-tail") + " draw " +
                             std::to_string(draw) + " gap " + std::to_string(gap) +
                             (staggered ? " staggered" : " equal"));
                // Routed flows never read the table; same-switch pairs
                // are delivered at zero hops without it.
                const te::WeightedFib& fib = table == Table::Wcmp ? *f.wcmp : *f.ecmp;
                const PacketStats got = PacketSimulator(f.topo, fib, cfg).run(flows);
                expect_same(got, oracle::oracle_run(f.topo, fib, cfg, flows));
                dropped += got.dropped;
                if (routed) {
                  routed_dropped += got.dropped;
                  routed_marked += got.ecn_marked;
                }
                marked += got.ecn_marked;
                flowlet_switches += got.flowlet_switches;
              }
  EXPECT_EQ(table_configs, kTableConfigs);
  EXPECT_EQ(routed_configs, kTableConfigs / 2);
  EXPECT_GT(routed_hops, 0u);
  EXPECT_GT(routed_dropped, 0u);
  EXPECT_GT(routed_marked, 0u);
  // The matrix must reach the branches it is meant to compare.
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(marked, 0u);
  EXPECT_GT(flowlet_switches, 0u);
}

}  // namespace
}  // namespace flattree::sim
