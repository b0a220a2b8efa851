// Cross-mode invariants of materialized flat-tree topologies, swept over
// (k, m, n, wiring pattern, chain, mode). These encode the paper's
// Section 2.3 wiring Properties 1 and 2, port-budget feasibility, and the
// conservation laws that make conversions physically realizable.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>

#include "core/flat_tree.hpp"
#include "graph/adjacent.hpp"
#include "topo/fat_tree.hpp"
#include "topo/topo_helpers.hpp"

namespace flattree::core {
namespace {

struct Case {
  std::uint32_t k;
  std::uint32_t m;
  std::uint32_t n;
  WiringPattern pattern;
  PodChain chain;
};

std::vector<Case> sweep_cases() {
  std::vector<Case> cases;
  for (std::uint32_t k : {4u, 6u, 8u, 10u, 12u, 16u}) {
    std::uint32_t dm = FlatTreeConfig::default_m(k);
    std::uint32_t dn = FlatTreeConfig::default_n(k);
    cases.push_back({k, dm, dn, WiringPattern::Auto, PodChain::Ring});
  }
  // Pattern and chain variants at a fixed size.
  cases.push_back({8, 1, 2, WiringPattern::Pattern1, PodChain::Ring});
  cases.push_back({8, 1, 2, WiringPattern::Pattern2, PodChain::Ring});
  cases.push_back({8, 1, 2, WiringPattern::Auto, PodChain::Linear});
  cases.push_back({12, 2, 3, WiringPattern::Pattern1, PodChain::Linear});
  // m/n extremes.
  cases.push_back({8, 0, 2, WiringPattern::Auto, PodChain::Ring});   // no 6-port
  cases.push_back({8, 2, 0, WiringPattern::Auto, PodChain::Ring});   // no 4-port
  cases.push_back({8, 2, 2, WiringPattern::Auto, PodChain::Ring});   // m+n = k/2
  cases.push_back({16, 4, 4, WiringPattern::Auto, PodChain::Ring});  // m = w
  return cases;
}

class ModeSweep : public ::testing::TestWithParam<std::tuple<Case, Mode>> {
 protected:
  FlatTreeNetwork make_network() const {
    const Case& c = std::get<0>(GetParam());
    FlatTreeConfig cfg;
    cfg.k = c.k;
    cfg.m = c.m;
    cfg.n = c.n;
    cfg.pattern = c.pattern;
    cfg.chain = c.chain;
    return FlatTreeNetwork(cfg);
  }
};

TEST_P(ModeSweep, MaterializesValidTopology) {
  FlatTreeNetwork net = make_network();
  // materialize() calls Topology::validate() internally (ports, connected).
  EXPECT_NO_THROW(net.build(std::get<1>(GetParam())));
}

TEST_P(ModeSweep, EveryPortBudgetExactlyFull) {
  FlatTreeNetwork net = make_network();
  topo::Topology t = net.build(std::get<1>(GetParam()));
  // Conversion conserves ports: every switch stays exactly full, as in
  // the fat-tree it was built from.
  for (graph::NodeId v = 0; v < t.switch_count(); ++v)
    EXPECT_EQ(topo::used_ports(t, v), net.config().k) << "switch " << v;
}

TEST_P(ModeSweep, LinkAndServerCountsConserved) {
  FlatTreeNetwork net = make_network();
  topo::Topology t = net.build(std::get<1>(GetParam()));
  const std::uint32_t k = net.config().k;
  EXPECT_EQ(t.server_count(), k * k * k / 4);
  // Side/cross turn 2 core connectors into server attachments but add 2
  // side links, so the link count always equals fat-tree's.
  EXPECT_EQ(t.link_count(), 2u * k * (k / 2) * (k / 2));
}

TEST_P(ModeSweep, EdgeAggregationMeshNeverRewired) {
  FlatTreeNetwork net = make_network();
  topo::Topology t = net.build(std::get<1>(GetParam()));
  const auto& p = net.params();
  for (std::uint32_t pod = 0; pod < p.pods(); ++pod)
    for (std::uint32_t j = 0; j < p.d(); ++j)
      for (std::uint32_t i = 0; i < p.aggs_per_pod(); ++i)
        EXPECT_TRUE(graph::adjacent(t.graph(), net.edge_switch(pod, j), net.agg_switch(pod, i)));
}

TEST_P(ModeSweep, ServerDistributionMatchesMode) {
  FlatTreeNetwork net = make_network();
  Mode mode = std::get<1>(GetParam());
  topo::Topology t = net.build(mode);
  const auto& p = net.params();
  const std::uint32_t m = net.config().m, n = net.config().n;

  std::size_t on_edge = 0, on_agg = 0, on_core = 0;
  for (topo::ServerId s = 0; s < t.server_count(); ++s) {
    switch (t.info(t.host(s)).kind) {
      case topo::SwitchKind::Edge: ++on_edge; break;
      case topo::SwitchKind::Aggregation: ++on_agg; break;
      case topo::SwitchKind::Core: ++on_core; break;
    }
  }
  const std::size_t pairs = p.pods() * p.d();  // (edge, agg) pairs network-wide
  switch (mode) {
    case Mode::Clos:
      EXPECT_EQ(on_edge, t.server_count());
      EXPECT_EQ(on_agg, 0u);
      EXPECT_EQ(on_core, 0u);
      break;
    case Mode::LocalRandom:
      EXPECT_EQ(on_agg, pairs * n);
      EXPECT_EQ(on_core, 0u);
      EXPECT_EQ(on_edge, t.server_count() - pairs * n);
      break;
    case Mode::GlobalRandom: {
      EXPECT_EQ(on_agg + on_core, pairs * (m + n));
      EXPECT_GE(on_agg, pairs * n);  // unpaired 6-ports fall back to Local
      // With a ring chain every 6-port is paired, so the counts are exact
      // (odd-d pods keep one middle column unpaired per blade).
      if (net.config().chain == PodChain::Ring && p.d() % 2 == 0) {
        EXPECT_EQ(on_core, pairs * m);
      }
      break;
    }
  }
}

TEST_P(ModeSweep, Property1ServersUniformAcrossCores) {
  // Paper Property 1: servers are distributed uniformly across the core
  // switches in global-random mode (where blade B relocates servers to
  // cores). Exactly 2m servers per core whenever every 6-port converter is
  // paired (ring chain, even d) and the resolved rotation is
  // server-uniform — which resolve_pattern(Auto) guarantees.
  FlatTreeNetwork net = make_network();
  Mode mode = std::get<1>(GetParam());
  if (mode != Mode::GlobalRandom) GTEST_SKIP();
  const Case& c = std::get<0>(GetParam());
  if (c.chain != PodChain::Ring || (c.k / 2) % 2 != 0 || c.m == 0) GTEST_SKIP();
  const std::uint32_t group = net.params().h() / net.params().r();
  if (!pattern_server_uniform(net.pattern(), c.m, group))
    GTEST_SKIP() << "explicitly requested non-uniform pattern";

  topo::Topology t = net.build(mode);
  auto w = t.servers_per_switch();
  for (graph::NodeId v = 0; v < t.switch_count(); ++v) {
    if (t.info(v).kind != topo::SwitchKind::Core) continue;
    EXPECT_EQ(w[v], 2 * c.m) << "core " << v;
  }
}

TEST_P(ModeSweep, Property2CoreLinkTypesBalanced) {
  // Paper Property 2: core switches have equal numbers of links of the
  // same type. Check per-core counts of core-edge and core-aggregation
  // links stay within one rotation block of each other.
  FlatTreeNetwork net = make_network();
  Mode mode = std::get<1>(GetParam());
  topo::Topology t = net.build(mode);
  const Case& c = std::get<0>(GetParam());

  std::vector<std::uint32_t> edge_links(t.switch_count(), 0);
  std::vector<std::uint32_t> agg_links(t.switch_count(), 0);
  for (const auto& link : t.graph().links()) {
    for (auto [self, other] : {std::pair{link.a, link.b}, std::pair{link.b, link.a}}) {
      if (t.info(self).kind != topo::SwitchKind::Core) continue;
      if (t.info(other).kind == topo::SwitchKind::Edge) ++edge_links[self];
      if (t.info(other).kind == topo::SwitchKind::Aggregation) ++agg_links[self];
    }
  }
  std::uint32_t e_lo = ~0u, e_hi = 0, a_lo = ~0u, a_hi = 0;
  for (graph::NodeId v = 0; v < t.switch_count(); ++v) {
    if (t.info(v).kind != topo::SwitchKind::Core) continue;
    e_lo = std::min(e_lo, edge_links[v]);
    e_hi = std::max(e_hi, edge_links[v]);
    a_lo = std::min(a_lo, agg_links[v]);
    a_hi = std::max(a_hi, agg_links[v]);
  }
  const std::uint32_t k = net.config().k;
  if (mode == Mode::Clos) {
    EXPECT_EQ(e_hi, 0u);  // Clos has no edge-core links
    EXPECT_EQ(a_lo, k);
    EXPECT_EQ(a_hi, k);
    return;
  }
  // Exact balance needs all 6-ports paired and a fully uniform rotation:
  // every connector family (blade B, blade A, aggregation) lands uniformly
  // when the rotation step's gcd with the group size divides both m and n.
  const std::uint32_t group = net.params().h() / net.params().r();
  const std::uint32_t step = net.pattern() == WiringPattern::Pattern1 ? c.m : c.m + 1;
  std::uint32_t stride = std::gcd(step % group, group);
  if (stride == 0) stride = group;
  const bool fully_uniform = c.m % stride == 0 && c.n % stride == 0;
  if (!fully_uniform || c.chain != PodChain::Ring || (c.k / 2) % 2 != 0)
    GTEST_SKIP() << "non-uniform rotation or unpaired blades: balance is approximate";
  if (mode == Mode::LocalRandom) {
    EXPECT_EQ(e_lo, 2 * c.n);
    EXPECT_EQ(e_hi, 2 * c.n);
    EXPECT_EQ(a_lo, k - 2 * c.n);
    EXPECT_EQ(a_hi, k - 2 * c.n);
  } else {  // GlobalRandom
    EXPECT_EQ(e_lo, 2 * c.n);
    EXPECT_EQ(e_hi, 2 * c.n);
    EXPECT_EQ(a_lo, k - 2 * c.m - 2 * c.n);
    EXPECT_EQ(a_hi, k - 2 * c.m - 2 * c.n);
  }
}

TEST_P(ModeSweep, LinkOriginsMatchMode) {
  FlatTreeNetwork net = make_network();
  Mode mode = std::get<1>(GetParam());
  topo::Topology t = net.build(mode);
  std::size_t side = 0, converter_local = 0;
  for (graph::LinkId l = 0; l < t.link_count(); ++l) {
    switch (t.link_info(l).origin) {
      case topo::LinkOrigin::InterPodSide: ++side; break;
      case topo::LinkOrigin::ConverterLocal: ++converter_local; break;
      default: break;
    }
  }
  if (mode == Mode::Clos) {
    EXPECT_EQ(side, 0u);
    EXPECT_EQ(converter_local, 0u);
  }
  if (mode == Mode::LocalRandom) {
    EXPECT_EQ(side, 0u);
    const Case& c = std::get<0>(GetParam());
    EXPECT_EQ(converter_local, static_cast<std::size_t>(net.params().pods()) *
                                   net.params().d() * c.n);
  }
  if (mode == Mode::GlobalRandom) {
    const Case& c = std::get<0>(GetParam());
    if (c.m > 0 && c.chain == PodChain::Ring && c.k % 4 == 0) {
      EXPECT_GT(side, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModeSweep,
    ::testing::Combine(::testing::ValuesIn(sweep_cases()),
                       ::testing::Values(Mode::Clos, Mode::GlobalRandom,
                                         Mode::LocalRandom)),
    [](const ::testing::TestParamInfo<std::tuple<Case, Mode>>& info) {
      const Case& c = std::get<0>(info.param);
      std::string name = "k" + std::to_string(c.k) + "_m" + std::to_string(c.m) + "_n" +
                         std::to_string(c.n) + "_" +
                         std::string(to_string(c.pattern) == std::string("auto")
                                         ? "pauto"
                                         : to_string(c.pattern)) +
                         "_" + to_string(c.chain) + "_" + to_string(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(HybridMode, ZonedBuildValidatesAndKeepsCounts) {
  FlatTreeConfig cfg;
  cfg.k = 8;
  FlatTreeNetwork net(cfg);
  std::vector<Mode> modes(net.params().pods(), Mode::LocalRandom);
  for (std::uint32_t p = 0; p < 4; ++p) modes[p] = Mode::GlobalRandom;
  topo::Topology t = net.build(modes);
  EXPECT_EQ(t.link_count(), 2u * 8 * 4 * 4);
  for (graph::NodeId v = 0; v < t.switch_count(); ++v)
    EXPECT_EQ(topo::used_ports(t, v), 8u);
}

TEST(HybridMode, SideLinksOnlyInsideGlobalZone) {
  FlatTreeConfig cfg;
  cfg.k = 8;
  FlatTreeNetwork net(cfg);
  std::vector<Mode> modes(net.params().pods(), Mode::Clos);
  modes[2] = modes[3] = modes[4] = Mode::GlobalRandom;
  topo::Topology t = net.build(modes);
  for (graph::LinkId l = 0; l < t.link_count(); ++l) {
    if (t.link_info(l).origin != topo::LinkOrigin::InterPodSide) continue;
    const auto& link = t.graph().link(l);
    std::int32_t pa = t.info(link.a).pod, pb = t.info(link.b).pod;
    EXPECT_TRUE(modes[static_cast<std::uint32_t>(pa)] == Mode::GlobalRandom &&
                modes[static_cast<std::uint32_t>(pb)] == Mode::GlobalRandom);
  }
}

TEST(HybridMode, AllClosZoneEqualsPureClosLinks) {
  FlatTreeConfig cfg;
  cfg.k = 6;
  FlatTreeNetwork net(cfg);
  std::vector<Mode> modes(net.params().pods(), Mode::Clos);
  topo::Topology hybrid = net.build(modes);
  topo::Topology clos = net.build(Mode::Clos);
  EXPECT_EQ(hybrid.link_count(), clos.link_count());
  for (topo::ServerId s = 0; s < hybrid.server_count(); ++s)
    EXPECT_EQ(hybrid.host(s), clos.host(s));
}

}  // namespace
}  // namespace flattree::core
