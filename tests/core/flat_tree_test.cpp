#include "core/flat_tree.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "topo/fat_tree.hpp"

namespace flattree::core {
namespace {

using LinkKey = std::pair<topo::NodeId, topo::NodeId>;

std::map<LinkKey, std::size_t> link_multiset(const topo::Topology& t) {
  std::map<LinkKey, std::size_t> out;
  for (const auto& l : t.graph().links())
    ++out[{std::min(l.a, l.b), std::max(l.a, l.b)}];
  return out;
}

TEST(FlatTreeConfig, ProfiledDefaults) {
  EXPECT_EQ(FlatTreeConfig::default_m(8), 1u);
  EXPECT_EQ(FlatTreeConfig::default_n(8), 2u);
  EXPECT_EQ(FlatTreeConfig::default_m(16), 2u);
  EXPECT_EQ(FlatTreeConfig::default_n(16), 4u);
  EXPECT_EQ(FlatTreeConfig::default_m(12), 2u);  // 1.5 rounds to 2
  EXPECT_EQ(FlatTreeConfig::default_n(12), 3u);
  EXPECT_EQ(FlatTreeConfig::default_m(4), 1u);   // 0.5 rounds up
}

TEST(FlatTreeNetwork, RejectsBadParameters) {
  FlatTreeConfig cfg;
  cfg.k = 5;
  EXPECT_THROW(FlatTreeNetwork{cfg}, std::invalid_argument);
  cfg.k = 8;
  cfg.m = 3;
  cfg.n = 2;  // m + n > k/2
  EXPECT_THROW(FlatTreeNetwork{cfg}, std::invalid_argument);
}

TEST(FlatTreeNetwork, ConverterCountMatchesLayout) {
  FlatTreeConfig cfg;
  cfg.k = 8;
  cfg.m = 1;
  cfg.n = 2;
  FlatTreeNetwork net(cfg);
  // pods * d * (m+n) = 8 * 4 * 3.
  EXPECT_EQ(net.converters().size(), 96u);
}

TEST(FlatTreeNetwork, ConverterAttachmentsConsistent) {
  FlatTreeConfig cfg;
  cfg.k = 8;
  FlatTreeNetwork net(cfg);
  const auto& params = net.params();
  const std::uint32_t group = params.h() / params.r();
  for (const Converter& c : net.converters()) {
    // Edge and aggregation switches belong to the converter's pod.
    EXPECT_EQ(c.edge, net.edge_switch(c.pod, c.col));
    EXPECT_EQ(c.agg, net.agg_switch(c.pod, c.col / params.r()));
    // Core connector lands in edge j's core group.
    std::uint32_t core_index =
        c.core - net.core_switch(0);
    EXPECT_GE(core_index, c.col * group);
    EXPECT_LT(core_index, (c.col + 1) * group);
    // Tapped server belongs to the pod (servers are numbered pod by pod).
    EXPECT_EQ(c.server / params.servers_per_pod(), c.pod);
  }
}

TEST(FlatTreeNetwork, SixPortPairingIsInvolutionAcrossAdjacentPods) {
  FlatTreeConfig cfg;
  cfg.k = 8;
  cfg.chain = PodChain::Ring;
  FlatTreeNetwork net(cfg);
  const auto& cs = net.converters();
  std::size_t paired = 0, canonical = 0;
  for (std::uint32_t i = 0; i < cs.size(); ++i) {
    const Converter& c = cs[i];
    if (c.type == ConverterType::FourPort) {
      EXPECT_EQ(c.peer, kNoPeer);
      continue;
    }
    ASSERT_NE(c.peer, kNoPeer) << "ring chain must pair every 6-port converter";
    const Converter& p = cs[c.peer];
    EXPECT_EQ(p.peer, i);  // involution
    EXPECT_EQ(p.row, c.row);
    // Adjacent pods (ring).
    std::uint32_t diff = (c.pod + net.params().pods() - p.pod) % net.params().pods();
    EXPECT_TRUE(diff == 1 || diff == net.params().pods() - 1);
    EXPECT_NE(c.pair_canonical, p.pair_canonical);
    ++paired;
    canonical += c.pair_canonical;
  }
  EXPECT_EQ(canonical * 2, paired);
}

TEST(FlatTreeNetwork, LinearChainLeavesEndBladesUnpaired) {
  FlatTreeConfig cfg;
  cfg.k = 8;
  cfg.m = 1;
  cfg.n = 1;
  cfg.chain = PodChain::Linear;
  FlatTreeNetwork net(cfg);
  const auto& layout = net.layout();
  std::size_t unpaired = 0;
  for (const Converter& c : net.converters())
    if (c.type == ConverterType::SixPort && c.peer == kNoPeer) ++unpaired;
  // Pod 0's left blade B and last pod's right blade B: m * w each.
  EXPECT_EQ(unpaired, cfg.m * (layout.left_width() + layout.right_width()));
}

TEST(FlatTreeNetwork, PairColumnsFollowShiftFormula) {
  FlatTreeConfig cfg;
  cfg.k = 16;  // w = 4
  FlatTreeNetwork net(cfg);
  const std::uint32_t w = net.layout().left_width();
  for (const Converter& c : net.converters()) {
    if (c.type != ConverterType::SixPort || c.peer == kNoPeer) continue;
    if (c.col >= w) continue;  // consider left-blade members only
    const Converter& peer = net.converters()[c.peer];
    EXPECT_EQ(peer.col, w + side_peer_column(c.row, c.col, w));
    EXPECT_EQ(peer.pod, (c.pod + net.params().pods() - 1) % net.params().pods());
  }
}

TEST(FlatTreeNetwork, ClosModeEqualsFatTreeExactly) {
  for (std::uint32_t k : {4u, 6u, 8u, 12u}) {
    FlatTreeConfig cfg;
    cfg.k = k;
    FlatTreeNetwork net(cfg);
    topo::Topology clos = net.build(Mode::Clos);
    topo::FatTree ft = topo::build_fat_tree(k);
    EXPECT_EQ(link_multiset(clos), link_multiset(ft.topo)) << "k=" << k;
    ASSERT_EQ(clos.server_count(), ft.topo.server_count());
    for (topo::ServerId s = 0; s < clos.server_count(); ++s)
      EXPECT_EQ(clos.host(s), ft.topo.host(s));
  }
}

TEST(FlatTreeNetwork, AssignConfigsRejectsBadPodCount) {
  FlatTreeConfig cfg;
  cfg.k = 4;
  FlatTreeNetwork net(cfg);
  EXPECT_THROW(net.assign_configs(std::vector<Mode>(3, Mode::Clos)),
               std::invalid_argument);
}

TEST(FlatTreeNetwork, MaterializeRejectsInvalidAssignment) {
  FlatTreeConfig cfg;
  cfg.k = 4;
  FlatTreeNetwork net(cfg);
  auto configs = net.assign_configs(Mode::Clos);
  // Corrupt: put a 4-port converter into Side.
  for (std::size_t i = 0; i < net.converters().size(); ++i) {
    if (net.converters()[i].type == ConverterType::FourPort) {
      configs[i] = ConverterConfig::Side;
      break;
    }
  }
  EXPECT_THROW(net.materialize(configs), std::invalid_argument);
}

TEST(FlatTreeNetwork, GlobalModeUsesSideAndCrossByRowParity) {
  FlatTreeConfig cfg;
  cfg.k = 16;  // m = 2 rows: row 0 side, row 1 cross
  FlatTreeNetwork net(cfg);
  auto configs = net.assign_configs(Mode::GlobalRandom);
  for (std::size_t i = 0; i < net.converters().size(); ++i) {
    const Converter& c = net.converters()[i];
    if (c.type == ConverterType::FourPort) {
      EXPECT_EQ(configs[i], ConverterConfig::Local);
    } else if (c.peer != kNoPeer) {
      EXPECT_EQ(configs[i],
                c.row % 2 == 0 ? ConverterConfig::Side : ConverterConfig::Cross);
    }
  }
}

TEST(FlatTreeNetwork, LocalModeConfigs) {
  FlatTreeConfig cfg;
  cfg.k = 8;
  FlatTreeNetwork net(cfg);
  auto configs = net.assign_configs(Mode::LocalRandom);
  for (std::size_t i = 0; i < net.converters().size(); ++i) {
    const Converter& c = net.converters()[i];
    EXPECT_EQ(configs[i], c.type == ConverterType::FourPort ? ConverterConfig::Local
                                                            : ConverterConfig::Default);
  }
}

TEST(FlatTreeNetwork, HybridBoundaryPairsFallBackToStandalone) {
  FlatTreeConfig cfg;
  cfg.k = 8;
  FlatTreeNetwork net(cfg);
  std::vector<Mode> modes(net.params().pods(), Mode::LocalRandom);
  modes[0] = modes[1] = modes[2] = Mode::GlobalRandom;
  auto configs = net.assign_configs(modes);
  EXPECT_EQ(validate_assignment(net.converters(), configs), "");
  for (std::size_t i = 0; i < net.converters().size(); ++i) {
    const Converter& c = net.converters()[i];
    if (c.type != ConverterType::SixPort || c.peer == kNoPeer) continue;
    const Converter& p = net.converters()[c.peer];
    bool both_global = modes[c.pod] == Mode::GlobalRandom &&
                       modes[p.pod] == Mode::GlobalRandom;
    bool is_paired_cfg =
        configs[i] == ConverterConfig::Side || configs[i] == ConverterConfig::Cross;
    EXPECT_EQ(is_paired_cfg, both_global);
  }
}

TEST(ModeToString, Coverage) {
  EXPECT_STREQ(to_string(Mode::Clos), "clos");
  EXPECT_STREQ(to_string(Mode::GlobalRandom), "global-random");
  EXPECT_STREQ(to_string(Mode::LocalRandom), "local-random");
}

}  // namespace
}  // namespace flattree::core
