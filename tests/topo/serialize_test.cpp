#include "topo/serialize.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/flat_tree.hpp"
#include "topo/fat_tree.hpp"

namespace flattree::topo {
namespace {

void expect_equal(const Topology& a, const Topology& b) {
  ASSERT_EQ(a.switch_count(), b.switch_count());
  ASSERT_EQ(a.link_count(), b.link_count());
  ASSERT_EQ(a.server_count(), b.server_count());
  for (NodeId v = 0; v < a.switch_count(); ++v) {
    EXPECT_EQ(a.info(v).kind, b.info(v).kind);
    EXPECT_EQ(a.info(v).pod, b.info(v).pod);
    EXPECT_EQ(a.info(v).index, b.info(v).index);
    EXPECT_EQ(a.info(v).ports, b.info(v).ports);
  }
  for (graph::LinkId l = 0; l < a.link_count(); ++l) {
    EXPECT_EQ(a.graph().link(l).a, b.graph().link(l).a);
    EXPECT_EQ(a.graph().link(l).b, b.graph().link(l).b);
    EXPECT_DOUBLE_EQ(a.graph().link(l).capacity, b.graph().link(l).capacity);
    EXPECT_EQ(a.link_info(l).origin, b.link_info(l).origin);
  }
  for (ServerId s = 0; s < a.server_count(); ++s) EXPECT_EQ(a.host(s), b.host(s));
}

TEST(Serialize, RoundTripFatTree) {
  FatTree ft = build_fat_tree(6);
  Topology parsed = deserialize(serialize(ft.topo));
  expect_equal(ft.topo, parsed);
  EXPECT_NO_THROW(parsed.validate());
}

TEST(Serialize, RoundTripConvertedFlatTree) {
  core::FlatTreeConfig cfg;
  cfg.k = 8;
  core::FlatTreeNetwork net(cfg);
  Topology original = net.build(core::Mode::GlobalRandom);
  Topology parsed = deserialize(serialize(original));
  expect_equal(original, parsed);
}

TEST(Serialize, RoundTripPreservesCapacitiesAndOrigins) {
  Topology t;
  t.add_switch(SwitchKind::Edge, 2, 1, 8);
  t.add_switch(SwitchKind::Core, -1, 0, 4);
  t.add_link(0, 1, LinkOrigin::InterPodSide, 2.5);
  t.add_server(0);
  Topology parsed = deserialize(serialize(t));
  expect_equal(t, parsed);
  EXPECT_EQ(parsed.info(1).pod, -1);
}

TEST(Serialize, RejectsBadMagic) {
  EXPECT_THROW(deserialize("not-a-topology\n"), std::invalid_argument);
}

TEST(Serialize, RejectsTruncatedInput) {
  FatTree ft = build_fat_tree(4);
  std::string text = serialize(ft.topo);
  EXPECT_THROW(deserialize(text.substr(0, text.size() / 2)), std::invalid_argument);
}

TEST(Serialize, RejectsMalformedRows) {
  std::string bad =
      "flattree-topology v1\nswitches 1\nedge zero 0 4\nlinks 0\nservers 0\n";
  EXPECT_THROW(deserialize(bad), std::invalid_argument);
  std::string bad_kind =
      "flattree-topology v1\nswitches 1\nspine 0 0 4\nlinks 0\nservers 0\n";
  EXPECT_THROW(deserialize(bad_kind), std::invalid_argument);
  std::string bad_origin =
      "flattree-topology v1\nswitches 2\nedge 0 0 4\nedge 0 1 4\nlinks 1\n0 1 1.0 "
      "wormhole\nservers 0\n";
  EXPECT_THROW(deserialize(bad_origin), std::invalid_argument);
}

TEST(Serialize, RejectsBadSectionHeader) {
  std::string bad = "flattree-topology v1\nnodes 0\n";
  EXPECT_THROW(deserialize(bad), std::invalid_argument);
}

TEST(Serialize, EmptySectionsAllowed) {
  Topology t;
  t.add_switch(SwitchKind::Edge, 0, 0, 4);
  Topology parsed = deserialize(serialize(t));
  EXPECT_EQ(parsed.switch_count(), 1u);
  EXPECT_EQ(parsed.link_count(), 0u);
  EXPECT_EQ(parsed.server_count(), 0u);
}

// The refusal message deserialize() throws for `text` ("" if it loads).
std::string refusal(const std::string& text) {
  try {
    deserialize(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// Two edge switches (pods 0 and -1) plus whatever `links` and `servers`
// rows the case needs.
std::string two_switches(const std::string& links, const std::string& servers = "servers 0\n") {
  return "flattree-topology v1\nswitches 2\nedge 0 0 4\ncore -1 0 4\n" + links + servers;
}

TEST(Serialize, RoundTripKeepsEveryCapacityBit) {
  Topology t;
  t.add_switch(SwitchKind::Edge, 0, 0, 4);
  t.add_switch(SwitchKind::Edge, 0, 1, 4);
  t.add_link(0, 1, LinkOrigin::Random, 1.0 / 3.0);
  t.add_link(0, 1, LinkOrigin::Random, 2.5);
  t.add_link(0, 1, LinkOrigin::Random, 40.0);
  const std::string text = serialize(t);
  // Short values keep their six-digit rendering; 1/3 needs all its digits.
  EXPECT_NE(text.find("\n0 1 2.5 random\n0 1 40 random\n"), std::string::npos) << text;
  Topology parsed = deserialize(text);
  for (graph::LinkId l = 0; l < t.link_count(); ++l)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed.graph().link(l).capacity),
              std::bit_cast<std::uint64_t>(t.graph().link(l).capacity));
  EXPECT_EQ(serialize(parsed), text);
}

TEST(Serialize, RejectsTrailingTokens) {
  EXPECT_EQ(refusal(two_switches("links 1\n0 1 1 random junk\n")),
            "deserialize: trailing token 'junk' at line 6");
  EXPECT_EQ(refusal("flattree-topology v1\nswitches 1\nedge 0 0 4 9\nlinks 0\nservers 0\n"),
            "deserialize: trailing token '9' at line 3");
  EXPECT_EQ(refusal(two_switches("links 0\n", "servers 1\n0 0\n")),
            "deserialize: trailing token '0' at line 7");
  EXPECT_EQ(refusal(two_switches("links 0 0\n")),
            "deserialize: expected 'links <count>' at line 5");
  EXPECT_EQ(refusal(two_switches("links 0\n", "servers 0\n0\n")),
            "deserialize: trailing line after the servers section at line 7");
}

TEST(Serialize, RejectsNonCanonicalIntegers) {
  EXPECT_EQ(refusal(two_switches("links 01\n")),
            "deserialize: bad count '01' (leading zero) at line 5");
  EXPECT_EQ(refusal(two_switches("links 1\n+0 1 1 random\n")),
            "deserialize: bad endpoint '+0' (signed integer) at line 6");
  EXPECT_EQ(refusal("flattree-topology v1\nswitches 1\nedge -0 0 4\nlinks 0\nservers 0\n"),
            "deserialize: bad pod '-0' (negative zero) at line 3");
  EXPECT_EQ(refusal("flattree-topology v1\nswitches 1\nedge 0 0 4294967296\n"),
            "deserialize: bad ports '4294967296' (integer out of range) at line 3");
  EXPECT_EQ(refusal(two_switches("links 0\n", "servers 1\n2\n")),
            "deserialize: bad host '2' (no such switch) at line 7");
  EXPECT_EQ(refusal(two_switches("links 1\n0  1 1 random\n")),
            "deserialize: malformed link at line 6");
}

TEST(Serialize, RejectsBadLinks) {
  EXPECT_EQ(refusal(two_switches("links 1\n1 1 1 random\n")),
            "deserialize: self-loop link at line 6");
  for (const char* cap : {"0", "-1", "nan", "inf", "1e999", "1x"})
    EXPECT_EQ(refusal(two_switches("links 1\n0 1 " + std::string(cap) + " random\n")),
              "deserialize: bad capacity '" + std::string(cap) + "' at line 6");
}

}  // namespace
}  // namespace flattree::topo
