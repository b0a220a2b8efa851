#include "routing/fib.hpp"

#include <gtest/gtest.h>

namespace flattree::routing {
namespace {

topo::Topology line3() {
  topo::Topology t;
  for (int i = 0; i < 3; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 4);
  t.add_link(0, 1, topo::LinkOrigin::Random);
  t.add_link(1, 2, topo::LinkOrigin::Random);
  t.add_server(0);
  t.add_server(2);
  return t;
}

TEST(AllServerPairs, OnlyHostingSwitches) {
  topo::Topology t = line3();
  auto pairs = all_server_pairs(t);
  ASSERT_EQ(pairs.size(), 2u);  // (0,2) and (2,0); switch 1 hosts nothing
  EXPECT_EQ(pairs[0].first, 0u);
  EXPECT_EQ(pairs[0].second, 2u);
}

}  // namespace
}  // namespace flattree::routing
