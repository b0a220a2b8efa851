#pragma once
// Test fixture for the FIB checker's hop bound (check::kFibHopLimit): a
// line of switches 0 - 1 - ... - n-1, link i joining switches i and i+1,
// with one server at each end, so the walk from 0 to n-1 takes n - 1 hops.

#include <cstdint>

#include "te/weighted_fib.hpp"
#include "topo/topology.hpp"

namespace flattree::te {

inline topo::Topology long_line(std::uint32_t n) {
  topo::Topology t;
  for (std::uint32_t i = 0; i < n; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 4);
  for (std::uint32_t i = 0; i + 1 < n; ++i) t.add_link(i, i + 1, topo::LinkOrigin::Random);
  t.add_server(0);
  t.add_server(n - 1);
  return t;
}

/// Weighted table routing every switch of long_line(n) toward n - 1 over
/// its one forward link, at full weight.
inline WeightedFib long_line_fib(std::uint32_t n) {
  WeightedFib fib(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) fib.add_route(i, n - 1, i, 64);
  return fib;
}

}  // namespace flattree::te
