#include "topo/fat_tree.hpp"

#include <algorithm>
#include <stdexcept>

namespace flattree::topo {

ClosParams ClosParams::fat_tree(std::uint32_t k) {
  ClosParams p;
  p.k = k;
  return p;
}

ClosParams ClosParams::make_generic(std::uint32_t pods, std::uint32_t d, std::uint32_t r,
                                    std::uint32_t h, std::uint32_t servers_per_edge,
                                    std::uint32_t edge_ports, std::uint32_t agg_ports,
                                    std::uint32_t core_ports) {
  if (pods < 2) throw std::invalid_argument("ClosParams: need at least 2 pods");
  if (r == 0 || d == 0 || h == 0 || servers_per_edge == 0)
    throw std::invalid_argument("ClosParams: zero layout parameter");
  if (d % r != 0)
    throw std::invalid_argument("ClosParams: r must divide d (edges per aggregation)");
  if (h % r != 0)
    throw std::invalid_argument("ClosParams: r must divide h (per-edge core groups)");
  if (edge_ports < servers_per_edge + d / r)
    throw std::invalid_argument("ClosParams: edge ports < servers + aggregation links");
  if (agg_ports < d + h)
    throw std::invalid_argument("ClosParams: aggregation ports < d + h");
  if (core_ports < pods)
    throw std::invalid_argument("ClosParams: core ports < pods (one link per pod)");
  ClosParams p;
  p.generic_ = true;
  p.pods_ = pods;
  p.d_ = d;
  p.r_ = r;
  p.h_ = h;
  p.spe_ = servers_per_edge;
  p.edge_ports_ = edge_ports;
  p.agg_ports_ = agg_ports;
  p.core_ports_ = core_ports;
  // Keep k meaningful-ish for diagnostics: the largest port budget.
  p.k = std::max({edge_ports, agg_ports, core_ports});
  return p;
}

NodeId FatTree::edge_switch(std::uint32_t pod, std::uint32_t j) const {
  return pod * (params.d() + params.aggs_per_pod()) + j;
}

NodeId FatTree::agg_switch(std::uint32_t pod, std::uint32_t i) const {
  return pod * (params.d() + params.aggs_per_pod()) + params.d() + i;
}

NodeId FatTree::core_switch(std::uint32_t c) const {
  return params.pods() * (params.d() + params.aggs_per_pod()) + c;
}

FatTree build_clos(const ClosParams& p) {
  FatTree ft;
  ft.params = p;

  // Switches: per pod edges then aggs, then all cores (see header layout).
  for (std::uint32_t pod = 0; pod < p.pods(); ++pod) {
    for (std::uint32_t j = 0; j < p.d(); ++j)
      ft.topo.add_switch(SwitchKind::Edge, static_cast<std::int32_t>(pod), j,
                         p.edge_ports());
    for (std::uint32_t i = 0; i < p.aggs_per_pod(); ++i)
      ft.topo.add_switch(SwitchKind::Aggregation, static_cast<std::int32_t>(pod), i,
                         p.agg_ports());
  }
  for (std::uint32_t c = 0; c < p.cores(); ++c)
    ft.topo.add_switch(SwitchKind::Core, -1, c, p.core_ports());

  // Intra-pod complete bipartite edge-aggregation mesh.
  for (std::uint32_t pod = 0; pod < p.pods(); ++pod)
    for (std::uint32_t j = 0; j < p.d(); ++j)
      for (std::uint32_t i = 0; i < p.aggs_per_pod(); ++i)
        ft.topo.add_link(ft.edge_switch(pod, j), ft.agg_switch(pod, i),
                         LinkOrigin::ClosEdgeAgg);

  // Pod-core wiring (paper Figure 4a): Ai -> cores [i*h, (i+1)*h).
  for (std::uint32_t pod = 0; pod < p.pods(); ++pod)
    for (std::uint32_t i = 0; i < p.aggs_per_pod(); ++i)
      for (std::uint32_t u = 0; u < p.h(); ++u)
        ft.topo.add_link(ft.agg_switch(pod, i), ft.core_switch(i * p.h() + u),
                         LinkOrigin::PodCore);

  // Servers, consecutive within edge switches.
  for (std::uint32_t pod = 0; pod < p.pods(); ++pod)
    for (std::uint32_t j = 0; j < p.d(); ++j)
      for (std::uint32_t s = 0; s < p.servers_per_edge(); ++s)
        ft.topo.add_server(ft.edge_switch(pod, j));

  return ft;
}

FatTree build_fat_tree(std::uint32_t k) {
  if (k < 4 || k % 2 != 0)
    throw std::invalid_argument("build_fat_tree: k must be even and >= 4");
  return build_clos(ClosParams::fat_tree(k));
}

}  // namespace flattree::topo
