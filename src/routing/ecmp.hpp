#pragma once
// Equal-cost multi-path routing [RFC 2992], the paper's Clos-mode scheme.
//
// All minimum-hop paths between a switch pair (capped at `max_paths`) are
// enumerated once; te::compile_fib installs them as equal-cost next hops,
// whose per-flow hash emulates ECMP in commodity switches.

#include "routing/paths.hpp"

namespace flattree::routing {

/// All minimum-hop paths of a switch pair.
class EcmpRouting : public Routing {
 public:
  explicit EcmpRouting(const graph::Graph& g, std::size_t max_paths = 64);

  const std::vector<Path>& paths(NodeId src, NodeId dst) override;

 private:
  const graph::Graph& graph_;
  std::size_t max_paths_;
  PathDb db_;
};

}  // namespace flattree::routing
