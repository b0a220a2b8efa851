#pragma once
// k-shortest-paths routing, the paper's scheme for (approximated) random
// graphs [Singla et al., NSDI'12 use k = 8].

#include "routing/paths.hpp"

namespace flattree::routing {

/// The k shortest (Yen) paths of a switch pair.
class KspRouting : public Routing {
 public:
  explicit KspRouting(const graph::Graph& g, std::size_t k = 8);

  const std::vector<Path>& paths(NodeId src, NodeId dst) override;

 private:
  const graph::Graph& graph_;
  std::size_t k_;
  PathDb db_;
};

}  // namespace flattree::routing
