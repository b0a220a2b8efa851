#pragma once
// Equal-cost multi-path routing [RFC 2992], the paper's Clos-mode scheme.
//
// All minimum-hop paths between a switch pair (capped at `max_paths`) are
// enumerated once; each flow picks one by deterministic hash, emulating
// per-flow ECMP hashing in commodity switches.

#include "routing/paths.hpp"

namespace flattree::routing {

/// Hash-based choice among all minimum-hop paths of a switch pair.
class EcmpRouting : public Routing {
 public:
  /// `salt` perturbs the flow hash (distinct switches hash differently).
  explicit EcmpRouting(const graph::Graph& g, std::size_t max_paths = 64,
                       std::uint64_t salt = 0);

  const Path& select(NodeId src, NodeId dst, std::uint64_t flow_id) override;
  const std::vector<Path>& paths(NodeId src, NodeId dst) override;

 private:
  const graph::Graph& graph_;
  std::size_t max_paths_;
  std::uint64_t salt_;
  PathDb db_;
};

}  // namespace flattree::routing
