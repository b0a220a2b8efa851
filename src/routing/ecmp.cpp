#include "routing/ecmp.hpp"

#include <stdexcept>

namespace flattree::routing {

EcmpRouting::EcmpRouting(const graph::Graph& g, std::size_t max_paths)
    : graph_(g), max_paths_(max_paths) {}

const std::vector<Path>& EcmpRouting::paths(NodeId src, NodeId dst) {
  if (const auto* cached = db_.find(src, dst)) return *cached;
  auto computed = graph::all_shortest_paths(graph_, src, dst, max_paths_);
  if (computed.empty()) throw std::runtime_error("EcmpRouting: pair disconnected");
  db_.set(src, dst, std::move(computed));
  return *db_.find(src, dst);
}

}  // namespace flattree::routing
