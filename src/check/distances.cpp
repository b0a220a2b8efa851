#include "check/distances.hpp"

#include <stdexcept>
#include <string>

#include "graph/bfs.hpp"

namespace flattree::check {

Report certify_distances(const graph::Graph& g, graph::NodeId source,
                         const std::vector<std::uint32_t>& dist) {
  using graph::kUnreachable;
  if (source >= g.node_count())
    throw std::invalid_argument("certify_distances: source out of range");
  count_run();
  Report report;

  report.note_check();
  if (dist.size() != g.node_count()) {
    report.add("dist.size", "array has " + std::to_string(dist.size()) +
                                " entries for " + std::to_string(g.node_count()) +
                                " nodes");
    return report;  // indexing below would be meaningless
  }

  // 1. anchor: the source — and only the source — sits at distance 0.
  report.note_check();
  if (dist[source] != 0)
    report.add("dist.anchor",
               "dist[source=" + std::to_string(source) +
                   "] = " + std::to_string(dist[source]) + ", want 0");
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    if (v != source && dist[v] == 0)
      report.add("dist.anchor",
                 "node " + std::to_string(v) + " has distance 0 but is not the source");
  }

  // 2. step: 1-Lipschitz across every link; a link never joins a reached
  // and an unreached node.
  const auto& links = g.links();
  for (graph::LinkId id = 0; id < links.size(); ++id) {
    report.note_check();
    std::uint32_t da = dist[links[id].a];
    std::uint32_t db = dist[links[id].b];
    if ((da == kUnreachable) != (db == kUnreachable)) {
      report.add("dist.step", "link " + std::to_string(id) +
                                  " joins reached and unreached nodes");
    } else if (da != kUnreachable && (da > db + 1 || db > da + 1)) {
      report.add("dist.step", "link " + std::to_string(id) + " spans distances " +
                                  std::to_string(da) + " and " + std::to_string(db));
    }
  }

  // 3. support: every reached non-source node has a witness predecessor.
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    if (v == source || dist[v] == kUnreachable || dist[v] == 0) continue;
    report.note_check();
    bool witnessed = false;
    for (const graph::Arc& arc : g.neighbors(v)) {
      if (dist[arc.to] != kUnreachable && dist[arc.to] + 1 == dist[v]) {
        witnessed = true;
        break;
      }
    }
    if (!witnessed)
      report.add("dist.support", "node " + std::to_string(v) + " at distance " +
                                     std::to_string(dist[v]) +
                                     " has no neighbor at distance " +
                                     std::to_string(dist[v] - 1));
  }

  return report;
}

}  // namespace flattree::check
