#include "graph/dijkstra.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace flattree::graph {

namespace {

struct QueueEntry {
  double dist;
  NodeId node;
  bool operator>(const QueueEntry& o) const { return dist > o.dist; }
};

}  // namespace

DijkstraResult dijkstra_to(const Graph& g, NodeId source, NodeId target,
                           const std::vector<double>& length) {
  if (length.size() != g.link_count())
    throw std::invalid_argument("dijkstra: length vector size mismatch");
  DijkstraResult r;
  r.dist.assign(g.node_count(), kInfDistance);
  r.parent.assign(g.node_count(), kInvalidNode);
  r.parent_link.assign(g.node_count(), kInvalidLink);

  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> heap;
  r.dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > r.dist[u]) continue;  // stale entry
    if (u == target) break;
    for (const Arc& arc : g.neighbors(u)) {
      double nd = d + length[arc.link];
      if (nd < r.dist[arc.to]) {
        r.dist[arc.to] = nd;
        r.parent[arc.to] = u;
        r.parent_link[arc.to] = arc.link;
        heap.push({nd, arc.to});
      }
    }
  }
  return r;
}

std::vector<NodeId> extract_path(const DijkstraResult& r, NodeId target) {
  if (r.dist[target] == kInfDistance) return {};
  std::vector<NodeId> path;
  for (NodeId v = target; v != kInvalidNode; v = r.parent[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<LinkId> extract_link_path(const DijkstraResult& r, NodeId target) {
  if (r.dist[target] == kInfDistance) return {};
  std::vector<LinkId> path;
  for (NodeId v = target; r.parent[v] != kInvalidNode; v = r.parent[v])
    path.push_back(r.parent_link[v]);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace flattree::graph
