#include "graph/bfs.hpp"


#include "obs/metrics.hpp"

namespace flattree::graph {

namespace {

// Per-BFS-call accounting only (never per node/edge): one branch per
// source, invisible on the disabled path, negligible when enabled.
obs::Counter c_bfs_runs("graph.bfs.runs");
obs::Counter c_bfs_visited("graph.bfs.nodes_visited");
obs::Histogram h_bfs_visited("graph.bfs.visited_per_source",
                             obs::Histogram::exponential_bounds(16.0, 4.0, 10));

inline void note_bfs(std::size_t visited) {
  if (!obs::enabled()) return;
  c_bfs_runs.inc();
  c_bfs_visited.add(visited);
  h_bfs_visited.observe(static_cast<double>(visited));
}

}  // namespace

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source) {
  std::vector<std::uint32_t> dist(g.node_count(), kUnreachable);
  std::vector<NodeId> queue;
  queue.reserve(g.node_count());
  dist[source] = 0;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    NodeId u = queue[head];
    for (const Arc& arc : g.neighbors(u)) {
      if (dist[arc.to] == kUnreachable) {
        dist[arc.to] = dist[u] + 1;
        queue.push_back(arc.to);
      }
    }
  }
  note_bfs(queue.size());
  return dist;
}

bool is_connected(const Graph& g) {
  if (g.node_count() == 0) return true;
  auto dist = bfs_distances(g, 0);
  for (auto d : dist)
    if (d == kUnreachable) return false;
  return true;
}

std::size_t component_count(const Graph& g) {
  std::size_t components = 0;
  std::vector<char> seen(g.node_count(), 0);
  std::vector<NodeId> queue;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    if (seen[s]) continue;
    ++components;
    seen[s] = 1;
    queue.clear();
    queue.push_back(s);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      NodeId u = queue[head];
      for (const Arc& arc : g.neighbors(u)) {
        if (!seen[arc.to]) {
          seen[arc.to] = 1;
          queue.push_back(arc.to);
        }
      }
    }
  }
  return components;
}

}  // namespace flattree::graph
