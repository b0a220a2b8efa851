#include "check/routing_check.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace flattree::check {

Report validate_paths(const graph::Graph& g, graph::NodeId src, graph::NodeId dst,
                      const std::vector<graph::Path>& paths) {
  count_run();
  Report report;
  report.note_check(4);
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const graph::Path& path = paths[p];
    std::ostringstream tag;
    tag << "path " << p << " of (" << src << " -> " << dst << ")";
    if (path.nodes.empty() || path.nodes.front() != src || path.nodes.back() != dst) {
      report.add("route.path_endpoints", tag.str() + " does not run src..dst");
      continue;
    }
    if (path.links.size() + 1 != path.nodes.size()) {
      std::ostringstream os;
      os << tag.str() << " has " << path.links.size() << " links for "
         << path.nodes.size() << " nodes";
      report.add("route.path_links", os.str());
      continue;
    }
    for (std::size_t h = 0; h < path.links.size(); ++h) {
      if (path.links[h] >= g.link_count()) {
        report.add("route.path_links",
                   tag.str() + " hop " + std::to_string(h) + " uses unknown link " +
                       std::to_string(path.links[h]));
        continue;
      }
      const graph::Link& link = g.link(path.links[h]);
      graph::NodeId u = path.nodes[h];
      graph::NodeId v = path.nodes[h + 1];
      bool joins = (link.a == u && link.b == v) || (link.a == v && link.b == u);
      if (!joins) {
        std::ostringstream os;
        os << tag.str() << " hop " << h << ": link " << path.links[h] << " joins ("
           << link.a << ", " << link.b << "), not (" << u << ", " << v << ")";
        report.add("route.path_links", os.str());
      }
    }
    std::unordered_set<graph::NodeId> seen(path.nodes.begin(), path.nodes.end());
    if (seen.size() != path.nodes.size())
      report.add("route.path_loop", tag.str() + " revisits a node (not loopless)");
    if (path.length < 0.0)
      report.add("route.path_length",
                 tag.str() + " has negative length " + std::to_string(path.length));
  }

  report.note_check();
  for (std::size_t p = 1; p < paths.size(); ++p) {
    if (paths[p].length + 1e-12 < paths[p - 1].length) {
      std::ostringstream os;
      os << "paths " << p - 1 << " and " << p << " of (" << src << " -> " << dst
         << ") are not length-sorted (" << paths[p - 1].length << " then "
         << paths[p].length << ")";
      report.add("route.path_order", os.str());
    }
  }

  report.note_check();
  for (std::size_t p = 0; p < paths.size(); ++p)
    for (std::size_t q = p + 1; q < paths.size(); ++q)
      if (paths[p].nodes == paths[q].nodes) {
        std::ostringstream os;
        os << "paths " << p << " and " << q << " of (" << src << " -> " << dst
           << ") are identical";
        report.add("route.path_duplicate", os.str());
      }
  return report;
}

}  // namespace flattree::check
