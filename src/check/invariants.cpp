#include "check/invariants.hpp"

#include <cmath>
#include <map>
#include <sstream>

#include "graph/bfs.hpp"

namespace flattree::check {

namespace {

using topo::SwitchKind;
using topo::Topology;

std::string switch_desc(const Topology& t, topo::NodeId v) {
  std::ostringstream os;
  const topo::SwitchInfo& info = t.info(v);
  os << "switch " << v << " (" << topo::to_string(info.kind) << ", pod " << info.pod
     << ", index " << info.index << ")";
  return os.str();
}

}  // namespace

Report validate(const Topology& t, const TopologyCheckOptions& options) {
  count_run();
  Report report;
  const graph::Graph& g = t.graph();
  const std::size_t switches = t.switch_count();

  // Link structure: endpoints, self links, capacities. Parallel links are
  // legal (a multigraph).
  std::vector<std::size_t> degree(switches, 0);
  report.note_check(3);
  for (graph::LinkId l = 0; l < t.link_count(); ++l) {
    const graph::Link& link = g.link(l);
    if (link.a >= switches || link.b >= switches) {
      std::ostringstream os;
      os << "link " << l << " endpoint out of range (" << link.a << ", " << link.b
         << ") with " << switches << " switches";
      report.add("topo.link_endpoint", os.str());
      continue;
    }
    if (link.a == link.b) {
      std::ostringstream os;
      os << "link " << l << " is a self loop at " << switch_desc(t, link.a);
      report.add("topo.self_link", os.str());
    }
    if (!(link.capacity > 0.0) || !std::isfinite(link.capacity)) {
      std::ostringstream os;
      os << "link " << l << " (" << link.a << ", " << link.b << ") has capacity "
         << link.capacity << " (must be positive and finite)";
      report.add("topo.capacity", os.str());
    }
    ++degree[link.a];
    ++degree[link.b];
  }

  // Port budgets: link endpoints + attached servers per switch.
  std::vector<std::size_t> used = degree;
  report.note_check();
  for (topo::ServerId s = 0; s < t.server_count(); ++s) {
    topo::NodeId host = t.host(s);
    if (host >= switches) {
      std::ostringstream os;
      os << "server " << s << " homed on switch " << host << " with only " << switches
         << " switches";
      report.add("topo.server_host", os.str());
      continue;
    }
    ++used[host];
  }
  report.note_check();
  for (topo::NodeId v = 0; v < switches; ++v) {
    if (used[v] <= t.info(v).ports) continue;
    std::ostringstream os;
    os << switch_desc(t, v) << " uses " << used[v] << " ports but has only "
       << t.info(v).ports;
    report.add("topo.port_budget", os.str());
  }

  // Every server homed on a live switch (unless declared stranded). A
  // zero-degree host is dead whenever the network has any links at all.
  std::vector<char> stranded_ok(t.server_count(), 0);
  for (topo::ServerId s : options.declared_stranded)
    if (s < t.server_count()) stranded_ok[s] = 1;
  report.note_check();
  if (t.link_count() > 0) {
    for (topo::ServerId s = 0; s < t.server_count(); ++s) {
      topo::NodeId host = t.host(s);
      if (host >= switches || stranded_ok[s] || degree[host] > 0) continue;
      std::ostringstream os;
      os << "server " << s << " homed on dead " << switch_desc(t, host)
         << " (zero live links, not declared stranded)";
      report.add("topo.stranded_server", os.str());
    }
  }

  // Connectivity, optionally on the live (degree > 0) subgraph.
  if (switches > 0) {
    report.note_check();
    if (!options.allow_isolated_switches) {
      if (!graph::is_connected(g))
        report.add("topo.connectivity",
                   "switch graph is disconnected (" +
                       std::to_string(graph::component_count(g)) + " components)");
    } else {
      graph::NodeId start = graph::kInvalidNode;
      std::size_t live = 0;
      for (topo::NodeId v = 0; v < switches; ++v)
        if (degree[v] > 0) {
          if (start == graph::kInvalidNode) start = v;
          ++live;
        }
      if (start != graph::kInvalidNode) {
        auto dist = graph::bfs_distances(g, start);
        std::size_t reached = 0;
        for (topo::NodeId v = 0; v < switches; ++v)
          if (degree[v] > 0 && dist[v] != graph::kUnreachable) ++reached;
        if (reached != live) {
          std::ostringstream os;
          os << "live subgraph is disconnected: " << reached << " of " << live
             << " switches with links reachable from switch " << start;
          report.add("topo.connectivity", os.str());
        }
      }
    }
  }
  return report;
}

Report equipment_parity(const Topology& a, const Topology& b, bool require_equal_links) {
  count_run();
  Report report;

  report.note_check();
  if (a.switch_count() != b.switch_count()) {
    report.add("parity.switches",
               "switch counts differ: " + std::to_string(a.switch_count()) + " vs " +
                   std::to_string(b.switch_count()));
  }

  report.note_check();
  auto ka = a.kind_counts();
  auto kb = b.kind_counts();
  if (ka != kb) {
    std::ostringstream os;
    os << "per-kind switch counts differ: (" << ka[0] << " core, " << ka[1] << " agg, "
       << ka[2] << " edge) vs (" << kb[0] << " core, " << kb[1] << " agg, " << kb[2]
       << " edge)";
    report.add("parity.kinds", os.str());
  }

  // Port-budget multiset per kind: a conversion may relabel or rewire, but
  // the port inventory of each equipment class must match exactly.
  report.note_check();
  auto port_multiset = [](const Topology& t) {
    std::map<std::pair<SwitchKind, std::uint32_t>, std::size_t> ports;
    for (topo::NodeId v = 0; v < t.switch_count(); ++v)
      ++ports[{t.info(v).kind, t.info(v).ports}];
    return ports;
  };
  auto pa = port_multiset(a);
  auto pb = port_multiset(b);
  if (pa != pb) {
    std::ostringstream os;
    os << "port-budget inventories differ:";
    for (const auto& [key, count] : pa) {
      auto it = pb.find(key);
      std::size_t other = it == pb.end() ? 0 : it->second;
      if (count != other)
        os << " [" << topo::to_string(key.first) << " x" << key.second << " ports: "
           << count << " vs " << other << "]";
    }
    for (const auto& [key, count] : pb)
      if (pa.find(key) == pa.end())
        os << " [" << topo::to_string(key.first) << " x" << key.second << " ports: 0 vs "
           << count << "]";
    report.add("parity.ports", os.str());
  }

  report.note_check();
  if (a.server_count() != b.server_count()) {
    report.add("parity.servers",
               "server counts differ: " + std::to_string(a.server_count()) + " vs " +
                   std::to_string(b.server_count()));
  }

  if (require_equal_links) {
    report.note_check();
    if (a.link_count() != b.link_count()) {
      report.add("parity.links",
                 "link counts differ: " + std::to_string(a.link_count()) + " vs " +
                     std::to_string(b.link_count()));
    }
  }
  return report;
}

}  // namespace flattree::check
