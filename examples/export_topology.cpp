// Export: snapshot any operating mode to Graphviz DOT and the v1 text
// format — for rendering conversions or feeding external tooling.
//
//   $ ./export_topology --k 4 --mode global --out /tmp/flattree
//   $ dot -Tsvg /tmp/flattree.dot -o flattree.svg

#include <cstdio>
#include <fstream>

#include "core/flat_tree.hpp"
#include "topo/dot.hpp"
#include "topo/serialize.hpp"
#include "util/cli.hpp"

using namespace flattree;

int main(int argc, char** argv) {
  std::int64_t k = 4;
  std::string mode = "global";
  std::string out = "flattree";
  bool servers = false;
  util::CliParser cli("Export a flat-tree operating mode to .dot and .topo files.");
  cli.add_int("k", &k, {4, 256, 2}, "fat-tree parameter");
  cli.add_string("mode", &mode, "clos | global | local");
  cli.add_string("out", &out, "output path prefix");
  cli.add_bool("servers", &servers, "include server nodes in the DOT render");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  core::Mode m;
  if (mode == "clos") {
    m = core::Mode::Clos;
  } else if (mode == "global") {
    m = core::Mode::GlobalRandom;
  } else if (mode == "local") {
    m = core::Mode::LocalRandom;
  } else {
    std::fprintf(stderr, "unknown --mode '%s' (want clos|global|local)\n", mode.c_str());
    return 2;
  }

  core::FlatTreeConfig cfg;
  cfg.k = static_cast<std::uint32_t>(k);
  core::FlatTreeNetwork net(cfg);
  topo::Topology t = net.build(m);

  topo::DotOptions dot_options;
  dot_options.include_servers = servers;
  std::string dot_path = out + ".dot";
  std::string topo_path = out + ".topo";
  {
    std::ofstream f(dot_path);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", dot_path.c_str());
      return 1;
    }
    f << topo::to_dot(t, dot_options);
  }
  {
    std::ofstream f(topo_path);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", topo_path.c_str());
      return 1;
    }
    f << topo::serialize(t);
  }

  // Round-trip sanity so the snapshot is trustworthy.
  topo::Topology parsed = topo::deserialize(topo::serialize(t));
  std::printf("%s mode (%s)\nwrote %s (render: dot -Tsvg %s) and %s (round-trip ok: %s)\n",
              core::to_string(m), t.summary().c_str(), dot_path.c_str(), dot_path.c_str(),
              topo_path.c_str(),
              parsed.link_count() == t.link_count() ? "yes" : "NO");
  return 0;
}
