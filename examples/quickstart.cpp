// Quickstart: build a flat-tree, convert it between its operating modes,
// and measure what changes.
//
//   $ ./quickstart [--k 8]
//
// Walks the core API end to end: FlatTreeNetwork (the physical plant),
// Controller (the centralized control plane), Topology (a materialized
// logical network), and the average-path-length metric.

#include <cstdio>

#include "core/controller.hpp"
#include "topo/apl.hpp"
#include "util/cli.hpp"

using namespace flattree;

int main(int argc, char** argv) {
  std::int64_t k = 8;
  util::CliParser cli("Flat-tree quickstart: build, convert, measure.");
  cli.add_int("k", &k, {4, 256, 2}, "fat-tree parameter");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  // A Controller owns the physical plant and boots in Clos mode.
  core::FlatTreeConfig config;
  config.k = static_cast<std::uint32_t>(k);
  core::Controller controller(config);
  const core::FlatTreeNetwork& net = controller.network();

  std::printf("flat-tree k=%u: %s\n", net.config().k, controller.topology().summary().c_str());
  std::printf("converters: %zu (%u four-port + %u six-port per pod), wiring %s\n",
              net.converters().size(), net.layout().n * net.layout().d,
              net.layout().m * net.layout().d, core::to_string(net.pattern()));

  // Measure each operating mode.
  for (core::Mode mode :
       {core::Mode::Clos, core::Mode::GlobalRandom, core::Mode::LocalRandom}) {
    core::ReconfigPlan plan = controller.apply(mode);
    topo::Topology t = controller.topology();
    auto apl = topo::server_apl(t);
    std::printf(
        "\nmode %-13s  reconfigured %4zu converters (%zu links changed, %zu servers moved)\n"
        "  server-pair APL %.3f hops (max %u), %zu links, all port budgets respected\n",
        core::to_string(mode), plan.steps.size(), plan.links_added, plan.servers_moved,
        apl.average, apl.max_dist, t.link_count());
  }

  // And back to Clos: conversions are fully reversible.
  core::ReconfigPlan back = controller.apply(core::Mode::Clos);
  std::printf("\nreverted to clos (%zu converter changes) — conversion is reversible.\n",
              back.steps.size());
  return 0;
}
