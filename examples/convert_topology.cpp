// Conversion walk-through: what a flat-tree reconfiguration physically is.
//
//   $ ./convert_topology [--k 4]
//
// Prints the pod geometry (paper Figure 3), the per-edge core assignments
// under the pod-core wiring pattern (Figure 4), the inter-pod side pairing
// (Section 2.5), and then the exact converter-by-converter plan for
// converting Clos -> approximated global random graph.

#include <cstdio>

#include "core/controller.hpp"
#include "util/cli.hpp"

using namespace flattree;

int main(int argc, char** argv) {
  std::int64_t k = 4;
  std::int64_t max_steps = 12;
  util::CliParser cli("Flat-tree conversion walk-through (keep k small to read it).");
  cli.add_int("k", &k, {4, 256, 2}, "fat-tree parameter");
  cli.add_int("max-steps", &max_steps, {0, INT64_MAX}, "reconfiguration steps to print");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  core::FlatTreeConfig config;
  config.k = static_cast<std::uint32_t>(k);
  core::Controller controller(config);
  const core::FlatTreeNetwork& net = controller.network();
  const core::PodLayout& layout = net.layout();

  std::printf("== pod geometry (paper Fig. 3) ==\n");
  std::printf("d=%u edge switches/pod, %u aggregation, blades: A %u x %u (4-port),"
              " B %u x %u (6-port) per side\n",
              layout.d, layout.d / layout.r, layout.n, layout.left_width(), layout.m,
              layout.left_width());
  std::printf("resolved pod-core wiring: %s, chain: %s\n\n",
              core::to_string(net.pattern()), core::to_string(net.config().chain));

  std::printf("== converter attachments in pod 0 ==\n");
  for (std::uint32_t slot = 0; slot < layout.converters_per_pod(); ++slot) {
    const core::Converter& c = net.converters()[net.converter_index(0, slot)];
    std::printf("  %-6s row %u col %u: edge sw%-3u agg sw%-3u core sw%-3u server %-3u",
                core::to_string(c.type), c.row, c.col, c.edge, c.agg, c.core, c.server);
    if (c.peer != core::kNoPeer) {
      const core::Converter& p = net.converters()[c.peer];
      std::printf("  side-> pod %u col %u row %u", p.pod, p.col, p.row);
    }
    std::printf("\n");
  }

  std::printf("\n== conversion plan: clos -> global random graph ==\n");
  core::ReconfigPlan plan = controller.plan(core::Mode::GlobalRandom);
  std::printf("%zu converter reconfigurations; %zu links removed, %zu added, "
              "%zu servers re-homed\n",
              plan.steps.size(), plan.links_removed, plan.links_added, plan.servers_moved);
  for (std::size_t i = 0; i < plan.steps.size() && i < static_cast<std::size_t>(max_steps);
       ++i) {
    const core::ReconfigStep& s = plan.steps[i];
    const core::Converter& c = net.converters()[s.converter];
    std::printf("  #%-4u pod %u %-6s row %u col %u: %-7s -> %s\n", s.converter, c.pod,
                core::to_string(c.type), c.row, c.col, core::to_string(s.from),
                core::to_string(s.to));
  }
  if (plan.steps.size() > static_cast<std::size_t>(max_steps))
    std::printf("  ... %zu more\n", plan.steps.size() - static_cast<std::size_t>(max_steps));

  controller.apply(core::Mode::GlobalRandom);
  std::printf("\napplied. topology now: %s\n", controller.topology().summary().c_str());
  return 0;
}
