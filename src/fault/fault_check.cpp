#include "fault/fault_check.hpp"

#include <sstream>

#include "check/invariants.hpp"
#include "fault/degrade.hpp"

namespace flattree::fault {

check::Report check_degraded(const core::FlatTreeNetwork& net,
                             const std::vector<core::ConverterConfig>& configs,
                             const FaultState& state,
                             const DegradedCheckOptions& options) {
  check::count_run();
  check::Report report;

  report.note_check();
  std::string assignment = core::validate_assignment(net.converters(), configs);
  if (!assignment.empty()) {
    report.add("fault.assignment", assignment);
    return report;  // a pairwise-invalid assignment cannot be materialized
  }

  DegradeResult d = degrade(net.materialize(configs), state);
  std::vector<std::uint32_t> degree(d.topo.switch_count(), 0);
  {
    const graph::Graph& g = d.topo.graph();
    for (const graph::Link& link : g.links()) {
      ++degree[link.a];
      ++degree[link.b];
    }
  }
  auto usable = [&](NodeId v) { return !state.switch_down(v) && degree[v] > 0; };

  // Avoidable dead homes: the link-granularity guarantee. A home on a
  // *down* switch is only acceptable when nothing could have been done —
  // the converter (or its pair partner, for joint side/cross states) is
  // stuck, or no standalone home is usable either.
  if (options.flag_avoidable_homes) {
    const auto& converters = net.converters();
    report.note_check();
    for (std::uint32_t i = 0; i < converters.size(); ++i) {
      const core::Converter& c = converters[i];
      if (!state.switch_down(core::server_home(c, configs[i]))) continue;
      if (state.converter_stuck(i)) continue;
      if (core::is_pair_config(configs[i]) && c.peer != core::kNoPeer &&
          state.converter_stuck(c.peer))
        continue;  // joint state frozen by the partner
      if (!usable(c.agg) && !usable(c.edge)) continue;  // genuinely unrecoverable
      std::ostringstream os;
      os << "converter " << i << " homes server " << c.server << " on down switch "
         << core::server_home(c, configs[i]) << " while a usable standalone home exists";
      report.add("fault.avoidable_home", os.str());
    }
  }

  check::TopologyCheckOptions topo_opts;
  topo_opts.allow_isolated_switches = true;
  topo_opts.declared_stranded = d.stranded;
  report.merge(check::validate(d.topo, topo_opts));
  return report;
}

check::Report check_conserved(const FaultState& state) {
  check::count_run();
  check::Report report;
  const auto& tally = state.tally();
  struct ClassRow {
    FaultKind down;
    FaultKind up;
    std::size_t active;
    const char* name;
  };
  const ClassRow rows[] = {
      {FaultKind::LinkDown, FaultKind::LinkUp, state.down_pair_count(), "link"},
      {FaultKind::SwitchDown, FaultKind::SwitchUp, state.down_switch_count(), "switch"},
      {FaultKind::ConverterStuck, FaultKind::ConverterFreed,
       state.stuck_converter_count(), "converter"},
  };
  for (const ClassRow& row : rows) {
    std::uint64_t down = tally[static_cast<std::size_t>(row.down)];
    std::uint64_t up = tally[static_cast<std::size_t>(row.up)];
    report.note_check();
    if (up > down) {
      std::ostringstream os;
      os << row.name << ": " << up << " repairs exceed " << down << " failures";
      report.add("fault.conservation", os.str());
      continue;
    }
    // down - up is the sum of live per-entity counts, so it is zero
    // exactly when no entity of the class is down.
    report.note_check();
    if ((down == up) != (row.active == 0)) {
      std::ostringstream os;
      os << row.name << ": tally imbalance " << down - up << " vs " << row.active
         << " active entities";
      report.add("fault.conservation", os.str());
    }
  }
  return report;
}

}  // namespace flattree::fault
