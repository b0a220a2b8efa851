#include "core/recovery.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flattree::core {

namespace {

obs::Counter c_failures_applied("core.recovery.failure_sets_applied");
obs::Counter c_failed_links("core.recovery.failed_links");
obs::Counter c_recovery_plans("core.recovery.plans");
obs::Counter c_rewired("core.recovery.converters_rewired");
obs::Counter c_unrecoverable("core.recovery.unrecoverable");

}  // namespace

FailureMask::FailureMask(const FailureSet& failures, std::size_t switch_count)
    : mask_(switch_count, 0) {
  for (NodeId node : failures.failed_switches) {
    if (node >= switch_count)
      throw std::invalid_argument("FailureSet: switch id " + std::to_string(node) +
                                  " out of range (have " + std::to_string(switch_count) +
                                  " switches)");
    if (mask_[node] == 0) {
      mask_[node] = 1;
      ++count_;
    }
  }
}

DegradedTopology apply_failures(const topo::Topology& source, const FailureSet& failures) {
  OBS_SPAN("core.recovery.apply_failures");
  c_failures_applied.inc();
  DegradedTopology out;
  FailureMask failed(failures, source.switch_count());

  // Rebuild with the same switch ids; drop links touching failed switches.
  for (NodeId v = 0; v < source.switch_count(); ++v) {
    const topo::SwitchInfo& info = source.info(v);
    out.topo.add_switch(info.kind, info.pod, info.index, info.ports);
  }
  for (graph::LinkId l = 0; l < source.link_count(); ++l) {
    const graph::Link& link = source.graph().link(l);
    if (failed.failed(link.a) || failed.failed(link.b)) {
      ++out.failed_links;
      continue;
    }
    out.topo.add_link(link.a, link.b, source.link_info(l).origin, link.capacity);
  }
  for (ServerId s = 0; s < source.server_count(); ++s) {
    NodeId host = source.host(s);
    out.topo.add_server(host);
    if (failed.failed(host)) out.stranded_servers.push_back(s);
  }
  c_failed_links.add(out.failed_links);
  return out;
}

namespace {

/// Best standalone configuration avoiding failed switches: prefer the
/// aggregation home, fall back to the edge. When both died no live home
/// remains — `recovered` is false and the (still stranded) server keeps
/// the `local` configuration; the caller reports it as unrecoverable
/// instead of pretending the flip rescued it.
struct StandaloneChoice {
  ConverterConfig config = ConverterConfig::Local;
  bool recovered = true;
};

StandaloneChoice safe_standalone(const Converter& c, const FailureMask& failed) {
  if (!failed.failed(c.agg)) return {ConverterConfig::Local, true};
  if (!failed.failed(c.edge)) return {ConverterConfig::Default, true};
  return {ConverterConfig::Local, false};
}

}  // namespace

RecoveryPlan plan_recovery(const FlatTreeNetwork& net,
                           const std::vector<ConverterConfig>& configs,
                           const FailureSet& failures) {
  OBS_SPAN("core.recovery.plan");
  c_recovery_plans.inc();
  FailureMask failed(failures, net.params().total_switches());
  RecoveryPlan plan;
  plan.configs = configs;
  std::vector<ConverterConfig>& recovered = plan.configs;
  const auto& converters = net.converters();
  std::vector<char> flipped(converters.size(), 0);
  auto flip_standalone = [&](std::uint32_t idx) {
    StandaloneChoice choice = safe_standalone(converters[idx], failed);
    recovered[idx] = choice.config;
    flipped[idx] = 1;
    if (!choice.recovered) plan.unrecoverable.push_back(idx);
  };
  for (std::uint32_t i = 0; i < converters.size(); ++i) {
    if (flipped[i]) continue;  // peer of an already-handled pair
    const Converter& c = converters[i];
    ConverterConfig cfg = recovered[i];
    if (is_pair_config(cfg)) {
      // A side/cross pair is a joint configuration: if either end homes
      // its server on a failed core, flip BOTH ends to safe standalone
      // configurations (standalone choices need not match). The loop
      // visits the pair at its lower index while both ends still carry
      // the paired config, so each pair is handled exactly once.
      const Converter& peer = converters[c.peer];
      if (!failed.failed(c.core) && !failed.failed(peer.core)) continue;
      flip_standalone(i);
      flip_standalone(c.peer);
    } else if (failed.failed(server_home(c, cfg))) {
      flip_standalone(i);
    }
  }
  std::sort(plan.unrecoverable.begin(), plan.unrecoverable.end());
  c_unrecoverable.add(plan.unrecoverable.size());
  if (obs::enabled()) {
    std::uint64_t rewired = 0;
    for (std::uint32_t i = 0; i < converters.size(); ++i)
      if (recovered[i] != configs[i]) ++rewired;
    c_rewired.add(rewired);
  }
  return plan;
}

}  // namespace flattree::core
