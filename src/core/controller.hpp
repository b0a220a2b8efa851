#pragma once
// Centralized control plane (paper Section 2.6).
//
// The controller owns the physical plant (a FlatTreeNetwork), tracks the
// live converter configuration, and converts the network between modes.
// Conversions are expressed as ReconfigPlans — the exact set of converter
// reconfigurations plus the resulting logical link/server-attachment churn —
// which is what an operator (or an SDN rule compiler) would push to the
// converter switches and routing layer.

#include <cstdint>
#include <vector>

#include "core/flat_tree.hpp"
#include "core/zones.hpp"

namespace flattree::core {

/// One converter state change.
struct ReconfigStep {
  std::uint32_t converter = 0;
  ConverterConfig from = ConverterConfig::Default;
  ConverterConfig to = ConverterConfig::Default;
};

/// A planned conversion and its logical effect.
struct ReconfigPlan {
  std::vector<ReconfigStep> steps;
  std::size_t links_removed = 0;   ///< logical links that disappear
  std::size_t links_added = 0;     ///< logical links that appear
  std::size_t servers_moved = 0;   ///< servers whose host switch changes

  bool empty() const { return steps.empty(); }
};

class Controller {
 public:
  /// Boots the network in Clos mode (all converters `default`).
  explicit Controller(FlatTreeConfig config);
  /// Takes ownership of an already-built plant (generic Clos layouts,
  /// expansion results) and boots it in Clos mode.
  explicit Controller(FlatTreeNetwork net);

  const FlatTreeNetwork& network() const { return net_; }
  const std::vector<ConverterConfig>& current_configs() const { return configs_; }
  const std::vector<Mode>& pod_modes() const { return pod_modes_; }

  /// Plans a conversion to per-pod `target` modes without applying it.
  /// A preview counts in core.controller.plans only; the churn counters
  /// (conversion_steps, links_added/removed, servers_moved) record apply().
  ReconfigPlan plan(const std::vector<Mode>& target) const;
  ReconfigPlan plan(Mode target) const;

  /// Applies a conversion and returns the executed plan.
  ReconfigPlan apply(const std::vector<Mode>& target);
  ReconfigPlan apply(Mode target);
  ReconfigPlan apply(const ZonePartition& zones) { return apply(zones.pod_modes); }

  /// Logical topology under the live configuration.
  topo::Topology topology() const { return net_.materialize(configs_); }

 protected:
  // Subclasses (fault::ResilientController) drive the configuration
  // directly — partial plan application and fault-aware recovery mutate
  // configs_ outside the mode-level apply() path.

  /// One step per converter whose configuration differs, in converter
  /// order.
  static std::vector<ReconfigStep> steps_between(const std::vector<ConverterConfig>& from,
                                                 const std::vector<ConverterConfig>& to);

  /// The plan from `from` to `to`. Link and server churn come from the
  /// changed converters' wiring alone; both states are still materialized
  /// so an invalid or unmaterializable one throws as materialize() does.
  ReconfigPlan diff(const std::vector<ConverterConfig>& from,
                    const std::vector<ConverterConfig>& to) const;

  FlatTreeNetwork net_;
  std::vector<ConverterConfig> configs_;
  std::vector<Mode> pod_modes_;
};

}  // namespace flattree::core
