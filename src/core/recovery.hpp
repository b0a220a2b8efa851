#pragma once
// Failure model and convertibility-based recovery (paper Section 5:
// "convertibility can play a broader role in network management, e.g.
// self-recovery of the topology from failures").
//
// In a static topology a failed core switch strands everything wired to
// it. In flat-tree the converter that wired a server to a core can simply
// be reconfigured: a 6-port pair in side/cross whose core died flips to a
// standalone configuration, re-homing the server onto the aggregation
// switch instantly — no recabling. This module models switch failures,
// materializes the degraded logical topology, and computes the recovery
// reconfiguration.

#include <cstdint>
#include <vector>

#include "core/flat_tree.hpp"

namespace flattree::core {

/// Failed equipment (switch granularity; converter switches are assumed
/// reliable — they are passive circuit devices. src/fault models the
/// richer time-ordered fault classes: links, converters, repairs).
/// Raw (unsorted, possibly duplicated) ids are accepted: the recovery
/// entry points (apply_failures, plan_recovery) read it through a
/// FailureMask, which deduplicates and range-checks.
struct FailureSet {
  std::vector<NodeId> failed_switches;
};

/// Dense O(1) failure lookup built once per recovery operation.
class FailureMask {
 public:
  /// Builds the mask; duplicates collapse, out-of-range ids throw
  /// std::invalid_argument (the validation layer for raw failure input).
  FailureMask(const FailureSet& failures, std::size_t switch_count);

  bool failed(NodeId node) const { return mask_[node] != 0; }
  /// Number of distinct failed switches.
  std::size_t count() const { return count_; }

 private:
  std::vector<char> mask_;
  std::size_t count_ = 0;
};

/// The degraded logical network: `topo` with failed switches' links
/// removed (the switches stay as isolated graph nodes so ids are stable).
struct DegradedTopology {
  topo::Topology topo;
  /// Servers with no usable attachment (homed on a failed switch).
  std::vector<ServerId> stranded_servers;
  /// Links lost to the failures.
  std::size_t failed_links = 0;
};

/// Applies failures to a materialized topology. Servers on failed
/// switches are reported stranded; all other servers keep their host.
DegradedTopology apply_failures(const topo::Topology& topo, const FailureSet& failures);

/// Outcome of plan_recovery. `configs` is a valid full assignment
/// (validate_assignment passes); `unrecoverable` lists the converters
/// whose tapped server could not be re-homed onto any live switch —
/// every standalone home (aggregation and edge) failed too. Those
/// converters keep a standalone configuration in `configs` but their
/// servers stay stranded; pretending otherwise would silently home them
/// on a dead switch.
struct RecoveryPlan {
  std::vector<ConverterConfig> configs;
  std::vector<std::uint32_t> unrecoverable;  ///< converter indices, ascending
};

/// Recovery by reconfiguration: every converter whose configuration homes
/// its server on a failed switch is flipped — side/cross pairs jointly —
/// to the best standalone configuration avoiding the failures (prefer the
/// aggregation home, fall back to the edge). Configs not affected by the
/// failures are untouched. Converters with no live home are reported in
/// RecoveryPlan::unrecoverable (obs counter core.recovery.unrecoverable).
RecoveryPlan plan_recovery(const FlatTreeNetwork& net,
                           const std::vector<ConverterConfig>& configs,
                           const FailureSet& failures);

}  // namespace flattree::core
