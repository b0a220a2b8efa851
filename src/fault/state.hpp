#pragma once
// FaultState: the live what-is-down bookkeeping for a fault trace.
//
// Failures overlap — a pod power outage downs a switch that an independent
// switch failure also downed; a flapping burst re-downs a pair already
// down. FaultState therefore tracks *down counts* per entity, not
// booleans: an entity is down while its count is positive, and only the
// 0 -> 1 and 1 -> 0 transitions are edge-triggered (those are what
// callers re-degrade the topology on). Applying a trace and its matching
// repairs in any interleaving returns every count to zero — the
// conservation invariant check_conserved() certifies and the
// fault.apply.* / fault.unapply.* obs counters mirror.
//
// apply() is O(1) per event (amortized hash-map on link pairs) and keeps
// per-kind tallies of every event consumed, so conservation is checkable
// without observability enabled.

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fault/event.hpp"

namespace flattree::fault {

/// Cumulative down-state of the plant: per-entity down *counts* so
/// overlapping failures (link + its switch + pod power) only revive an
/// entity on the last repair. apply() reports edge-triggered transitions.
class FaultState {
 public:
  FaultState(std::size_t switch_count, std::size_t converter_count);

  /// Consumes one event. Out-of-range ids and repairs of entities that are
  /// already fully up throw std::invalid_argument (an unmatched repair
  /// means the trace is corrupt — silently clamping would break
  /// conservation). Returns true when the entity's up/down (or stuck)
  /// state actually changed — the edge triggers callers react to.
  bool apply(const FaultEvent& e);

  // -- live state ----------------------------------------------------------
  bool switch_down(NodeId v) const { return switch_down_[v] > 0; }
  bool pair_down(NodeId a, NodeId b) const;
  bool converter_stuck(std::uint32_t idx) const { return stuck_[idx] > 0; }

  std::size_t down_switch_count() const { return down_switches_; }
  std::size_t down_pair_count() const { return down_pairs_; }
  std::size_t stuck_converter_count() const { return stuck_converters_; }
  /// True when nothing is down or stuck (the fully-unwound state).
  bool clean() const {
    return down_switches_ == 0 && down_pairs_ == 0 && stuck_converters_ == 0;
  }

  // -- conservation tallies ------------------------------------------------
  /// Events consumed per kind (indexed by FaultKind). check_conserved()
  /// proves down tallies equal up tallies whenever clean().
  const std::array<std::uint64_t, 6>& tally() const { return tally_; }

  std::size_t switch_count() const { return switch_down_.size(); }
  std::size_t converter_count() const { return stuck_.size(); }

 private:
  std::vector<std::uint32_t> switch_down_;  ///< down count per switch
  std::vector<std::uint32_t> stuck_;        ///< stuck count per converter
  std::unordered_map<std::uint64_t, std::uint32_t> pair_down_;  ///< key -> count
  std::size_t down_switches_ = 0;
  std::size_t down_pairs_ = 0;
  std::size_t stuck_converters_ = 0;
  std::array<std::uint64_t, 6> tally_{};
};

}  // namespace flattree::fault
