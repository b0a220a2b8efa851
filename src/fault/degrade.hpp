#pragma once
// Degraded topology under a FaultState.
//
// degrade() is a fresh Topology with every link that touches a down switch
// or rides a down pair left out (failed switches stay as isolated nodes,
// so ids are stable, matching core::recovery's convention). graph::Graph
// is append-only, so every fault event is answered by a new degrade() of
// the fixed base topology; link_dead() is the per-link predicate it
// applies.
//
// Strandedness at link granularity: a server is stranded when its host
// switch is down OR the host has degree zero in the degraded graph (a
// live switch whose every link is dead is not a home).

#include <cstdint>
#include <vector>

#include "fault/state.hpp"
#include "graph/graph.hpp"
#include "topo/topology.hpp"

namespace flattree::fault {

using topo::ServerId;

/// A degraded topology plus the bookkeeping of what the faults removed.
struct DegradeResult {
  topo::Topology topo;                 ///< degraded copy, same switch ids
  std::vector<ServerId> stranded;      ///< host down or isolated, ascending
  std::size_t dropped_links = 0;       ///< links left out of `topo`
};

/// True when a link between switches `a` and `b` is down under `state`:
/// either endpoint is down or the (a, b) pair is down. degrade() leaves
/// out exactly the links this holds for.
bool link_dead(const FaultState& state, NodeId a, NodeId b);

/// One-shot degraded rebuild of `base` under `state`.
DegradeResult degrade(const topo::Topology& base, const FaultState& state);

/// Alive servers of the connected component of `t` that holds the most
/// alive servers, ascending; `stranded[s] != 0` marks server s as not
/// alive, and such servers never join the result. Ties go to the
/// component with the smallest union-find root (its smallest switch id).
/// APL is only defined within one component, so this is the server set
/// the chaos bench and the service report surviving-server APL on.
std::vector<ServerId> largest_alive_component(const topo::Topology& t,
                                              const std::vector<char>& stranded);

}  // namespace flattree::fault
