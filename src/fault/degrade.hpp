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
//
// assess() is the one definition of the degraded-fabric metrics every
// failure experiment reports (bench_failures, bench_chaos and the
// service's query/what_if): surviving-server APL over the largest alive
// component, and a certified throughput bracket with the demand-weighted
// served fraction.

#include <cstdint>
#include <vector>

#include "check/report.hpp"
#include "fault/state.hpp"
#include "graph/graph.hpp"
#include "mcf/commodity.hpp"
#include "mcf/garg_koenemann.hpp"
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

/// The metrics of one degraded fabric (see assess()).
struct Assessment {
  std::size_t alive = 0;  ///< servers in the largest alive component
  double apl = 0.0;       ///< their server APL; 0 below 2 servers
  /// A max_concurrent_flow ran: some alive demand crosses switches.
  bool solved = false;
  /// That solve: the certified bracket [lambda_lower, lambda_upper],
  /// `truncated` when the augmentation budget cut it short. All zero (and
  /// not truncated) when no solve ran.
  mcf::McfResult result;
  /// check::certify_served of that solve (empty, so ok(), when none ran).
  check::Report certificate;
  /// alive demand / total demand x the solve's served_fraction: the
  /// demand-weighted share still deliverable (both endpoints alive and
  /// connected). Alive demand that never leaves its switch counts as
  /// served; 0 when `demands` is empty.
  double served = 0.0;
};

/// Evaluates degraded topology `t` whose servers in `stranded` (any
/// order) are down. APL runs over largest_alive_component(). Demands with
/// both endpoints alive are aggregated to switches and solved once by
/// max_concurrent_flow with allow_unreachable (components the stranded
/// servers split off are excised, not fatal), the upper bound on and at
/// most `max_augmentations` augmentations (0 = unlimited), then
/// certified. An empty `demands` means no throughput: only `alive` and
/// `apl` are filled in. The result is a pure function of the arguments,
/// so it never depends on which thread or service batch asked for it;
/// the service's byte-identity rests on that.
Assessment assess(const topo::Topology& t, const std::vector<ServerId>& stranded,
                  const std::vector<mcf::ServerDemand>& demands, double epsilon,
                  std::uint64_t max_augmentations);

}  // namespace flattree::fault
