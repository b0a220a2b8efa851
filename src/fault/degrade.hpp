#pragma once
// Degraded topology under a FaultState — cold and incremental forms.
//
// degrade() is the one-shot form: a fresh Topology with every link that
// touches a down switch or rides a down pair left out (failed switches
// stay as isolated nodes, so ids are stable, matching core::recovery's
// convention). Use it wherever a tombstone-free graph is required — the
// MCF solver rejects edited graphs outright.
//
// FaultedGraph is the incremental form: it owns a graph::Graph mirroring a
// fixed logical topology and reacts to each fault event by tombstoning /
// restoring exactly the affected link slots, so the CSR adjacency is
// patched in place instead of rebuilt. Per-link "down reason" counts (endpoint a down,
// endpoint b down, pair down — each counted independently) make
// overlapping failures unwind exactly: a link is live iff its reason count
// is zero, and a fully unwound trace restores every slot.
//
// Strandedness at link granularity (the ISSUE's "a live switch with a dead
// uplink still counts as a home" fix): a server is stranded when its host
// switch is down OR the host has degree zero in the degraded graph — both
// forms report the same set for the same state.

#include <cstdint>
#include <vector>

#include "fault/state.hpp"
#include "graph/graph.hpp"
#include "topo/topology.hpp"

namespace flattree::fault {

using topo::ServerId;

/// A degraded topology plus the bookkeeping of what the faults removed.
struct DegradeResult {
  topo::Topology topo;                 ///< tombstone-free degraded copy
  std::vector<ServerId> stranded;      ///< host down or isolated, ascending
  std::size_t dropped_links = 0;       ///< links left out of `topo`
};

/// One-shot degraded rebuild of `base` under `state`.
DegradeResult degrade(const topo::Topology& base, const FaultState& state);

/// Incrementally maintained degraded switch graph over a fixed topology.
class FaultedGraph {
 public:
  /// Seeds from `base` (all links live) and `state` (whatever is already
  /// down is applied immediately, so a FaultedGraph can be built
  /// mid-trace).
  FaultedGraph(const topo::Topology& base, const FaultState& state);

  /// The live degraded graph (tombstoned slots = dead links). Link slot
  /// ids match `base`'s link ids.
  const graph::Graph& graph() const { return g_; }

  /// Reacts to one *edge-triggered* event: call right after
  /// FaultState::apply returned true for `e` on the same state object.
  /// Non-edge events (a second down on an already-down entity) must be
  /// skipped by the caller — the state's counts already absorb them.
  /// Converter events are no-ops here (they gate reconfiguration, not the
  /// data plane).
  void on_event(const FaultState& state, const FaultEvent& e);

  /// Stranded servers of `base` under the current graph: host down or
  /// isolated. Ascending.
  std::vector<ServerId> stranded(const FaultState& state) const;

  /// Total slots tombstoned / restored so far (conservation mirror of the
  /// fault.graph.links_removed / links_restored counters).
  std::uint64_t links_removed() const { return removed_; }
  std::uint64_t links_restored() const { return restored_; }

 private:
  void add_reason(graph::LinkId l);
  void drop_reason(graph::LinkId l);

  const topo::Topology& base_;
  graph::Graph g_;
  std::vector<std::uint32_t> reasons_;  ///< active down-reasons per link slot
  std::vector<std::vector<graph::LinkId>> incident_;  ///< per switch
  std::uint64_t removed_ = 0;
  std::uint64_t restored_ = 0;
};

}  // namespace flattree::fault
