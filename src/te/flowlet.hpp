#pragma once
// Flowlet-based load balancing: re-hash bursty flows at idle gaps.
//
// Per-flow hashing pins a flow to one path for its lifetime, so an
// unlucky hash congests a link forever. Flowlet switching [Sinha et al.,
// FLARE] exploits the burst structure of transport traffic: when a flow
// pauses for longer than the network's path-delay skew, the next burst (a
// "flowlet") can take a different path without reordering. The table
// below detects such gaps in deterministic simulation time and derives a
// fresh hash salt per flowlet with the same two-round splitmix64 mixing
// Rng::substream uses, so rebalancing is a pure function of (flow id,
// observation times) — byte-identical across runs and thread counts.

#include <cstdint>
#include <unordered_map>

namespace flattree::te {

/// Tracks per-flow flowlet state and produces the salted flow id the FIB
/// hash should use. Not thread-safe (the packet simulator is a
/// single-threaded discrete-event loop).
///
/// Long-run memory is bounded: when the table grows past `max_flows`, a
/// sweep evicts every entry idle for more than kEvictGapFactor idle gaps.
/// Eviction is deterministic — it triggers on table size (a pure function
/// of the observation sequence) and the survivor *set* is decided per
/// entry by `now - last_seen`, independent of hash-map iteration order.
/// A live flow (any flow observed within the eviction horizon) keeps its
/// state, so its salts are identical to an unbounded table's; a flow that
/// returns after eviction restarts at flowlet 0 — indistinguishable from
/// a fresh flow, which is exactly how a real switch's finite flowlet
/// table behaves.
class FlowletTable {
 public:
  /// Idle multiple that makes an entry evictable: far beyond any gap that
  /// still matters for reordering.
  static constexpr double kEvictGapFactor = 8.0;
  /// Default table-size watermark that triggers an eviction sweep.
  static constexpr std::size_t kDefaultMaxFlows = 1u << 16;

  /// `idle_gap` is the minimum quiet time that starts a new flowlet;
  /// a non-positive gap disables flowlet detection (salt() returns the
  /// flow id unchanged — plain per-flow hashing). `max_flows` caps the
  /// table before idle entries are swept (see class comment).
  explicit FlowletTable(double idle_gap, std::size_t max_flows = kDefaultMaxFlows);

  /// Observes a packet of `flow_id` at simulation time `now` (times per
  /// flow must be non-decreasing) and returns the flow's current salted
  /// id. The first packet of a flow starts flowlet 0 with salt == flow_id,
  /// so enabling flowlets changes nothing until a gap actually occurs.
  std::uint64_t salt(std::uint64_t flow_id, double now);

  /// Number of flowlet transitions (re-hashes) observed so far.
  std::uint64_t switches() const { return switches_; }
  /// Number of flows currently tracked (evicted entries excluded).
  std::size_t flows() const { return table_.size(); }
  /// Number of idle entries evicted so far (also billed to the
  /// sim.flowlet.evictions counter).
  std::uint64_t evictions() const { return evictions_; }

 private:
  void sweep(double now);

  struct State {
    double last_seen = 0.0;
    std::uint64_t index = 0;  ///< flowlet ordinal within the flow
  };
  std::unordered_map<std::uint64_t, State> table_;
  double idle_gap_;
  std::size_t max_flows_;
  std::size_t sweep_watermark_;
  std::uint64_t switches_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace flattree::te
