#pragma once
// Event-driven flow-level network simulator.
//
// Flows are fluid: each active flow transmits at its max-min fair rate
// (sim/fair_share.hpp) over the resources it occupies — every directed
// link on its switch path plus the source and destination server NICs.
// Rates are recomputed at every arrival and completion, which is exact
// for the fluid model. Extends the paper's evaluation with flow-completion
// -time comparisons across topologies and routing schemes.

#include <cstdint>
#include <vector>

#include "routing/paths.hpp"
#include "topo/topology.hpp"

namespace flattree::sim {

/// One fluid flow: a data volume between two servers, arriving at a time.
struct SimFlow {
  topo::ServerId src = 0;
  topo::ServerId dst = 0;
  double size = 1.0;     ///< data volume (capacity units x time)
  double arrival = 0.0;  ///< arrival time
};

/// Outcome of one simulated flow: its finish time and switch-path length.
struct FlowRecord {
  SimFlow flow;
  double finish = 0.0;
  std::uint32_t hops = 0;  ///< switch-path links (0 = same-switch)
  double fct() const { return finish - flow.arrival; }
};

/// Host-side knobs of a flow-level run.
struct SimConfig {
  double nic_capacity = 1.0;  ///< server NIC rate, in link-capacity units
};

/// Fluid max-min fair simulator over a topology and a routing scheme.
class FlowSimulator {
 public:
  /// `routing` selects switch-level paths on `topo`'s graph; both must
  /// outlive the simulator.
  FlowSimulator(const topo::Topology& topo, routing::Routing& routing,
                SimConfig config = {});

  /// Simulates to completion and returns one record per flow (input
  /// order). Throws std::invalid_argument on empty input or src == dst.
  std::vector<FlowRecord> run(std::vector<SimFlow> flows);

 private:
  const topo::Topology& topo_;
  routing::Routing& routing_;
  SimConfig config_;
};

}  // namespace flattree::sim
