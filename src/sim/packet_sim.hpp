#pragma once
// Discrete-event packet-level simulator.
//
// Complements the fluid flow-level simulator (sim/flow_sim.hpp) with
// queueing behavior: packets traverse the switch fabric hop by hop through
// per-direction output queues, forwarded by a compiled te::WeightedFib —
// equal-cost (te::compile_fib) or weighted (te::compile_wcmp_*) — with
// per-flow hashing. Store-and-forward with finite buffers, so congestion
// shows up as queueing delay and tail drops rather than a fair-share rate.
//
// One (time, seq)-ordered event loop serves both sending disciplines (all
// deterministic discrete-event time, no wall clock; see DESIGN.md §10).
// Its one heap holds each flow's next send plus the packets in flight.
// Queue occupancy comes from a ring per directed arc of the arrival times
// still pending on it (FIFO departures, so they only increase), retired
// when the arc is next used:
//
//   * Drop-tail (ecn = false): open-loop NIC-paced injection. Packet p of
//     flow f is numbered first_packet(f) + p, as if every packet were
//     scheduled up front, and only the flow's next packet waits in the
//     heap; no feedback reaches the sources.
//   * ECN / DCTCP (ecn = true): queues mark packets that arrive to an
//     occupancy >= ecn_threshold; each delivery or drop returns a Credit
//     to its source, which runs a per-flow congestion window with an
//     alpha-EWMA of the marked fraction, multiplicative decrease once per
//     marked window, additive increase otherwise, and a multiplicative cut
//     on loss. Inject events pace the window-clocked sends.
//
// Flowlet load balancing works under both: with flowlet_gap > 0, a flow
// that pauses longer than the gap re-hashes onto a fresh path salt
// (te::FlowletTable) at the next injection.
//
// Time units: a packet of size 1 takes 1/capacity time units to serialize
// onto a link of that capacity; propagation delay is per hop and constant.
// Sizes and rates must be finite and positive, delays finite and
// non-negative, and flow starts finite (std::invalid_argument otherwise).

#include <cstdint>
#include <vector>

#include "te/weighted_fib.hpp"
#include "topo/topology.hpp"

namespace flattree::sim {

/// Fabric, traffic-engineering and congestion-control knobs of a packet run.
struct PacketSimConfig {
  double packet_size = 1.0;       ///< serialization units per packet
  double propagation_delay = 0.01;///< per-hop propagation latency
  std::size_t queue_packets = 16; ///< per-output-queue capacity; 0 = infinite
  double nic_rate = 1.0;          ///< server injection rate (packets/size units)

  // -- traffic engineering --------------------------------------------------
  double flowlet_gap = 0.0;       ///< idle gap starting a new flowlet; <= 0 off
  bool ecn = false;               ///< DCTCP loop on; false = drop-tail baseline
  std::size_t ecn_threshold = 8;  ///< mark at enqueue when occupancy >= K
  double dctcp_gain = 0.0625;     ///< g of the alpha-EWMA (DCTCP's 1/16)
  std::uint32_t init_cwnd = 8;    ///< initial per-flow congestion window
  double ack_delay = 0.0;         ///< delivery/drop feedback latency to source
};

/// A packet train: `packets` packets injected back-to-back at the source
/// NIC rate starting at `start` (window-clocked instead when ecn is on).
struct PacketFlow {
  topo::ServerId src = 0;
  topo::ServerId dst = 0;
  std::uint32_t packets = 1;
  double start = 0.0;
};

/// Aggregate outcome of one PacketSimulator::run.
struct PacketStats {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  double mean_delay = 0.0;  ///< injection-to-delivery, delivered packets (0 if none)
  double max_delay = 0.0;   ///< 0.0 when nothing is delivered
  double p99_delay = 0.0;   ///< 0.0 when nothing is delivered
  double finish_time = 0.0; ///< when the last packet left the network

  // -- flow completion times (per-flow last delivery minus start; flows
  //    with no delivered packet are excluded; all 0.0 when none qualify) --
  double fct_mean = 0.0;
  double fct_p50 = 0.0;
  double fct_p99 = 0.0;
  double fct_max = 0.0;

  // -- congestion signals ---------------------------------------------------
  std::uint64_t ecn_marked = 0;     ///< delivered packets marked at >= 1 hop
  std::uint64_t window_cuts = 0;    ///< multiplicative cwnd decreases
  std::uint64_t flowlet_switches = 0; ///< flowlet re-hashes
  double mean_queue = 0.0;          ///< occupancy sampled at each arc arrival
  double max_queue = 0.0;           ///< largest occupancy sampled

  double loss_rate() const {
    return injected ? static_cast<double>(dropped) / static_cast<double>(injected) : 0.0;
  }
  /// Fraction of delivered packets that carried an ECN mark.
  double mark_rate() const {
    return delivered ? static_cast<double>(ecn_marked) / static_cast<double>(delivered)
                     : 0.0;
  }
};

/// Discrete-event packet simulator over a topology and its forwarding table.
class PacketSimulator {
 public:
  /// `fib` must cover every (host(src), host(dst)) switch pair the flows
  /// use (compile via te::compile_fib or te::compile_wcmp_*). Both
  /// references must outlive the simulator. Throws std::invalid_argument,
  /// naming the field, on a packet_size or nic_rate that is not finite and
  /// positive, a propagation_delay or ack_delay that is not finite and
  /// non-negative, or a zero init_cwnd.
  PacketSimulator(const topo::Topology& topo, const te::WeightedFib& fib,
                  PacketSimConfig config = {});

  /// Runs all flows to completion (or drop) and returns aggregate stats.
  /// Deterministic for a given input ordering. Flows with src == dst are
  /// rejected (std::invalid_argument): the fabric model has nothing to
  /// simulate for them, and silently delivering at zero hops would skew
  /// delay statistics. So is a flow whose start is not finite. Zero-packet flows are legal no-ops, so a run that
  /// delivers nothing reports every delay/FCT statistic as 0.0.
  PacketStats run(const std::vector<PacketFlow>& flows);

 private:
  graph::LinkId select(topo::NodeId at, topo::NodeId dst, std::uint64_t salt) const;

  const topo::Topology& topo_;
  const te::WeightedFib& fib_;
  PacketSimConfig config_;
};

}  // namespace flattree::sim
