#pragma once
// Umbrella header for the traffic-engineering subsystem.
//
// src/te holds the fabric's forwarding tables, compiled from src/routing's
// path sets, and feeds the packet simulator's congestion machinery:
//
//   te::WeightedFib        — the one forwarding-table type: next-hop rules
//                            per (switch, dst) entry; ECMP tables carry
//                            weight 1 everywhere (te/weighted_fib.hpp)
//   te::compile_fib        — equal-cost (ECMP) table from path sets
//   te::compile_wcmp_paths — weights from path multiplicities,
//                            largest-remainder quantized (te/wcmp.hpp)
//   te::FlowletTable       — idle-gap flowlet detection with substream
//                            salt mixing (te/flowlet.hpp)
//
// Every table is model-checked by check::validate_weighted_fib
// (check/te_check.hpp). The DCTCP-style ECN control loop lives in
// sim::PacketSimulator (sim/packet_sim.hpp) and consumes WeightedFib +
// FlowletTable; see DESIGN.md §11 for the determinism contract.

#include "te/flowlet.hpp"
#include "te/wcmp.hpp"
#include "te/weighted_fib.hpp"
