#pragma once
// Umbrella header for the self-checking subsystem.
//
// src/check turns "the numbers look plausible" into machine-verified
// invariants: topology validators (check/invariants.hpp), solver
// certificates (check/certify.hpp), path-set checks
// (check/routing_check.hpp), the one forwarding-table model checker for
// ECMP and WCMP tables alike (check/te_check.hpp) and BFS distance
// certificates (check/distances.hpp). Everything reports
// through check::Report and bumps the check.violations / check.runs obs
// counters, so any bench run with --selfcheck and --metrics-json carries
// the verdict in its run manifest.
//
// Entry points:
//   check::validate(topology[, options])   — invariant battery
//   check::equipment_parity(a, b)          — same-hardware cross-check
//   check::certify(graph, commodities, mcf_result[, options])
//   check::validate_paths(graph, src, dst, paths) — k-shortest path sets
//   check::validate_weighted_fib(topology, fib, pairs) — every FIB
//   check::certify_distances(graph, source, dist) — BFS distance arrays

#include "check/certify.hpp"
#include "check/distances.hpp"
#include "check/invariants.hpp"
#include "check/report.hpp"
#include "check/routing_check.hpp"
#include "check/te_check.hpp"
