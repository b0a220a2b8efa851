#pragma once
// Umbrella header for the src/svc subsystem: the long-running flat-tree
// controller service (ISSUE 6).
//
//   protocol.hpp  flattree-svc.v1 request/response grammar and rendering
//   slo.hpp       deadline_ms -> deterministic GK augmentation budgets
//   session.hpp   per-shard state: resilient controller, traffic snapshot,
//                 const read-only executors (query/what_if metrics come
//                 from fault::assess under the SLO budget)
//   service.hpp   the JSON-lines loop: deterministic batching, journaling,
//                 overload shedding, snapshots, recovery, stats
//   durable/journal.hpp   CRC-framed journal v2 (records, gaps, commits)
//   durable/snapshot.hpp  canonical command-sourced state snapshots
//
// The stdin/stdout binary is flattree_svc (src/svc/flattree_svc_main.cpp);
// bench_service drives the same Service class in-process. DESIGN.md
// Section 9 documents the protocol; EXPERIMENTS.md shows how to run it.

#include "svc/durable/journal.hpp"
#include "svc/durable/snapshot.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/session.hpp"
#include "svc/slo.hpp"
