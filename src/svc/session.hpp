#pragma once
// Per-session service state: one shard of the flattree-svc.v1 request
// space (the "session" envelope field selects a shard).
//
// A session owns a fault::ResilientController over its own physical plant,
// the current traffic-matrix snapshot, and the warm cache that makes
// --incremental throughput queries cheap without changing a single output
// byte: inc::McfWarmCache, which answers an identical instance with the
// stored result of its cold solve. APL is always the cold
// topo::server_apl_subset.
//
// Mutating executors (build/traffic/fault/convert/expand) are only ever
// called from the service's sequential path. Read-only executors
// (query/what_if) run in two modes: `sequential = true` (batch of one)
// uses the warm cache; `sequential = false` (parallel batch worker)
// evaluates cold and touches no session members beyond const reads —
// both produce the same bytes, so batching never shows in the output.
//
// Error-code families produced here: svc.session.not_built,
// svc.build.bad_params, svc.traffic.bad_demand, svc.fault.bad_event,
// svc.fault.time_regression, svc.convert.in_flight, svc.convert.bad_mode,
// svc.expand.infeasible, svc.expand.in_flight,
// svc.expand.faults_outstanding, svc.design.bad_mix,
// svc.request.bad_field.

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/resilient_controller.hpp"
#include "inc/mcf_warm.hpp"
#include "mcf/commodity.hpp"
#include "svc/protocol.hpp"
#include "svc/slo.hpp"

namespace flattree::svc {

/// Per-shard evaluation knobs, shared by every session of a service run.
struct SessionOptions {
  double epsilon = 0.12;     ///< GK epsilon for throughput queries
  bool incremental = false;  ///< warm MCF cache on the sequential path
  SloPolicy slo;
};

/// One state shard: a resilient controller, its traffic snapshot, and a
/// warm McfWarmCache whose answers are bitwise equal to cold evaluation. Ops arrive pre-parsed as Requests.
class Session {
 public:
  explicit Session(SessionOptions opt) : opt_(opt) {}

  bool built() const { return ctl_ != nullptr; }
  /// The live controller (only valid when built()).
  fault::ResilientController& controller() { return *ctl_; }
  const fault::ResilientController& controller() const { return *ctl_; }

  // Mutating executors — sequential only. Each returns true with `payload`
  // populated, or false with `err` filled and *no state changed* (fault
  // injection dry-runs the whole event batch before applying any of it).
  bool exec_build(const Request& req, obs::JsonValue& payload, RequestError& err);
  bool exec_traffic(const Request& req, obs::JsonValue& payload, RequestError& err);
  bool exec_fault(const Request& req, obs::JsonValue& payload, EvalTally& tally,
                  RequestError& err);
  bool exec_convert(const Request& req, obs::JsonValue& payload, RequestError& err);
  bool exec_expand(const Request& req, obs::JsonValue& payload, RequestError& err);

  // Read-only executors — see the header comment for the two modes.
  bool exec_query(const Request& req, bool sequential, obs::JsonValue& payload,
                  EvalTally& tally, RequestError& err);
  bool exec_what_if(const Request& req, bool sequential, obs::JsonValue& payload,
                    EvalTally& tally, RequestError& err);
  /// Conversion-plan search (design::search) over the session's *clean*
  /// plant — outstanding faults are not modeled; the search plans the
  /// layout the operator would convert the healthy fabric into. Every
  /// engine it needs is constructed locally per call, so batch-of-1 and
  /// batch-of-N evaluations are trivially byte-identical and no
  /// `sequential` flag is needed. deadline_ms caps the iteration count
  /// through SloPolicy (svc.design.* error codes).
  bool exec_design(const Request& req, obs::JsonValue& payload, EvalTally& tally,
                   RequestError& err);

 private:
  bool require_built(RequestError& err) const;
  bool parse_target_modes(const Request& req, std::vector<core::Mode>& modes,
                          RequestError& err) const;
  /// Appends the shared degraded-state metric block (down counts,
  /// stranded, alive, APL, and — when a traffic snapshot is installed and
  /// the request didn't opt out with "lambda": false — the budgeted,
  /// certified throughput fields).
  void metric_block(const Request& req, const fault::DegradeResult& d, bool sequential,
                    obs::JsonValue& payload, EvalTally& tally);

  SessionOptions opt_;
  std::unique_ptr<fault::ResilientController> ctl_;
  std::vector<mcf::ServerDemand> demands_;
  double total_demand_ = 0.0;
  std::unique_ptr<inc::McfWarmCache> warm_;  ///< sequential + incremental only
};

}  // namespace flattree::svc
