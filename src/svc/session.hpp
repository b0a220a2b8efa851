#pragma once
// Per-session service state: one shard of the flattree-svc.v1 request
// space (the "session" envelope field selects a shard).
//
// A session owns a fault::ResilientController over its own physical plant
// and the current traffic-matrix snapshot. query and what_if report one
// fault::assess of the degraded plant: largest-alive-component APL and,
// with a snapshot installed, a fresh certified solve capped at the
// request's SLO budget (budget_augmentations).
//
// Mutating executors (build/traffic/fault/convert/expand) are only ever
// called from the service's sequential path. Read-only executors
// (query/what_if/design) are const: a batch of one and a parallel batch
// worker run the same code, which reads the session and changes nothing,
// so batching never shows in the output.
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
#include "mcf/commodity.hpp"
#include "svc/protocol.hpp"
#include "svc/slo.hpp"

namespace flattree::svc {

/// Per-shard evaluation knobs, shared by every session of a service run.
struct SessionOptions {
  double epsilon = 0.12;  ///< GK epsilon for throughput queries
};

/// One state shard: a resilient controller and its traffic snapshot. Ops
/// arrive pre-parsed as Requests.
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

  // Read-only executors — const, safe from parallel batch workers.
  bool exec_query(const Request& req, obs::JsonValue& payload, EvalTally& tally,
                  RequestError& err) const;
  bool exec_what_if(const Request& req, obs::JsonValue& payload, EvalTally& tally,
                    RequestError& err) const;
  /// Conversion-plan search (design::search) over the session's *clean*
  /// plant — outstanding faults are not modeled; the search plans the
  /// layout the operator would convert the healthy fabric into.
  /// deadline_ms caps the iteration count through budget_iterations
  /// (svc.design.* error codes).
  bool exec_design(const Request& req, obs::JsonValue& payload, EvalTally& tally,
                   RequestError& err) const;

 private:
  bool require_built(RequestError& err) const;
  bool parse_target_modes(const Request& req, std::vector<core::Mode>& modes,
                          RequestError& err) const;
  /// Appends the shared degraded-state metric block (down counts,
  /// stranded, then fault::assess's alive, APL, and — when a traffic
  /// snapshot is installed and the request didn't opt out with "lambda":
  /// false — its budgeted, certified throughput fields).
  void metric_block(const Request& req, const fault::DegradeResult& d,
                    obs::JsonValue& payload, EvalTally& tally) const;

  SessionOptions opt_;
  std::unique_ptr<fault::ResilientController> ctl_;
  std::vector<mcf::ServerDemand> demands_;
};

}  // namespace flattree::svc
