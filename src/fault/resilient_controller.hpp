#pragma once
// ResilientController: core::Controller hardened against a live fault
// stream (ISSUE 5 tentpole, paper Section 5's self-recovery argument made
// operational).
//
// The base controller converts between modes with an oracle's view — the
// plan is computed once and applied atomically. This subclass consumes
// FaultEvents in simulated-time order and keeps three guarantees at every
// event boundary:
//
//   1. validity — core::validate_assignment passes after every event and
//      after every partially applied plan. Plans are decomposed into
//      *micro-transactions* (1 step, or the 2 steps of a side/cross pair,
//      which must flip jointly); partial application only ever stops at a
//      micro-transaction boundary, so no observable state has a pair half
//      flipped.
//   2. bounded replanning — when a fault lands mid-reconfiguration and
//      blocks a pending micro-transaction (its converter is stuck, or its
//      target would home a server on a dead switch), the controller
//      replans from the live partial state, at most max_replans times per
//      conversion. Past the budget it aborts: it rolls the applied prefix
//      back to the pre-plan configuration (skipping converters frozen by
//      ConverterStuck — physically immovable), re-homes around the faults,
//      and parks the conversion behind an event-count backoff before
//      retrying.
//   3. link-granularity degradation — a home switch counts as usable only
//      if it is up AND not isolated in the degraded topology (a live
//      switch with every uplink dead is no home). Re-homing prefers the
//      mode's own assignment, falls back per converter to aggregation then
//      edge, freezes stuck converters in place, and keeps side/cross pairs
//      jointly configured; servers with no live home stay stranded rather
//      than being pointed at dead equipment.
//
// Everything is a pure function of the event sequence — no wall clock, no
// randomness — so identical traces produce identical controller histories
// at any thread count (bench_chaos's equivalence checks rely on it).

#include <cstdint>
#include <vector>

#include "check/report.hpp"
#include "core/controller.hpp"
#include "fault/degrade.hpp"
#include "fault/event.hpp"
#include "fault/state.hpp"

namespace flattree::fault {

/// Replanning policy for ResilientController.
struct ResilientOptions {
  /// Replans allowed per conversion before it aborts (rollback + backoff).
  std::uint32_t max_replans = 3;
  /// Events to wait after an aborted conversion before retrying it.
  std::uint32_t backoff_events = 2;
};

/// What one on_event() did.
struct EventOutcome {
  bool changed = false;            ///< the event was an up/down edge
  std::size_t steps_applied = 0;   ///< converter steps executed (recovery/rollback)
  std::uint32_t replans = 0;       ///< replans consumed by this event
  bool rolled_back = false;        ///< in-flight conversion aborted
  bool deferred = false;           ///< retry still parked behind backoff
};

/// A core::Controller that consumes a fault trace in time order and keeps
/// the converter assignment valid after every event, replanning (with a
/// bounded budget, rollback, and backoff) when faults invalidate the
/// in-flight conversion.
class ResilientController : public core::Controller {
 public:
  explicit ResilientController(core::FlatTreeConfig config, ResilientOptions opt = {});
  /// Adopts an already-built plant (generic Clos layouts, core::expand
  /// results) with a fresh, all-up fault state.
  explicit ResilientController(core::FlatTreeNetwork net, ResilientOptions opt = {});

  const FaultState& fault_state() const { return state_; }
  const ResilientOptions& options() const { return opt_; }
  double now() const { return now_; }

  /// Consumes one event (times must be non-decreasing;
  /// std::invalid_argument on regression). Applies the fault, then — if a
  /// conversion is in flight — replans/aborts as needed, otherwise runs
  /// the fault-aware recovery pass (also the roll-forward on repairs).
  EventOutcome on_event(const FaultEvent& e);

  // -- staged conversions (the mid-reconfiguration surface) ----------------
  /// Starts a conversion toward per-pod `target` modes without applying
  /// anything (std::logic_error if one is already in flight). Drive it
  /// with advance(); events may land between any two micro-transactions.
  void begin_conversion(const std::vector<core::Mode>& target);
  void begin_conversion(core::Mode target);

  bool conversion_in_flight() const { return tx_pos_ < txs_.size(); }
  std::size_t pending_micro_txs() const { return txs_.size() - tx_pos_; }

  /// Applies up to `micro_txs` pending micro-transactions; returns how
  /// many were applied. A blocked transaction triggers a replan (bounded)
  /// or an abort, exactly like a mid-flight event.
  std::size_t advance(std::size_t micro_txs);
  /// Advances until the conversion completes or aborts (an abort parks it
  /// behind the event backoff); returns the micro-transactions applied.
  std::size_t run_to_completion();

  // -- degraded views ------------------------------------------------------
  /// Degraded logical topology + stranded servers under the live configs
  /// and fault state.
  DegradeResult degraded() const;
  std::vector<topo::ServerId> stranded_servers() const;

  /// Full validity battery for the current instant: assignment validity,
  /// no avoidably dead homes, degraded topology invariants (see
  /// fault::check_degraded). Empty report == all guarantees hold.
  check::Report self_check() const;

  /// The fault-avoiding configuration the controller steers toward for
  /// `modes` (exposed for tests; pure function of live state).
  std::vector<core::ConverterConfig> fault_aware_target(
      const std::vector<core::Mode>& modes) const;

 private:
  struct MicroTx {
    std::vector<core::ReconfigStep> steps;  ///< 1, or 2 for a joint pair flip
  };

  static bool paired_cfg(core::ConverterConfig c) { return core::is_pair_config(c); }
  std::vector<MicroTx> decompose(const std::vector<core::ReconfigStep>& steps) const;
  bool tx_blocked(const MicroTx& tx) const;
  std::size_t apply_tx(const MicroTx& tx);
  /// True if any in-flight pending transaction is blocked or any converter
  /// is avoidably homed on dead equipment (the mid-flight replan trigger).
  bool needs_replan() const;
  bool replan(EventOutcome& out);
  void abort_conversion(EventOutcome& out);
  void recover(EventOutcome& out);

  FaultState state_;
  ResilientOptions opt_;
  double now_ = 0.0;

  std::vector<core::Mode> target_modes_;            ///< in-flight/parked goal
  std::vector<core::ConverterConfig> preplan_;      ///< rollback baseline
  std::vector<MicroTx> txs_;
  std::size_t tx_pos_ = 0;
  std::uint32_t replans_used_ = 0;
  std::uint32_t backoff_ = 0;
  bool retry_pending_ = false;
};

}  // namespace flattree::fault
