#include "fault/resilient_controller.hpp"

#include <stdexcept>
#include <utility>

#include "fault/fault_check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flattree::fault {

namespace {

using core::Converter;
using core::ConverterConfig;
using core::Mode;
using core::ReconfigStep;

obs::Counter c_events("fault.ctl.events");
obs::Counter c_steps("fault.ctl.steps_applied");
obs::Counter c_replans("fault.ctl.replans");
obs::Counter c_rollbacks("fault.ctl.rollbacks");
obs::Counter c_recoveries("fault.ctl.recoveries");
obs::Counter c_deferrals("fault.ctl.deferrals");
obs::Counter c_conversions("fault.ctl.conversions_started");
obs::Counter c_completed("fault.ctl.conversions_completed");

}  // namespace

ResilientController::ResilientController(core::FlatTreeConfig config,
                                         ResilientOptions opt)
    : ResilientController(core::FlatTreeNetwork(std::move(config)), opt) {}

ResilientController::ResilientController(core::FlatTreeNetwork net, ResilientOptions opt)
    : core::Controller(std::move(net)),
      state_(net_.params().total_switches(), net_.converters().size()),
      opt_(opt) {}

// -- fault-aware configuration synthesis ------------------------------------

std::vector<ConverterConfig> ResilientController::fault_aware_target(
    const std::vector<Mode>& modes) const {
  const auto& converters = net_.converters();
  std::vector<ConverterConfig> desired = net_.assign_configs(modes);
  std::vector<ConverterConfig> out = configs_;

  // Two refinement passes: home usability depends on the degraded topology,
  // which depends on the chosen configs. Pass 0 judges usability under the
  // live configuration, pass 1 under pass 0's choice — enough to catch a
  // home that the first re-homing itself isolated, while staying a
  // deterministic, bounded amount of work. The passes can disagree when a
  // re-homing restores the very connectivity that justified it (a link-
  // isolated edge regains a transit link under the rescued configuration,
  // so pass 1 would move the servers straight back); the candidate that
  // strands fewer servers wins, ties to the later pass.
  std::vector<std::vector<ConverterConfig>> candidates;
  std::size_t s0 = 0;  // servers pass 0's choice strands
  for (int pass = 0; pass < 2; ++pass) {
    DegradeResult d = degrade(net_.materialize(out), state_);
    if (pass == 1) s0 = d.stranded.size();  // `out` is candidates[0] here
    std::vector<std::uint32_t> degree(d.topo.switch_count(), 0);
    for (const graph::Link& link : d.topo.graph().links()) {
      ++degree[link.a];
      ++degree[link.b];
    }
    auto usable = [&](NodeId v) { return !state_.switch_down(v) && degree[v] > 0; };
    // Best standalone configuration: the preferred one if its home is
    // usable, else aggregation, else edge, else keep the current config
    // (every home is dead — the server is stranded whatever we pick, so
    // avoid pointless churn).
    auto standalone_safe = [&](std::uint32_t idx, ConverterConfig pref) {
      const Converter& c = converters[idx];
      if (!paired_cfg(pref) && usable(core::server_home(c, pref))) return pref;
      if (usable(c.agg)) return ConverterConfig::Local;
      if (usable(c.edge)) return ConverterConfig::Default;
      return paired_cfg(configs_[idx]) ? ConverterConfig::Local : configs_[idx];
    };

    std::vector<ConverterConfig> next(converters.size());
    std::vector<char> done(converters.size(), 0);
    for (std::uint32_t i = 0; i < converters.size(); ++i) {
      if (done[i]) continue;
      const Converter& c = converters[i];
      if (c.peer == core::kNoPeer) {
        done[i] = 1;
        next[i] = state_.converter_stuck(i) ? configs_[i] : standalone_safe(i, desired[i]);
        continue;
      }
      std::uint32_t j = c.peer;
      const Converter& p = converters[j];
      done[i] = done[j] = 1;
      bool i_stuck = state_.converter_stuck(i);
      bool j_stuck = state_.converter_stuck(j);
      if (i_stuck || j_stuck) {
        // Frozen members keep their configuration. A frozen side/cross
        // state freezes the partner too (the pair is one joint physical
        // configuration); a frozen standalone leaves the partner free to
        // pick any safe standalone.
        next[i] = configs_[i];
        next[j] = configs_[j];
        if (!i_stuck && !paired_cfg(configs_[j]))
          next[i] = standalone_safe(i, paired_cfg(desired[i]) ? ConverterConfig::Local
                                                              : desired[i]);
        if (!j_stuck && !paired_cfg(configs_[i]))
          next[j] = standalone_safe(j, paired_cfg(desired[j]) ? ConverterConfig::Local
                                                              : desired[j]);
      } else if (paired_cfg(desired[i]) && usable(c.core) && usable(p.core)) {
        next[i] = desired[i];
        next[j] = desired[j];
      } else {
        next[i] = standalone_safe(i, paired_cfg(desired[i]) ? ConverterConfig::Local
                                                            : desired[i]);
        next[j] = standalone_safe(j, paired_cfg(desired[j]) ? ConverterConfig::Local
                                                            : desired[j]);
      }
    }
    out = std::move(next);
    candidates.push_back(out);
  }
  std::size_t s1 = degrade(net_.materialize(candidates[1]), state_).stranded.size();
  return s0 < s1 ? std::move(candidates[0]) : std::move(candidates[1]);
}

// -- plan decomposition ------------------------------------------------------

std::vector<ResilientController::MicroTx> ResilientController::decompose(
    const std::vector<ReconfigStep>& steps) const {
  const auto& converters = net_.converters();
  std::vector<std::uint32_t> step_of(converters.size(), core::kNoPeer);
  for (std::uint32_t s = 0; s < steps.size(); ++s) step_of[steps[s].converter] = s;

  std::vector<MicroTx> txs;
  std::vector<char> used(steps.size(), 0);
  for (std::uint32_t s = 0; s < steps.size(); ++s) {
    if (used[s]) continue;
    used[s] = 1;
    const ReconfigStep& step = steps[s];
    MicroTx tx;
    tx.steps.push_back(step);
    std::uint32_t peer = converters[step.converter].peer;
    // A step that enters or leaves a side/cross state must land together
    // with its partner's — validate_assignment holds at every transaction
    // boundary only if joint states flip jointly.
    if (peer != core::kNoPeer && step_of[peer] != core::kNoPeer && !used[step_of[peer]]) {
      const ReconfigStep& ps = steps[step_of[peer]];
      if (paired_cfg(step.from) || paired_cfg(step.to) || paired_cfg(ps.from) ||
          paired_cfg(ps.to)) {
        used[step_of[peer]] = 1;
        tx.steps.push_back(ps);
      }
    }
    txs.push_back(std::move(tx));
  }
  return txs;
}

bool ResilientController::tx_blocked(const MicroTx& tx) const {
  for (const ReconfigStep& step : tx.steps) {
    if (state_.converter_stuck(step.converter)) return true;
    if (state_.switch_down(core::server_home(net_.converters()[step.converter], step.to)))
      return true;
  }
  return false;
}

std::size_t ResilientController::apply_tx(const MicroTx& tx) {
  for (const ReconfigStep& step : tx.steps) configs_[step.converter] = step.to;
  c_steps.add(tx.steps.size());
  return tx.steps.size();
}

// -- staged conversions ------------------------------------------------------

void ResilientController::begin_conversion(const std::vector<Mode>& target) {
  if (conversion_in_flight())
    throw std::logic_error("ResilientController: conversion already in flight");
  if (target.size() != net_.params().pods())
    throw std::invalid_argument("ResilientController: one mode per pod required");
  OBS_SPAN("fault.ctl.begin_conversion");
  c_conversions.inc();
  target_modes_ = target;
  preplan_ = configs_;
  replans_used_ = 0;
  retry_pending_ = false;
  backoff_ = 0;
  txs_ = decompose(steps_between(configs_, fault_aware_target(target)));
  tx_pos_ = 0;
  if (txs_.empty()) pod_modes_ = target;  // nothing to move
}

void ResilientController::begin_conversion(Mode target) {
  begin_conversion(std::vector<Mode>(net_.params().pods(), target));
}

std::size_t ResilientController::advance(std::size_t micro_txs) {
  std::size_t applied = 0;
  while (applied < micro_txs && conversion_in_flight()) {
    const MicroTx& tx = txs_[tx_pos_];
    if (tx_blocked(tx)) {
      EventOutcome scratch;
      if (!replan(scratch)) {
        abort_conversion(scratch);
        break;
      }
      continue;  // fresh plan; retry from its first transaction
    }
    apply_tx(tx);
    ++tx_pos_;
    ++applied;
  }
  if (!txs_.empty() && tx_pos_ == txs_.size()) {
    pod_modes_ = target_modes_;
    txs_.clear();
    tx_pos_ = 0;
    c_completed.inc();
  }
  return applied;
}

std::size_t ResilientController::run_to_completion() {
  std::size_t applied = 0;
  while (conversion_in_flight()) {
    const std::size_t step = advance(pending_micro_txs());
    if (step == 0) break;  // aborted
    applied += step;
  }
  return applied;
}

// -- event consumption -------------------------------------------------------

bool ResilientController::needs_replan() const {
  for (std::size_t t = tx_pos_; t < txs_.size(); ++t)
    if (tx_blocked(txs_[t])) return true;
  // Urgent strand: a converter already homes its server on a down switch,
  // could move (not stuck, pair not frozen), and has somewhere to go. The
  // replan folds the re-homing into the remaining plan.
  const auto& converters = net_.converters();
  for (std::uint32_t i = 0; i < converters.size(); ++i) {
    const Converter& c = converters[i];
    if (!state_.switch_down(core::server_home(c, configs_[i]))) continue;
    if (state_.converter_stuck(i)) continue;
    if (paired_cfg(configs_[i]) && c.peer != core::kNoPeer &&
        state_.converter_stuck(c.peer))
      continue;
    if (!state_.switch_down(c.agg) || !state_.switch_down(c.edge)) return true;
  }
  return false;
}

bool ResilientController::replan(EventOutcome& out) {
  if (replans_used_ >= opt_.max_replans) return false;
  ++replans_used_;
  ++out.replans;
  c_replans.inc();
  txs_ = decompose(steps_between(configs_, fault_aware_target(target_modes_)));
  tx_pos_ = 0;
  return true;
}

void ResilientController::abort_conversion(EventOutcome& out) {
  OBS_SPAN("fault.ctl.abort");
  c_rollbacks.inc();
  out.rolled_back = true;
  // Roll the applied prefix back to the pre-plan configuration. Stuck
  // converters are physically immovable, so transactions touching them are
  // skipped — decompose keeps pairs atomic, so skipping preserves
  // assignment validity; the recovery pass below re-homes around whatever
  // could not be undone.
  for (const MicroTx& tx : decompose(steps_between(configs_, preplan_))) {
    bool frozen = false;
    for (const ReconfigStep& step : tx.steps)
      frozen = frozen || state_.converter_stuck(step.converter);
    if (!frozen) out.steps_applied += apply_tx(tx);
  }
  txs_.clear();
  tx_pos_ = 0;
  retry_pending_ = true;
  backoff_ = opt_.backoff_events;
  recover(out);
}

void ResilientController::recover(EventOutcome& out) {
  OBS_SPAN("fault.ctl.recover");
  c_recoveries.inc();
  // Idle-state fault-aware re-homing (also the roll-forward after
  // repairs): steer toward the fault-avoiding realization of the current
  // operating modes. fault_aware_target never moves stuck converters and
  // never breaks joint pair states, so every transaction applies.
  for (const MicroTx& tx : decompose(steps_between(configs_, fault_aware_target(pod_modes_))))
    out.steps_applied += apply_tx(tx);
}

EventOutcome ResilientController::on_event(const FaultEvent& e) {
  if (e.time < now_)
    throw std::invalid_argument("ResilientController: events must be time-ordered");
  OBS_SPAN("fault.ctl.on_event");
  c_events.inc();
  now_ = e.time;
  EventOutcome out;
  out.changed = state_.apply(e);

  if (conversion_in_flight()) {
    if (out.changed && needs_replan() && !replan(out)) abort_conversion(out);
    return out;
  }

  if (retry_pending_) {
    if (backoff_ > 0) {
      --backoff_;
      out.deferred = true;
      c_deferrals.inc();
    }
    if (backoff_ == 0) {
      retry_pending_ = false;
      std::vector<Mode> goal = std::move(target_modes_);
      begin_conversion(goal);
      return out;
    }
  }

  if (out.changed) recover(out);
  return out;
}

// -- degraded views ----------------------------------------------------------

DegradeResult ResilientController::degraded() const {
  return degrade(net_.materialize(configs_), state_);
}

std::vector<topo::ServerId> ResilientController::stranded_servers() const {
  return degraded().stranded;
}

check::Report ResilientController::self_check() const {
  DegradedCheckOptions opts;
  // Avoidably dead homes are an idle-state guarantee: mid-conversion (or
  // while a retry is parked behind backoff) the re-homing lives in the
  // pending transactions, not the live configs.
  opts.flag_avoidable_homes = !conversion_in_flight() && !retry_pending_;
  return check_degraded(net_, configs_, state_, opts);
}

}  // namespace flattree::fault
