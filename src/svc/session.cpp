#include "svc/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/expansion.hpp"
#include "design/design.hpp"
#include "fault/degrade.hpp"
#include "topo/apl.hpp"
#include "workload/cluster.hpp"
#include "workload/traffic.hpp"

namespace flattree::svc {

namespace {

bool fail(RequestError& err, const char* code, std::string message) {
  err.code = code;
  err.message = std::move(message);
  return false;
}

bool parse_mode(const std::string& token, core::Mode& out) {
  if (token == "clos") {
    out = core::Mode::Clos;
  } else if (token == "global") {
    out = core::Mode::GlobalRandom;
  } else if (token == "local") {
    out = core::Mode::LocalRandom;
  } else {
    return false;
  }
  return true;
}

}  // namespace

bool Session::require_built(RequestError& err) const {
  if (built()) return true;
  return fail(err, "svc.session.not_built",
              "session has no plant; send a 'build' request first");
}

bool Session::parse_target_modes(const Request& req, std::vector<core::Mode>& modes,
                                 RequestError& err) const {
  const obs::JsonValue* target = req.body.find("target");
  if (target == nullptr)
    return fail(err, "svc.request.bad_field", "field 'target' is required");
  const std::uint32_t pods = ctl_->network().params().pods();
  if (target->is_string()) {
    core::Mode m;
    if (!parse_mode(target->as_string(), m))
      return fail(err, "svc.convert.bad_mode",
                  "unknown mode '" + target->as_string() + "'; valid: clos, global, local");
    modes.assign(pods, m);
    return true;
  }
  if (target->is_array()) {
    if (target->array().size() != pods)
      return fail(err, "svc.convert.bad_mode",
                  "per-pod target needs exactly " + std::to_string(pods) + " modes");
    modes.clear();
    for (const obs::JsonValue& v : target->array()) {
      core::Mode m;
      if (!v.is_string() || !parse_mode(v.as_string(), m))
        return fail(err, "svc.convert.bad_mode",
                    "per-pod target entries must be clos | global | local");
      modes.push_back(m);
    }
    return true;
  }
  return fail(err, "svc.convert.bad_mode", "field 'target': expected string or array");
}

bool Session::exec_build(const Request& req, obs::JsonValue& payload, RequestError& err) {
  bool present = false;
  std::uint64_t m64 = core::FlatTreeConfig::kProfiled, n64 = core::FlatTreeConfig::kProfiled;
  if (!req_u64(req.body, "m", 1u << 20, m64, present, err)) return false;
  if (!req_u64(req.body, "n", 1u << 20, n64, present, err)) return false;
  const std::uint32_t m = static_cast<std::uint32_t>(m64);
  const std::uint32_t n = static_cast<std::uint32_t>(n64);

  std::string mode_token = "clos";
  if (!req_string(req.body, "mode", mode_token, present, err)) return false;
  core::Mode mode;
  if (!parse_mode(mode_token, mode))
    return fail(err, "svc.convert.bad_mode",
                "unknown mode '" + mode_token + "'; valid: clos, global, local");

  std::uint64_t k = 0;
  bool has_k = false;
  if (!req_u64(req.body, "k", 1u << 16, k, has_k, err)) return false;

  std::unique_ptr<fault::ResilientController> next;
  try {
    if (has_k) {
      core::FlatTreeConfig cfg;
      cfg.k = static_cast<std::uint32_t>(k);
      cfg.m = m;
      cfg.n = n;
      next = std::make_unique<fault::ResilientController>(cfg);
    } else {
      // Generic (possibly oversubscribed) Clos layout: all eight layout
      // fields are required.
      std::uint64_t v[8];
      const char* keys[8] = {"pods", "d", "r", "h", "servers_per_edge",
                             "edge_ports", "agg_ports", "core_ports"};
      for (int i = 0; i < 8; ++i) {
        bool has = false;
        if (!req_u64(req.body, keys[i], 1u << 20, v[i], has, err)) return false;
        if (!has)
          return fail(err, "svc.build.bad_params",
                      std::string("build needs 'k' or all of pods/d/r/h/"
                                  "servers_per_edge/edge_ports/agg_ports/core_ports "
                                  "(missing '") + keys[i] + "')");
      }
      topo::ClosParams params = topo::ClosParams::make_generic(
          static_cast<std::uint32_t>(v[0]), static_cast<std::uint32_t>(v[1]),
          static_cast<std::uint32_t>(v[2]), static_cast<std::uint32_t>(v[3]),
          static_cast<std::uint32_t>(v[4]), static_cast<std::uint32_t>(v[5]),
          static_cast<std::uint32_t>(v[6]), static_cast<std::uint32_t>(v[7]));
      next = std::make_unique<fault::ResilientController>(
          core::FlatTreeNetwork(params, m, n));
    }
  } catch (const std::invalid_argument& e) {
    return fail(err, "svc.build.bad_params", e.what());
  }

  std::size_t steps = 0;
  if (mode != core::Mode::Clos) {
    next->begin_conversion(mode);
    while (next->conversion_in_flight()) {
      std::size_t applied = next->advance(next->pending_micro_txs());
      steps += applied;
      if (applied == 0) break;
    }
  }

  // Commit: replace the plant and drop the old traffic snapshot.
  ctl_ = std::move(next);
  demands_.clear();
  total_demand_ = 0.0;

  const topo::ClosParams& p = ctl_->network().params();
  put(payload, "pods", jint(p.pods()));
  put(payload, "switches", jint(p.total_switches()));
  put(payload, "servers", jint(p.total_servers()));
  put(payload, "converters", jint(static_cast<std::int64_t>(ctl_->network().converters().size())));
  put(payload, "mode", jstr(mode_token));
  put(payload, "steps", jint(static_cast<std::int64_t>(steps)));
  return true;
}

bool Session::exec_traffic(const Request& req, obs::JsonValue& payload, RequestError& err) {
  if (!require_built(err)) return false;
  const std::uint32_t servers = ctl_->network().params().total_servers();

  std::vector<mcf::ServerDemand> next;
  if (const obs::JsonValue* list = req.body.find("demands"); list != nullptr) {
    if (!list->is_array())
      return fail(err, "svc.request.bad_field", "field 'demands': expected an array");
    next.reserve(list->array().size());
    for (std::size_t i = 0; i < list->array().size(); ++i) {
      const obs::JsonValue& d = list->array()[i];
      const obs::JsonValue* src = d.find("src");
      const obs::JsonValue* dst = d.find("dst");
      const obs::JsonValue* demand = d.find("demand");
      std::string why;
      if (!d.is_object() || src == nullptr || dst == nullptr || demand == nullptr)
        why = "needs object with src, dst, demand";
      else if (!src->is_int() || !dst->is_int() || !demand->is_number())
        why = "src/dst must be integers, demand a number";
      else if (src->as_int() < 0 || src->as_int() >= servers || dst->as_int() < 0 ||
               dst->as_int() >= servers)
        why = "src/dst out of range [0, " + std::to_string(servers) + ")";
      else if (src->as_int() == dst->as_int())
        why = "src == dst";
      else if (!(demand->as_number() > 0.0))
        why = "demand must be > 0";
      if (!why.empty())
        return fail(err, "svc.traffic.bad_demand",
                    "demands[" + std::to_string(i) + "]: " + why);
      next.push_back({static_cast<topo::ServerId>(src->as_int()),
                      static_cast<topo::ServerId>(dst->as_int()), demand->as_number()});
    }
  } else {
    // Generated workload: cluster placement + pattern, seeded.
    bool present = false;
    // Default cluster size clamps to the plant so small topologies get a
    // non-empty workload instead of silently rounding down to 0 clusters.
    std::uint64_t cluster = std::min<std::uint64_t>(40, servers), seed = 1;
    std::string pattern_token = "broadcast", placement_token = "none";
    if (!req_u64(req.body, "cluster", servers, cluster, present, err)) return false;
    if (cluster == 0) return fail(err, "svc.request.bad_field", "field 'cluster': must be >= 1");
    if (!req_u64(req.body, "seed", ~std::uint64_t{0} >> 1, seed, present, err)) return false;
    if (!req_string(req.body, "pattern", pattern_token, present, err)) return false;
    if (!req_string(req.body, "placement", placement_token, present, err)) return false;

    workload::Pattern pattern;
    if (pattern_token == "broadcast") {
      pattern = workload::Pattern::Broadcast;
    } else if (pattern_token == "incast") {
      pattern = workload::Pattern::Incast;
    } else if (pattern_token == "all_to_all") {
      pattern = workload::Pattern::AllToAll;
    } else {
      return fail(err, "svc.traffic.bad_pattern",
                  "unknown pattern '" + pattern_token +
                      "'; valid: broadcast, incast, all_to_all");
    }
    workload::Placement placement;
    if (placement_token == "locality") {
      placement = workload::Placement::Locality;
    } else if (placement_token == "weak") {
      placement = workload::Placement::WeakLocality;
    } else if (placement_token == "none") {
      placement = workload::Placement::NoLocality;
    } else {
      return fail(err, "svc.traffic.bad_pattern",
                  "unknown placement '" + placement_token +
                      "'; valid: locality, weak, none");
    }

    util::Rng rng(seed);
    auto clusters = workload::make_clusters(servers, static_cast<std::uint32_t>(cluster),
                                            placement,
                                            ctl_->network().params().servers_per_pod(), rng);
    next = workload::cluster_traffic(clusters, pattern, rng);
  }

  demands_ = std::move(next);
  total_demand_ = 0.0;
  for (const auto& d : demands_) total_demand_ += d.demand;

  put(payload, "demands", jint(static_cast<std::int64_t>(demands_.size())));
  put(payload, "total", jdouble(total_demand_));
  return true;
}

bool Session::exec_fault(const Request& req, obs::JsonValue& payload, EvalTally& tally,
                         RequestError& err) {
  if (!require_built(err)) return false;
  const obs::JsonValue* list = req.body.find("events");
  if (list == nullptr || !list->is_array())
    return fail(err, "svc.request.bad_field", "field 'events' (array) is required");

  // Parse every event first; nothing is applied until the whole batch
  // validates against a dry-run copy of the fault state, so a rejected
  // request leaves the session byte-identical to before.
  std::vector<fault::FaultEvent> events;
  events.reserve(list->array().size());
  for (std::size_t i = 0; i < list->array().size(); ++i) {
    const obs::JsonValue& e = list->array()[i];
    auto bad = [&](const std::string& why) {
      return fail(err, "svc.fault.bad_event", "events[" + std::to_string(i) + "]: " + why);
    };
    if (!e.is_object()) return bad("expected an object");
    const obs::JsonValue* t = e.find("t");
    const obs::JsonValue* kind = e.find("kind");
    const obs::JsonValue* a = e.find("a");
    const obs::JsonValue* b = e.find("b");
    if (t == nullptr || !t->is_number()) return bad("field 't' (number) is required");
    if (kind == nullptr || !kind->is_string()) return bad("field 'kind' (string) is required");
    if (a == nullptr || !a->is_int() || a->as_int() < 0)
      return bad("field 'a' (non-negative integer) is required");
    fault::FaultEvent ev;
    ev.time = t->as_number();
    if (!fault::parse_fault_kind(kind->as_string(), ev.kind))
      return bad("unknown kind '" + kind->as_string() + "'");
    ev.a = static_cast<fault::NodeId>(a->as_int());
    ev.b = 0;
    const bool link = ev.kind == fault::FaultKind::LinkDown ||
                      ev.kind == fault::FaultKind::LinkUp;
    if (link) {
      if (b == nullptr || !b->is_int() || b->as_int() < 0)
        return bad("link events need field 'b' (non-negative integer)");
      ev.b = static_cast<fault::NodeId>(b->as_int());
    } else if (b != nullptr) {
      return bad("field 'b' is only valid on link events");
    }
    events.push_back(ev);
  }

  double last = ctl_->now();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].time < last)
      return fail(err, "svc.fault.time_regression",
                  "events[" + std::to_string(i) + "]: time " +
                      obs::json_number(events[i].time) + " is before " +
                      obs::json_number(last));
    last = events[i].time;
  }

  fault::FaultState probe = ctl_->fault_state();
  for (std::size_t i = 0; i < events.size(); ++i) {
    try {
      probe.apply(events[i]);
    } catch (const std::invalid_argument& e) {
      return fail(err, "svc.fault.bad_event",
                  "events[" + std::to_string(i) + "]: " + e.what());
    }
  }

  // 'advance' must validate before any event is applied: a rejected
  // request may not mutate the session (atomicity invariant above).
  bool advance_present = false;
  std::uint64_t advance = 0;
  if (!req_u64(req.body, "advance", 1u << 30, advance, advance_present, err)) return false;

  std::size_t changed = 0, recovery_steps = 0;
  std::uint32_t replans = 0;
  bool rolled_back = false;
  for (const fault::FaultEvent& e : events) {
    fault::EventOutcome out = ctl_->on_event(e);
    changed += out.changed ? 1 : 0;
    recovery_steps += out.steps_applied;
    replans += out.replans;
    rolled_back = rolled_back || out.rolled_back;
  }
  tally.fault_events += events.size();

  std::size_t advanced = advance_present ? ctl_->advance(advance) : 0;

  const fault::FaultState& fs = ctl_->fault_state();
  put(payload, "events", jint(static_cast<std::int64_t>(events.size())));
  put(payload, "changed", jint(static_cast<std::int64_t>(changed)));
  put(payload, "recovery_steps", jint(static_cast<std::int64_t>(recovery_steps)));
  put(payload, "replans", jint(replans));
  put(payload, "rolled_back", jbool(rolled_back));
  put(payload, "advanced", jint(static_cast<std::int64_t>(advanced)));
  put(payload, "down_switches", jint(static_cast<std::int64_t>(fs.down_switch_count())));
  put(payload, "down_pairs", jint(static_cast<std::int64_t>(fs.down_pair_count())));
  put(payload, "stuck", jint(static_cast<std::int64_t>(fs.stuck_converter_count())));
  put(payload, "stranded", jint(static_cast<std::int64_t>(ctl_->stranded_servers().size())));
  return true;
}

bool Session::exec_convert(const Request& req, obs::JsonValue& payload, RequestError& err) {
  if (!require_built(err)) return false;

  std::uint64_t advance = 0;
  bool has_advance = false;
  if (!req_u64(req.body, "advance", 1u << 30, advance, has_advance, err)) return false;

  const bool has_target = req.body.find("target") != nullptr;
  if (!has_target && !has_advance)
    return fail(err, "svc.request.bad_field", "convert needs 'target' and/or 'advance'");

  bool began = false;
  if (has_target) {
    if (ctl_->conversion_in_flight())
      return fail(err, "svc.convert.in_flight",
                  "a conversion is already in flight; drive it with 'advance' or "
                  "query hypotheticals with 'what_if'");
    std::vector<core::Mode> modes;
    if (!parse_target_modes(req, modes, err)) return false;
    ctl_->begin_conversion(modes);
    began = true;
  }

  std::size_t applied = 0;
  if (has_advance) {
    applied = ctl_->advance(advance);
  } else {
    // No step cap: drain to completion (stops early only on an abort,
    // which parks the conversion behind the event backoff).
    while (ctl_->conversion_in_flight()) {
      std::size_t step = ctl_->advance(ctl_->pending_micro_txs());
      applied += step;
      if (step == 0) break;
    }
  }

  put(payload, "began", jbool(began));
  put(payload, "applied", jint(static_cast<std::int64_t>(applied)));
  put(payload, "in_flight", jbool(ctl_->conversion_in_flight()));
  put(payload, "pending", jint(static_cast<std::int64_t>(ctl_->pending_micro_txs())));
  put(payload, "stranded", jint(static_cast<std::int64_t>(ctl_->stranded_servers().size())));
  return true;
}

bool Session::exec_expand(const Request& req, obs::JsonValue& payload, RequestError& err) {
  if (!require_built(err)) return false;

  bool present = false;
  std::uint64_t pods = 0;
  if (!req_u64(req.body, "pods", 1u << 16, pods, present, err)) return false;
  if (!present || pods == 0)
    return fail(err, "svc.request.bad_field", "field 'pods' (integer >= 1) is required");
  bool apply = false;
  if (!req_bool(req.body, "apply", apply, present, err)) return false;

  core::ExpansionPlan plan;
  try {
    plan = core::plan_expansion(ctl_->network().params(),
                                static_cast<std::uint32_t>(pods),
                                ctl_->network().config().chain);
  } catch (const std::invalid_argument& e) {
    return fail(err, "svc.expand.infeasible", e.what());
  }

  if (apply) {
    // Expansion is physical work: refuse while a conversion is mid-plan or
    // faults are outstanding — the expanded plant starts from a clean,
    // all-up Clos assignment.
    if (ctl_->conversion_in_flight())
      return fail(err, "svc.expand.in_flight",
                  "cannot apply an expansion while a conversion is in flight");
    if (!ctl_->fault_state().clean())
      return fail(err, "svc.expand.faults_outstanding",
                  "cannot apply an expansion while faults are outstanding");
    core::FlatTreeNetwork expanded = core::expand(ctl_->network(), plan);
    ctl_ = std::make_unique<fault::ResilientController>(std::move(expanded),
                                                        ctl_->options());
    // Server ids changed: the old traffic snapshot is void.
    demands_.clear();
    total_demand_ = 0.0;
  }

  put(payload, "pods_added", jint(plan.pods_added));
  put(payload, "new_switches", jint(static_cast<std::int64_t>(plan.new_switches)));
  put(payload, "new_servers", jint(static_cast<std::int64_t>(plan.new_servers)));
  put(payload, "new_core_links", jint(static_cast<std::int64_t>(plan.new_core_links)));
  put(payload, "side_bundles_spliced",
      jint(static_cast<std::int64_t>(plan.side_bundles_spliced)));
  put(payload, "pods_after", jint(plan.after.pods()));
  put(payload, "applied", jbool(apply));
  if (apply) {
    put(payload, "switches", jint(ctl_->network().params().total_switches()));
    put(payload, "servers", jint(ctl_->network().params().total_servers()));
  }
  return true;
}

void Session::metric_block(const Request& req, const fault::DegradeResult& d,
                           obs::JsonValue& payload, EvalTally& tally) const {
  const topo::Topology& t = d.topo;
  std::vector<char> stranded(t.server_count(), 0);
  for (topo::ServerId s : d.stranded) stranded[s] = 1;

  const fault::FaultState& fs = controller().fault_state();
  put(payload, "down_switches", jint(static_cast<std::int64_t>(fs.down_switch_count())));
  put(payload, "down_pairs", jint(static_cast<std::int64_t>(fs.down_pair_count())));
  put(payload, "stuck", jint(static_cast<std::int64_t>(fs.stuck_converter_count())));
  put(payload, "stranded", jint(static_cast<std::int64_t>(d.stranded.size())));

  std::vector<topo::ServerId> subset = fault::largest_alive_component(t, stranded);
  put(payload, "alive", jint(static_cast<std::int64_t>(subset.size())));

  double apl = 0.0;
  if (subset.size() >= 2) {
    apl = topo::server_apl_subset(t, subset).average;
  }
  put(payload, "apl", jdouble(apl));

  bool want_lambda = true;
  if (const obs::JsonValue* v = req.body.find("lambda"); v != nullptr && v->is_bool())
    want_lambda = v->as_bool();
  if (!want_lambda || demands_.empty()) return;

  std::vector<mcf::ServerDemand> alive;
  double alive_demand = 0.0;
  for (const auto& dem : demands_)
    if (!stranded[dem.src] && !stranded[dem.dst]) {
      alive.push_back(dem);
      alive_demand += dem.demand;
    }
  double alive_frac = total_demand_ > 0.0 ? alive_demand / total_demand_ : 1.0;
  auto commodities = mcf::aggregate_to_switches(t, alive);

  const std::uint64_t budget = budget_augmentations(opt_.slo, req.deadline_ms);
  if (commodities.empty()) {
    put(payload, "lambda_lower", jdouble(0.0));
    put(payload, "lambda_upper", jdouble(0.0));
    put(payload, "served", jdouble(alive.empty() ? 0.0 : alive_frac));
    put(payload, "truncated", jbool(false));
    put(payload, "certified", jbool(true));
    put(payload, "budget", jint(static_cast<std::int64_t>(budget)));
    return;
  }

  SloSolve s = solve_with_budget(t.graph(), commodities, opt_.epsilon, budget);
  tally.solves += 1;
  tally.truncated += s.result.truncated ? 1 : 0;
  tally.certified += s.certified ? 1 : 0;

  put(payload, "lambda_lower", jdouble(s.result.lambda_lower));
  put(payload, "lambda_upper", jdouble(s.result.lambda_upper));
  put(payload, "served", jdouble(alive_frac * s.result.served_fraction));
  put(payload, "truncated", jbool(s.result.truncated));
  put(payload, "certified", jbool(s.certified));
  put(payload, "budget", jint(static_cast<std::int64_t>(budget)));
}

bool Session::exec_query(const Request& req, obs::JsonValue& payload, EvalTally& tally,
                         RequestError& err) const {
  if (!require_built(err)) return false;
  metric_block(req, controller().degraded(), payload, tally);
  return true;
}

bool Session::exec_what_if(const Request& req, obs::JsonValue& payload, EvalTally& tally,
                           RequestError& err) const {
  if (!require_built(err)) return false;
  std::vector<core::Mode> modes;
  if (!parse_target_modes(req, modes, err)) return false;

  // Pure hypothetical: the fault-avoiding configuration the controller
  // *would* steer toward, materialized and degraded, without touching the
  // live assignment — legal even mid-conversion.
  const fault::ResilientController& ctl = controller();
  std::vector<core::ConverterConfig> cfgs = ctl.fault_aware_target(modes);
  const std::vector<core::ConverterConfig>& live = ctl.current_configs();
  std::size_t steps = 0;
  for (std::size_t i = 0; i < cfgs.size(); ++i)
    if (cfgs[i] != live[i]) ++steps;

  fault::DegradeResult d =
      fault::degrade(ctl.network().materialize(cfgs), ctl.fault_state());
  put(payload, "steps", jint(static_cast<std::int64_t>(steps)));
  metric_block(req, d, payload, tally);
  return true;
}

bool Session::exec_design(const Request& req, obs::JsonValue& payload,
                          EvalTally& tally, RequestError& err) const {
  if (!require_built(err)) return false;

  std::uint64_t seed = 1, iters = 16;
  bool present = false;
  if (!req_u64(req.body, "seed", ~std::uint64_t{0}, seed, present, err)) return false;
  if (!req_u64(req.body, "iters", 4096, iters, present, err)) return false;

  design::WorkloadMix mix = design::WorkloadMix::defaults();
  mix.seed = seed;
  mix.epsilon = opt_.epsilon;
  if (const obs::JsonValue* list = req.body.find("mix"); list != nullptr) {
    if (!list->is_array() || list->array().empty())
      return fail(err, "svc.design.bad_mix",
                  "field 'mix' must be a non-empty array of components");
    mix.components.clear();
    for (std::size_t i = 0; i < list->array().size(); ++i) {
      const obs::JsonValue& e = list->array()[i];
      auto bad = [&](const std::string& why) {
        return fail(err, "svc.design.bad_mix",
                    "mix[" + std::to_string(i) + "]: " + why);
      };
      if (!e.is_object()) return bad("expected an object");
      design::Component comp;
      const obs::JsonValue* kind = e.find("kind");
      if (kind == nullptr || !kind->is_string())
        return bad("field 'kind' (string) is required");
      try {
        comp.kind = design::parse_pattern_kind(kind->as_string());
        if (const obs::JsonValue* v = e.find("affinity"); v != nullptr) {
          if (!v->is_string()) return bad("field 'affinity' must be a string");
          comp.affinity = design::parse_affinity(v->as_string());
        }
      } catch (const std::runtime_error& ex) {
        return bad(ex.what());
      }
      if (const obs::JsonValue* v = e.find("cluster"); v != nullptr) {
        if (!v->is_int() || v->as_int() < 2)
          return bad("field 'cluster' must be an integer >= 2");
        comp.cluster = static_cast<std::uint32_t>(v->as_int());
      }
      if (const obs::JsonValue* v = e.find("count"); v != nullptr) {
        if (!v->is_int() || v->as_int() < 0)
          return bad("field 'count' must be a non-negative integer");
        comp.count = static_cast<std::uint32_t>(v->as_int());
      }
      if (const obs::JsonValue* v = e.find("placement"); v != nullptr) {
        if (!v->is_string()) return bad("field 'placement' must be a string");
        const std::string& token = v->as_string();
        if (token == "locality") {
          comp.placement = workload::Placement::Locality;
        } else if (token == "weak") {
          comp.placement = workload::Placement::WeakLocality;
        } else if (token == "none") {
          comp.placement = workload::Placement::NoLocality;
        } else {
          return bad("unknown placement '" + token + "'; valid: locality, weak, none");
        }
      }
      if (const obs::JsonValue* v = e.find("weight"); v != nullptr) {
        if (!v->is_number() || v->as_number() <= 0.0)
          return bad("field 'weight' must be a positive number");
        comp.weight = v->as_number();
      }
      if (const obs::JsonValue* v = e.find("skew"); v != nullptr) {
        if (!v->is_number() || v->as_number() <= 0.0)
          return bad("field 'skew' must be a positive number");
        comp.skew = v->as_number();
      }
      mix.components.push_back(comp);
    }
  }

  // Deadline -> iteration budget; the applied count is deterministic (a
  // pure function of the request), never wall-clock.
  const std::uint64_t budget = budget_iterations(opt_.slo, req.deadline_ms);
  const std::uint64_t applied = budget > 0 ? std::min(iters, budget) : iters;

  design::SearchOptions sopt;
  sopt.seed = seed;
  sopt.iterations = static_cast<std::uint32_t>(applied);
  design::SearchResult result = design::search(controller().network(), mix, sopt);

  double uniform_best = 0.0;
  core::Mode uniform_mode = core::Mode::Clos;
  std::uint64_t uniforms_certified = 0;
  for (const design::UniformScore& u : result.uniforms) {
    if (u.score.objective > uniform_best) {
      uniform_best = u.score.objective;
      uniform_mode = u.mode;
    }
    if (u.certified) ++uniforms_certified;
  }

  // Work accounting: 3 uniform baselines + the initial walk score + one
  // walk score per decided move + the cold certified rescore.
  tally.solves += 3 + 1 + result.accepted + result.rejected + 1;
  tally.certified += uniforms_certified + (result.certified ? 1 : 0);

  auto mode_token = [](core::Mode m) {
    switch (m) {
      case core::Mode::Clos: return "clos";
      case core::Mode::GlobalRandom: return "global";
      case core::Mode::LocalRandom:
      default: return "local";
    }
  };

  put(payload, "pods", jint(static_cast<std::int64_t>(result.best.pods())));
  put(payload, "iters", jint(static_cast<std::int64_t>(applied)));
  put(payload, "budget", jint(static_cast<std::int64_t>(budget)));
  put(payload, "accepted", jint(static_cast<std::int64_t>(result.accepted)));
  put(payload, "rejected", jint(static_cast<std::int64_t>(result.rejected)));
  put(payload, "skipped", jint(static_cast<std::int64_t>(result.skipped)));
  put(payload, "objective", jdouble(result.best_cold.objective));
  put(payload, "lambda_upper", jdouble(result.best_cold.lambda_upper));
  put(payload, "apl", jdouble(result.best_cold.apl));
  put(payload, "demands", jint(static_cast<std::int64_t>(result.best_cold.demands)));
  put(payload, "certified", jbool(result.certified));
  put(payload, "uniform", jstr(mode_token(uniform_mode)));
  put(payload, "uniform_objective", jdouble(uniform_best));
  put(payload, "beats_uniform",
      jbool(result.best_cold.objective > uniform_best));
  obs::JsonValue layout = obs::JsonValue::make_array();
  for (core::Mode m : result.best.pod_modes())
    layout.array().push_back(obs::JsonValue::make_string(mode_token(m)));
  put(payload, "layout", std::move(layout));
  obs::JsonValue moves = obs::JsonValue::make_array();
  for (const design::AcceptedMove& m : result.accepted_moves)
    moves.array().push_back(obs::JsonValue::make_string(design::to_string(m.move)));
  put(payload, "moves", std::move(moves));
  return true;
}

}  // namespace flattree::svc
