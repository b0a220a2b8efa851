// Differential test of Controller::diff, the plan behind plan() and
// apply(). The controller diffs only the converters whose configuration
// changes; the oracle is the whole-fabric diff it replaced: materialize
// both assignments and take the multiset difference of their link sets.
// Plans must agree field by field, and the controller must throw the same
// exception type whenever the oracle throws.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "fault/resilient_controller.hpp"
#include "fault/scenario.hpp"
#include "util/rng.hpp"

namespace flattree {
namespace {

using core::ConverterConfig;
using core::FlatTreeNetwork;
using core::Mode;
using core::ReconfigPlan;
using Configs = std::vector<ConverterConfig>;

/// Exposes the protected diff.
class Probe : public fault::ResilientController {
 public:
  using ResilientController::ResilientController;
  using Controller::diff;
};

/// The whole-fabric diff: both fabrics materialized, links compared as a
/// multiset of (lo, hi) endpoint pairs, hosts compared server by server.
ReconfigPlan oracle_diff(const FlatTreeNetwork& net, const Configs& from,
                         const Configs& to) {
  ReconfigPlan plan;
  for (std::uint32_t i = 0; i < from.size(); ++i)
    if (from[i] != to[i]) plan.steps.push_back({i, from[i], to[i]});
  if (plan.steps.empty()) return plan;
  topo::Topology before = net.materialize(from);
  topo::Topology after = net.materialize(to);
  std::map<std::pair<topo::NodeId, topo::NodeId>, long> delta;  // after - before
  for (const graph::Link& l : before.graph().links()) --delta[std::minmax(l.a, l.b)];
  for (const graph::Link& l : after.graph().links()) ++delta[std::minmax(l.a, l.b)];
  for (const auto& [key, d] : delta) {
    if (d < 0) plan.links_removed += static_cast<std::size_t>(-d);
    if (d > 0) plan.links_added += static_cast<std::size_t>(d);
  }
  for (topo::ServerId s = 0; s < before.server_count(); ++s)
    if (before.host(s) != after.host(s)) ++plan.servers_moved;
  return plan;
}

/// Type name of the exception `f` throws, or "" when it returns.
template <typename F>
std::string thrown(F&& f) {
  try {
    f();
  } catch (const std::exception& e) {
    return typeid(e).name();
  }
  return {};
}

void expect_same_plan(const ReconfigPlan& got, const ReconfigPlan& want) {
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (std::size_t i = 0; i < got.steps.size(); ++i) {
    EXPECT_EQ(got.steps[i].converter, want.steps[i].converter);
    EXPECT_EQ(got.steps[i].from, want.steps[i].from);
    EXPECT_EQ(got.steps[i].to, want.steps[i].to);
  }
  EXPECT_EQ(got.links_removed, want.links_removed);
  EXPECT_EQ(got.links_added, want.links_added);
  EXPECT_EQ(got.servers_moved, want.servers_moved);
}

/// Compares diff(from, to) with the oracle; returns true when both threw.
bool expect_agrees(const Probe& ctl, const Configs& from, const Configs& to) {
  ReconfigPlan want, got;
  std::string want_err = thrown([&] { want = oracle_diff(ctl.network(), from, to); });
  std::string got_err = thrown([&] { got = ctl.diff(from, to); });
  EXPECT_EQ(got_err, want_err);
  if (want_err.empty() && got_err.empty()) expect_same_plan(got, want);
  return !want_err.empty();
}

/// Uniform modes, a half/half hybrid, an alternating hybrid, and `extra`
/// seeded random per-pod vectors.
std::vector<std::vector<Mode>> targets_for(std::uint32_t pods, std::uint64_t seed,
                                           int extra) {
  std::vector<std::vector<Mode>> out;
  for (Mode m : {Mode::GlobalRandom, Mode::LocalRandom, Mode::Clos})
    out.emplace_back(pods, m);
  std::vector<Mode> half(pods, Mode::GlobalRandom), alt(pods, Mode::Clos);
  for (std::uint32_t p = 0; p < pods; ++p) {
    if (p >= pods / 2) half[p] = Mode::LocalRandom;
    if (p % 2 == 1) alt[p] = Mode::GlobalRandom;
  }
  out.push_back(half);
  out.push_back(alt);
  util::Rng rng = util::Rng::substream(seed, pods);
  for (int i = 0; i < extra; ++i) {
    std::vector<Mode> v(pods);
    for (Mode& m : v) m = static_cast<Mode>(rng.below(3));
    out.push_back(v);
  }
  return out;
}

/// Walks the mode-level controller through `targets` (every target planned
/// and applied from every state reached); returns the number of rejected
/// targets. A rejected apply leaves the live state untouched.
std::size_t walk_modes(const FlatTreeNetwork& net,
                       const std::vector<std::vector<Mode>>& targets) {
  Probe ctl{FlatTreeNetwork(net)};
  std::size_t rejected = 0;
  for (const std::vector<Mode>& next : targets) {
    for (const std::vector<Mode>& t : targets)
      expect_agrees(ctl, ctl.current_configs(), net.assign_configs(t));
    Configs before = ctl.current_configs();
    ReconfigPlan want;
    std::string want_err = thrown(
        [&] { want = oracle_diff(net, before, net.assign_configs(next)); });
    ReconfigPlan got;
    std::string got_err = thrown([&] { got = ctl.apply(next); });
    EXPECT_EQ(got_err, want_err);
    if (!want_err.empty()) {
      ++rejected;
      EXPECT_EQ(ctl.current_configs(), before);
    } else if (got_err.empty()) {
      expect_same_plan(got, want);
    }
  }
  return rejected;
}

TEST(PlanDiff, MatchesOracleOnEveryFatTreePlant) {
  std::size_t plants = 0, rejected = 0;
  for (std::uint32_t k : {4u, 6u, 8u, 10u, 12u}) {
    for (std::uint32_t m = 0; m <= k / 2; ++m) {
      for (std::uint32_t n = 0; m + n <= k / 2; ++n) {
        for (core::WiringPattern pattern :
             {core::WiringPattern::Pattern1, core::WiringPattern::Pattern2}) {
          for (core::PodChain chain : {core::PodChain::Ring, core::PodChain::Linear}) {
            SCOPED_TRACE("k=" + std::to_string(k) + " m=" + std::to_string(m) +
                         " n=" + std::to_string(n) + " pattern=" +
                         std::to_string(static_cast<int>(pattern)) + " chain=" +
                         std::to_string(static_cast<int>(chain)));
            core::FlatTreeConfig cfg;
            cfg.k = k;
            cfg.m = m;
            cfg.n = n;
            cfg.pattern = pattern;
            cfg.chain = chain;
            FlatTreeNetwork net(cfg);
            const std::uint64_t seed = k * 100 + m * 10 + n;
            rejected += walk_modes(net, targets_for(net.params().pods(), seed, 2));
            ++plants;
          }
        }
      }
    }
  }
  EXPECT_EQ(plants, 4u * (6 + 10 + 15 + 21 + 28));
  EXPECT_GT(rejected, 0u);  // degenerate layouts exercise the rejection path
}

TEST(PlanDiff, MatchesOracleOnGenericPlants) {
  const topo::ClosParams oversubscribed = topo::ClosParams::make_generic(
      /*pods=*/6, /*d=*/4, /*r=*/2, /*h=*/4, /*servers_per_edge=*/4,
      /*edge_ports=*/6, /*agg_ports=*/8, /*core_ports=*/10);
  const topo::ClosParams narrow = topo::ClosParams::make_generic(8, 2, 1, 2, 4, 8, 8, 8);
  for (const topo::ClosParams& params : {oversubscribed, narrow}) {
    for (auto [m, n] : {std::pair{1u, 1u}, std::pair{1u, 0u}, std::pair{0u, 1u},
                        std::pair{core::FlatTreeConfig::kProfiled,
                                  core::FlatTreeConfig::kProfiled}}) {
      for (core::PodChain chain : {core::PodChain::Ring, core::PodChain::Linear}) {
        FlatTreeNetwork net(params, m, n, core::WiringPattern::Auto, chain);
        walk_modes(net, targets_for(params.pods(), 7, 4));
      }
    }
  }
}

TEST(PlanDiff, RandomPerPodTargetsFromNonClosStates) {
  for (std::uint32_t k : {8u, 10u}) {
    core::FlatTreeConfig cfg;
    cfg.k = k;
    FlatTreeNetwork net(cfg);
    std::vector<std::vector<Mode>> targets = targets_for(net.params().pods(), 99, 12);
    // Start the walk from the random vectors, far from Clos.
    std::rotate(targets.begin(), targets.begin() + 5, targets.end());
    EXPECT_EQ(walk_modes(net, targets), 0u);
  }
}

TEST(PlanDiff, RejectsDisconnectedGlobalTarget) {
  // The degenerate layout DESIGN.md §1 says is rejected at materialization.
  core::FlatTreeConfig cfg;
  cfg.k = 4;
  cfg.m = 1;
  cfg.n = 0;
  cfg.pattern = core::WiringPattern::Pattern2;
  cfg.chain = core::PodChain::Ring;
  Probe ctl(cfg);
  Configs boot = ctl.current_configs();
  try {
    ctl.plan(Mode::GlobalRandom);
    ADD_FAILURE() << "plan() accepted a disconnected target";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("switch graph is disconnected"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(ctl.apply(Mode::GlobalRandom), std::runtime_error);
  EXPECT_EQ(ctl.current_configs(), boot);
  EXPECT_TRUE(expect_agrees(ctl, boot, ctl.network().assign_configs(Mode::GlobalRandom)));
}

TEST(PlanDiff, RejectsInvalidAssignmentsLikeTheOracle) {
  core::FlatTreeConfig cfg;
  cfg.k = 8;
  Probe ctl(cfg);
  const auto& converters = ctl.network().converters();
  Configs clos = ctl.current_configs();
  Configs global = ctl.network().assign_configs(Mode::GlobalRandom);
  std::uint32_t four_port = 0, six_port = 0;
  while (converters[four_port].type != core::ConverterType::FourPort) ++four_port;
  while (converters[six_port].peer == core::kNoPeer) ++six_port;

  Configs bad_type = clos;  // side on a 4-port converter
  bad_type[four_port] = ConverterConfig::Side;
  Configs half_pair = clos;  // one end of a pair in side, the other default
  half_pair[six_port] = ConverterConfig::Side;
  Configs too_short(clos.begin(), clos.end() - 1);

  for (const Configs* bad : {&bad_type, &half_pair}) {
    EXPECT_TRUE(expect_agrees(ctl, clos, *bad));    // invalid target
    EXPECT_TRUE(expect_agrees(ctl, *bad, global));  // invalid live state
  }
  EXPECT_TRUE(expect_agrees(ctl, too_short, global));
}

TEST(PlanDiff, MatchesOracleFromResilientControllerStates) {
  // Staged conversions under a seeded fault trace. Every state between
  // micro-transactions, replans and rollbacks is a live state plan() may
  // be asked to start from. A fault-aware target can itself be
  // disconnected; begin, advance and on_event then throw, and some of
  // those throws leave a live state that does not materialize, which the
  // plan must reject exactly like the oracle.
  std::size_t states = 0, rejected = 0;
  auto walk = [&](const core::FlatTreeConfig& cfg) {
    SCOPED_TRACE("k=" + std::to_string(cfg.k) + " m=" + std::to_string(cfg.m) +
                 " n=" + std::to_string(cfg.n) + " pattern=" +
                 std::to_string(static_cast<int>(cfg.pattern)));
    Probe ctl(cfg);
    const FlatTreeNetwork& net = ctl.network();
    fault::ScenarioParams sp;
    sp.duration = 40.0;
    sp.seed = cfg.k * 100 + net.config().m * 10 + net.config().n;
    sp.switches = {30.0, 3.0};
    sp.link = {60.0, 2.0};
    sp.converter = {40.0, 4.0};
    fault::Scenario sc = fault::generate_scenario(net.build(Mode::Clos), sp,
                                                  net.converters().size(),
                                                  net.params().pods());
    std::vector<std::vector<Mode>> targets = targets_for(net.params().pods(), sp.seed, 3);
    std::size_t next = 0;
    auto check_state = [&] {
      ++states;
      for (std::size_t t = 0; t < 3; ++t)
        rejected += expect_agrees(ctl, ctl.current_configs(), net.assign_configs(targets[t]));
    };
    for (const fault::FaultEvent& e : sc.events) {
      if (!ctl.conversion_in_flight())
        thrown([&] { ctl.begin_conversion(targets[next++ % targets.size()]); });
      thrown([&] { ctl.advance(1); });
      check_state();
      thrown([&] { ctl.on_event(e); });
      check_state();
    }
    thrown([&] { ctl.run_to_completion(); });
    check_state();
  };
  for (std::uint32_t k : {4u, 6u}) {
    for (std::uint32_t m = 0; m <= k / 2; ++m) {
      for (std::uint32_t n = 0; m + n <= k / 2; ++n) {
        for (core::WiringPattern pattern :
             {core::WiringPattern::Pattern1, core::WiringPattern::Pattern2}) {
          core::FlatTreeConfig cfg;
          cfg.k = k;
          cfg.m = m;
          cfg.n = n;
          cfg.pattern = pattern;
          walk(cfg);
        }
      }
    }
  }
  core::FlatTreeConfig profiled;
  profiled.k = 8;
  walk(profiled);
  EXPECT_GT(states, 1000u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace flattree
