#include "fault/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "core/flat_tree.hpp"
#include "fault/state.hpp"

namespace flattree::fault {
namespace {

core::FlatTreeNetwork make_net(std::uint32_t k = 4) {
  core::FlatTreeConfig cfg;
  cfg.k = k;
  return core::FlatTreeNetwork(cfg);
}

ScenarioParams busy_params(std::uint64_t seed = 7) {
  ScenarioParams p;
  p.duration = 50.0;
  p.seed = seed;
  p.switches = {60.0, 3.0};
  p.link = {80.0, 2.0};
  p.converter = {90.0, 4.0};
  p.pod_power = {200.0, 3.0};
  p.flap_probability = 0.3;
  return p;
}

TEST(Scenario, GenerationIsDeterministicAndSorted) {
  core::FlatTreeNetwork net = make_net();
  topo::Topology clos = net.build(core::Mode::Clos);
  ScenarioParams p = busy_params();
  Scenario a = generate_scenario(clos, p, net.converters().size(), net.params().pods());
  Scenario b = generate_scenario(clos, p, net.converters().size(), net.params().pods());
  ASSERT_FALSE(a.events.empty());
  EXPECT_EQ(a.events, b.events);
  EXPECT_TRUE(std::is_sorted(a.events.begin(), a.events.end()));

  Scenario c = generate_scenario(clos, busy_params(8), net.converters().size(),
                                 net.params().pods());
  EXPECT_NE(a.events, c.events);  // the seed actually steers the draw
}

// Class isolation: re-parameterizing one fault class must not perturb the
// subsequence another class draws (each entity owns a substream).
TEST(Scenario, FaultClassesDrawIndependently) {
  core::FlatTreeNetwork net = make_net();
  topo::Topology clos = net.build(core::Mode::Clos);
  ScenarioParams with = busy_params();
  ScenarioParams without = with;
  without.converter.mtbf = 0.0;  // disable one class entirely
  without.pod_power.mtbf = 0.0;
  Scenario a = generate_scenario(clos, with, net.converters().size(), net.params().pods());
  Scenario b =
      generate_scenario(clos, without, net.converters().size(), net.params().pods());

  auto only = [](const Scenario& s, auto pred) {
    std::vector<FaultEvent> out;
    for (const FaultEvent& e : s.events)
      if (pred(e.kind)) out.push_back(e);
    return out;
  };
  auto is_link = [](FaultKind k) {
    return k == FaultKind::LinkDown || k == FaultKind::LinkUp;
  };
  EXPECT_EQ(only(a, is_link), only(b, is_link));
  EXPECT_TRUE(only(b, [](FaultKind k) {
                return k == FaultKind::ConverterStuck || k == FaultKind::ConverterFreed;
              }).empty());
}

// Every failure carries its repair: a full playback returns the plant to
// all-up with conserved tallies.
TEST(Scenario, FullPlaybackUnwindsExactly) {
  core::FlatTreeNetwork net = make_net();
  topo::Topology clos = net.build(core::Mode::Clos);
  Scenario s = generate_scenario(clos, busy_params(), net.converters().size(),
                                 net.params().pods());
  FaultState state(net.params().total_switches(), net.converters().size());
  for (const FaultEvent& e : s.events) state.apply(e);
  EXPECT_TRUE(state.clean());
  const auto& tally = state.tally();
  EXPECT_EQ(tally[static_cast<std::size_t>(FaultKind::LinkDown)],
            tally[static_cast<std::size_t>(FaultKind::LinkUp)]);
  EXPECT_EQ(tally[static_cast<std::size_t>(FaultKind::SwitchDown)],
            tally[static_cast<std::size_t>(FaultKind::SwitchUp)]);
  EXPECT_EQ(tally[static_cast<std::size_t>(FaultKind::ConverterStuck)],
            tally[static_cast<std::size_t>(FaultKind::ConverterFreed)]);
}

TEST(Scenario, FlappingAlternatesAndEndsUp) {
  core::FlatTreeNetwork net = make_net();
  topo::Topology clos = net.build(core::Mode::Clos);
  ScenarioParams p;
  p.duration = 60.0;
  p.seed = 11;
  p.link = {40.0, 3.0};
  p.flap_probability = 1.0;  // every outage flaps
  Scenario s = generate_scenario(clos, p, 0, 0);
  ASSERT_FALSE(s.events.empty());
  // Per pair the trace must strictly alternate down/up starting down.
  std::map<std::uint64_t, std::vector<FaultKind>> per_pair;
  for (const FaultEvent& e : s.events) per_pair[pair_key(e.a, e.b)].push_back(e.kind);
  bool saw_burst = false;
  for (const auto& [key, kinds] : per_pair) {
    ASSERT_EQ(kinds.size() % 2, 0u);
    for (std::size_t i = 0; i < kinds.size(); ++i)
      EXPECT_EQ(kinds[i], i % 2 == 0 ? FaultKind::LinkDown : FaultKind::LinkUp);
    if (kinds.size() >= 4) saw_burst = true;  // >1 cycle within one outage
  }
  EXPECT_TRUE(saw_burst);
}

// A NaN time never compares >= the horizon and an infinite horizon is
// never reached: the renewal loop would append events until memory ran
// out. The generator refuses such knobs before drawing anything.
TEST(Scenario, GenerateRefusesNonFiniteKnobs) {
  core::FlatTreeNetwork net = make_net();
  topo::Topology clos = net.build(core::Mode::Clos);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto generate = [&](const ScenarioParams& p) {
    return generate_scenario(clos, p, net.converters().size(), net.params().pods());
  };
  auto refused = [&](const ScenarioParams& p) {
    EXPECT_THROW(generate(p), std::invalid_argument);
  };
  for (double d : {nan, inf, -inf, -1.0}) {
    ScenarioParams p = busy_params();
    p.duration = d;
    refused(p);
  }
  for (FaultRate ScenarioParams::*cls : {&ScenarioParams::link, &ScenarioParams::switches,
                                         &ScenarioParams::converter, &ScenarioParams::pod_power}) {
    ScenarioParams p = busy_params();
    (p.*cls).mtbf = nan;
    refused(p);
    p = busy_params();
    (p.*cls).mttr = nan;
    refused(p);
    p = busy_params();
    (p.*cls).mttr = nan;
    (p.*cls).mtbf = 0.0;  // disabled, but NaN is still refused
    refused(p);
  }
  for (double q : {nan, -0.1, 1.5}) {
    ScenarioParams p = busy_params();
    p.flap_probability = q;
    refused(p);
  }
  // The edges stay legal: an empty horizon, a non-positive mtbf or mttr
  // (class disabled), an infinite mtbf (never fails), and flap
  // probabilities 0 and 1.
  ScenarioParams p = busy_params();
  p.duration = 0.0;
  EXPECT_TRUE(generate(p).events.empty());
  p = busy_params();
  p.switches = {-1.0, 3.0};
  p.link = {80.0, 0.0};
  p.converter = {inf, 4.0};
  p.flap_probability = 1.0;
  EXPECT_NO_THROW(generate(p));
  p.flap_probability = 0.0;
  EXPECT_NO_THROW(generate(p));
}

// A finite but tiny mtbf, or a huge flap cycle count, would draw far more
// events than memory holds. The generator refuses a parameter set whose
// expected event count passes kMaxExpectedEvents before drawing anything;
// none of these cases is ever generated.
TEST(Scenario, GenerateRefusesOversizedExpectedEventCounts) {
  core::FlatTreeNetwork net = make_net();
  topo::Topology clos = net.build(core::Mode::Clos);
  auto generate = [&](const ScenarioParams& p) {
    return generate_scenario(clos, p, net.converters().size(), net.params().pods());
  };
  for (FaultRate ScenarioParams::*cls : {&ScenarioParams::link, &ScenarioParams::switches,
                                         &ScenarioParams::converter, &ScenarioParams::pod_power}) {
    ScenarioParams p = busy_params();
    (p.*cls).mtbf = 1e-300;
    EXPECT_THROW(generate(p), std::invalid_argument);
    // The bound ignores repair time, so a long mttr does not lift it.
    p = busy_params();
    (p.*cls) = {1e-6, 1.0};
    EXPECT_THROW(generate(p), std::invalid_argument);
  }
  const std::uint32_t huge = std::numeric_limits<std::uint32_t>::max();
  ScenarioParams p = busy_params();
  p.flap_max_cycles = huge;
  EXPECT_THROW(generate(p), std::invalid_argument);
  // The cycle count only counts when a link outage can flap.
  p.flap_probability = 0.0;
  EXPECT_NO_THROW(generate(p));
  p = busy_params();
  p.flap_max_cycles = huge;
  p.link = {0.0, 2.0};
  EXPECT_NO_THROW(generate(p));
  // A tiny mtbf on a class with no entities draws nothing.
  p = busy_params();
  p.converter = {1e-300, 1.0};
  EXPECT_NO_THROW(generate_scenario(clos, p, 0, net.params().pods()));
}

TEST(Scenario, SaveLoadRoundTripsBitwise) {
  core::FlatTreeNetwork net = make_net();
  topo::Topology clos = net.build(core::Mode::Clos);
  Scenario s = generate_scenario(clos, busy_params(), net.converters().size(),
                                 net.params().pods());
  std::ostringstream out;
  save_scenario(s, out);
  std::istringstream in(out.str());
  Scenario r = load_scenario(in);
  EXPECT_EQ(r.duration, s.duration);
  EXPECT_EQ(r.seed, s.seed);
  ASSERT_EQ(r.events.size(), s.events.size());
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    EXPECT_EQ(r.events[i], s.events[i]) << "event " << i;
    EXPECT_EQ(r.events[i].time, s.events[i].time) << "event " << i;  // exact bits
  }

  // Save -> load -> save is a fixpoint (the replay-equivalence contract).
  std::ostringstream again;
  save_scenario(r, again);
  EXPECT_EQ(again.str(), out.str());
}

TEST(Scenario, LoadRejectsMalformedInput) {
  std::istringstream bad_header("# not-a-scenario\n");
  EXPECT_THROW(load_scenario(bad_header), std::runtime_error);
  std::istringstream bad_kind(
      "# flattree-fault-scenario v1\nduration 10\nseed 1\ne 1.0 link_sideways 0 1\n");
  EXPECT_THROW(load_scenario(bad_kind), std::runtime_error);
  std::istringstream truncated("# flattree-fault-scenario v1\nduration 10\nseed 1\ne 1.0\n");
  EXPECT_THROW(load_scenario(truncated), std::runtime_error);
}

TEST(Scenario, LoadRejectsNonFiniteTimes) {
  // "inf"/"nan" spellings parse in strtod but would poison every ordering
  // comparison downstream; the loader refuses them with a stable message
  // (ISSUE 10). Each accepted spelling of non-finite in turn.
  for (const char* t : {"inf", "-inf", "nan", "infinity", "1e999"}) {
    std::istringstream in(std::string("# flattree-fault-scenario v1\nduration 10\n") +
                          "seed 1\ne " + t + " switch_down 2 0\n");
    try {
      load_scenario(in);
      FAIL() << "accepted non-finite time " << t;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite time"), std::string::npos) << t;
    }
  }
  std::istringstream bad_duration(
      "# flattree-fault-scenario v1\nduration inf\nseed 1\n");
  EXPECT_THROW(load_scenario(bad_duration), std::runtime_error);
  std::istringstream junk_time(
      "# flattree-fault-scenario v1\nduration 10\nseed 1\ne 1.0x switch_down 2 0\n");
  EXPECT_THROW(load_scenario(junk_time), std::runtime_error);
}

// Integers are canonical decimal within their field (util/scan.hpp), and a
// line holds exactly its fields; each refusal names its own reason.
TEST(Scenario, LoadRejectsNonCanonicalIntegersAndTrailingTokens) {
  const std::string head = "# flattree-fault-scenario v1\nduration 10\n";
  const std::pair<const char*, const char*> cases[] = {
      {"seed -5\n", "bad seed: signed integer"},
      {"seed +5\n", "bad seed: signed integer"},
      {"seed 05\n", "bad seed: leading zero"},
      {"seed 18446744073709551616\n", "bad seed: integer out of range"},
      {"seed 5 6\n", "trailing token '6'"},
      {"seed 1\ne 1 switch_down -1 0\n", "bad entity id: signed integer"},
      {"seed 1\ne 1 switch_down 03 0\n", "bad entity id: leading zero"},
      {"seed 1\ne 1 switch_down 4294967296 0\n", "bad entity id: integer out of range"},
      {"seed 1\ne 1 switch_down 3 0 junk\n", "trailing token 'junk'"},
      {"seed 1\ne 1 switch_down 3\n", "truncated event"},
      {"seed 1\ne 1 switch_down  3 0\n", "stray space"},
  };
  for (const auto& [body, why] : cases) {
    std::istringstream in(head + body);
    try {
      load_scenario(in);
      FAIL() << "accepted: " << body;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << body << " -> " << e.what();
    }
  }
  // The widest id still loads.
  std::istringstream widest(head + "seed 0\ne 1 switch_down 4294967295 0\n");
  Scenario s = load_scenario(widest);
  ASSERT_EQ(s.events.size(), 1u);
  EXPECT_EQ(s.events[0].a, 4294967295u);
  EXPECT_EQ(s.seed, 0u);
}

TEST(Scenario, LoadRejectsDuplicateEvents) {
  // An exact duplicate — whether adjacent in the file or separated by
  // other lines (out of order) — is refused after the resort; a pure
  // reorder without duplication still loads (see LoadResortsHandEdited).
  std::istringstream adjacent(
      "# flattree-fault-scenario v1\nduration 10\nseed 1\n"
      "e 1.0 switch_down 2 0\ne 1.0 switch_down 2 0\n");
  std::istringstream out_of_order(
      "# flattree-fault-scenario v1\nduration 10\nseed 1\n"
      "e 1.0 switch_down 2 0\ne 2.0 switch_up 2 0\ne 1.0 switch_down 2 0\n");
  for (std::istringstream* in : {&adjacent, &out_of_order}) {
    try {
      load_scenario(*in);
      FAIL() << "accepted duplicate event";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate event"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("switch_down 2 0"), std::string::npos);
    }
  }
  // Same time, different entity is legitimate (pod power downs a whole
  // pod at one instant) and must keep loading.
  std::istringstream same_instant(
      "# flattree-fault-scenario v1\nduration 10\nseed 1\n"
      "e 1.0 switch_down 2 0\ne 1.0 switch_down 3 0\n"
      "e 2.0 switch_up 2 0\ne 2.0 switch_up 3 0\n");
  EXPECT_EQ(load_scenario(same_instant).events.size(), 4u);
}

TEST(Scenario, LoadResortsHandEditedTraces) {
  std::istringstream in(
      "# flattree-fault-scenario v1\nduration 10\nseed 1\n"
      "e 5.0 switch_up 2 0\ne 1.0 switch_down 2 0\n");
  Scenario s = load_scenario(in);
  ASSERT_EQ(s.events.size(), 2u);
  EXPECT_EQ(s.events[0].kind, FaultKind::SwitchDown);
  EXPECT_EQ(s.events[1].kind, FaultKind::SwitchUp);
}

}  // namespace
}  // namespace flattree::fault
