#include "fault/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/scan.hpp"

namespace flattree::fault {

namespace {

obs::Counter c_generated("fault.scenario.events_generated");
obs::Counter c_loaded("fault.scenario.events_loaded");

// Substream layout: one independent stream per (fault class, entity). The
// class tag lives in the high bits, far above any entity id, so no two
// classes ever share a stream and re-parameterizing one class cannot shift
// another's draws.
constexpr std::uint64_t kLinkClass = 1ULL << 48;
constexpr std::uint64_t kSwitchClass = 2ULL << 48;
constexpr std::uint64_t kConverterClass = 3ULL << 48;
constexpr std::uint64_t kPodClass = 4ULL << 48;

/// Emits one entity's alternating down/up renewal process. `emit(t_down,
/// t_up, rng)` appends the events for one outage window (possibly a
/// flapping burst) and must not draw beyond what it needs in a fixed
/// order.
template <typename Emit>
void renewal_process(util::Rng& rng, const FaultRate& rate, double duration,
                     Emit&& emit) {
  if (rate.mtbf <= 0.0 || rate.mttr <= 0.0) return;
  double t = 0.0;
  for (;;) {
    t += rng.exponential(1.0 / rate.mtbf);
    if (t >= duration) return;
    double outage = rng.exponential(1.0 / rate.mttr);
    emit(t, t + outage, rng);
    t += outage;
  }
}

/// Refuses knobs under which a renewal process never reaches the horizon:
/// a NaN time stays NaN and never compares >= duration, and an infinite
/// duration is never reached, so the event list would grow without bound.
void check_params(const ScenarioParams& params) {
  if (!(params.duration >= 0.0) || !std::isfinite(params.duration))
    throw std::invalid_argument("generate_scenario: duration must be finite and >= 0");
  for (const FaultRate* rate : {&params.link, &params.switches, &params.converter,
                                &params.pod_power})
    if (std::isnan(rate->mtbf) || std::isnan(rate->mttr))
      throw std::invalid_argument("generate_scenario: mtbf and mttr must not be NaN");
  if (!(params.flap_probability >= 0.0 && params.flap_probability <= 1.0))
    throw std::invalid_argument("generate_scenario: flap_probability must lie in [0, 1]");
}

/// Expected events of one class: about duration/mtbf outages per entity
/// (an upper bound, repair time ignored), each `cycles` down/up pairs.
double expected_events(const FaultRate& rate, std::size_t entities, double duration,
                       double cycles) {
  if (rate.mtbf <= 0.0 || rate.mttr <= 0.0 || entities == 0) return 0.0;
  return 2.0 * static_cast<double>(entities) * (duration / rate.mtbf) * cycles;
}

}  // namespace

Scenario generate_scenario(const topo::Topology& base, const ScenarioParams& params,
                           std::size_t converter_count, std::uint32_t pod_count) {
  check_params(params);
  Scenario s;
  s.duration = params.duration;
  s.seed = params.seed;

  // Link class entities: the distinct switch pairs.
  std::vector<std::uint64_t> pairs;
  for (const graph::Link& link : base.graph().links())
    pairs.push_back(pair_key(link.a, link.b));
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  // Pod class entities: every switch of every pod.
  std::vector<std::vector<NodeId>> pod_switches(pod_count);
  std::size_t pod_members = 0;
  for (NodeId v = 0; v < base.switch_count(); ++v) {
    std::int32_t pod = base.info(v).pod;
    if (pod >= 0 && static_cast<std::uint32_t>(pod) < pod_count) {
      pod_switches[static_cast<std::uint32_t>(pod)].push_back(v);
      ++pod_members;
    }
  }

  // Refuse a parameter set whose trace would not fit in memory before
  // drawing anything: a finite but tiny mtbf passes check_params.
  const bool can_flap = params.flap_probability > 0.0 && params.flap_max_cycles >= 2;
  const double expected =
      expected_events(params.link, pairs.size(), params.duration,
                      can_flap ? params.flap_max_cycles : 1.0) +
      expected_events(params.switches, base.switch_count(), params.duration, 1.0) +
      expected_events(params.converter, converter_count, params.duration, 1.0) +
      expected_events(params.pod_power, pod_members, params.duration, 1.0);
  if (!(expected <= kMaxExpectedEvents))
    throw std::invalid_argument(
        "generate_scenario: expected event count exceeds 2^24 (mtbf too small or "
        "flap_max_cycles too large)");

  // -- link class: one process per distinct switch pair -------------------
  for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
    std::uint32_t lo = static_cast<std::uint32_t>(pairs[pi] >> 32);
    std::uint32_t hi = static_cast<std::uint32_t>(pairs[pi]);
    util::Rng rng = util::Rng::substream(params.seed, kLinkClass + pi);
    renewal_process(rng, params.link, params.duration,
                    [&](double down, double up, util::Rng& r) {
                      bool flap = r.chance(params.flap_probability) &&
                                  params.flap_max_cycles >= 2;
                      std::uint32_t cycles = 1;
                      if (flap)
                        cycles = 2 + static_cast<std::uint32_t>(
                                         r.below(params.flap_max_cycles - 1));
                      // `cycles` equal down segments separated by equal up
                      // gaps inside [down, up]; cycles == 1 is the clean
                      // single outage.
                      double span = up - down;
                      double seg = span / static_cast<double>(2 * cycles - 1);
                      for (std::uint32_t i = 0; i < cycles; ++i) {
                        double d = down + seg * static_cast<double>(2 * i);
                        double u = i + 1 == cycles ? up : d + seg;
                        s.events.push_back({d, FaultKind::LinkDown, lo, hi});
                        s.events.push_back({u, FaultKind::LinkUp, lo, hi});
                      }
                    });
  }

  // -- individual switch class --------------------------------------------
  for (NodeId v = 0; v < base.switch_count(); ++v) {
    util::Rng rng = util::Rng::substream(params.seed, kSwitchClass + v);
    renewal_process(rng, params.switches, params.duration,
                    [&](double down, double up, util::Rng&) {
                      s.events.push_back({down, FaultKind::SwitchDown, v, 0});
                      s.events.push_back({up, FaultKind::SwitchUp, v, 0});
                    });
  }

  // -- converter stuck-at-config class ------------------------------------
  for (std::size_t c = 0; c < converter_count; ++c) {
    util::Rng rng = util::Rng::substream(params.seed, kConverterClass + c);
    renewal_process(rng, params.converter, params.duration,
                    [&](double down, double up, util::Rng&) {
                      std::uint32_t idx = static_cast<std::uint32_t>(c);
                      s.events.push_back({down, FaultKind::ConverterStuck, idx, 0});
                      s.events.push_back({up, FaultKind::ConverterFreed, idx, 0});
                    });
  }

  // -- correlated pod power domains ---------------------------------------
  // One renewal process per pod; each outage downs every switch in the pod
  // at the same instant. FaultState's per-switch down counts keep the
  // overlap with independent switch failures exact.
  for (std::uint32_t p = 0; p < pod_count; ++p) {
    util::Rng rng = util::Rng::substream(params.seed, kPodClass + p);
    renewal_process(rng, params.pod_power, params.duration,
                    [&](double down, double up, util::Rng&) {
                      for (NodeId v : pod_switches[p]) {
                        s.events.push_back({down, FaultKind::SwitchDown, v, 0});
                        s.events.push_back({up, FaultKind::SwitchUp, v, 0});
                      }
                    });
  }

  std::sort(s.events.begin(), s.events.end());
  c_generated.add(s.events.size());
  return s;
}

namespace {

/// %.17g — enough significant digits to round-trip any double exactly.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void save_scenario(const Scenario& s, std::ostream& out) {
  out << "# flattree-fault-scenario v1\n";
  out << "duration " << fmt_double(s.duration) << "\n";
  out << "seed " << s.seed << "\n";
  for (const FaultEvent& e : s.events)
    out << "e " << fmt_double(e.time) << " " << to_string(e.kind) << " " << e.a << " "
        << e.b << "\n";
}

Scenario load_scenario(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != "# flattree-fault-scenario v1")
    throw std::runtime_error("load_scenario: missing v1 header");
  Scenario s;
  std::size_t line_no = 1;
  std::vector<std::string> f;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    auto fail = [&](const std::string& why) {
      throw std::runtime_error("load_scenario: line " + std::to_string(line_no) + ": " +
                               why);
    };
    if (!util::split_words(line, f)) fail("stray space");
    // Exactly `n` fields: fewer is a truncated line, more a trailing token.
    auto arity = [&](std::size_t n, const char* truncated) {
      if (f.size() < n) fail(truncated);
      if (f.size() > n) fail("trailing token '" + f[n] + "'");
    };
    // Times come in as whole tokens through strtod so that "inf"/"nan"
    // spellings are seen and rejected uniformly, and a non-finite time
    // would poison every downstream comparison silently.
    auto finite = [&](const std::string& tok, const char* why) {
      char* tail = nullptr;
      double v = std::strtod(tok.c_str(), &tail);
      if (tail == nullptr || *tail != '\0') fail(why);
      if (!std::isfinite(v)) fail("non-finite time");
      return v;
    };
    auto integer = [&](const std::string& tok, std::uint64_t max, const char* what) {
      std::uint64_t v = 0;
      util::UintError err = util::parse_uint(tok, max, v);
      if (err != util::UintError::Ok)
        fail(std::string(what) + ": " + util::describe(err) + " '" + tok + "'");
      return v;
    };
    constexpr std::uint64_t kIdMax = std::numeric_limits<std::uint32_t>::max();
    const std::string& tag = f[0];
    if (tag == "duration") {
      arity(2, "bad duration");
      s.duration = finite(f[1], "bad duration");
    } else if (tag == "seed") {
      arity(2, "bad seed");
      s.seed = integer(f[1], std::numeric_limits<std::uint64_t>::max(), "bad seed");
    } else if (tag == "e") {
      arity(5, "truncated event");
      FaultEvent e;
      e.time = finite(f[1], "bad event time");
      if (!parse_fault_kind(f[2], e.kind)) fail("unknown fault kind");
      e.a = static_cast<std::uint32_t>(integer(f[3], kIdMax, "bad entity id"));
      e.b = static_cast<std::uint32_t>(integer(f[4], kIdMax, "bad entity id"));
      s.events.push_back(e);
    } else {
      fail("unknown directive");
    }
  }
  // Hand-edited traces may be out of order; resorting is fine, but an
  // exact duplicate (same time, kind, entity) is a double-apply bug in the
  // making — FaultState would double-count the down — so refuse it.
  std::sort(s.events.begin(), s.events.end());
  for (std::size_t i = 1; i < s.events.size(); ++i) {
    if (s.events[i] == s.events[i - 1]) {
      const FaultEvent& e = s.events[i];
      throw std::runtime_error("load_scenario: duplicate event: " + fmt_double(e.time) +
                               " " + to_string(e.kind) + " " + std::to_string(e.a) +
                               " " + std::to_string(e.b));
    }
  }
  c_loaded.add(s.events.size());
  return s;
}

}  // namespace flattree::fault
