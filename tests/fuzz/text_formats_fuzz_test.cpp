// Deterministic mutation test for the text formats the binaries parse:
// fault scenarios (fault::load_scenario), JSON documents
// (obs::json_parse), service request lines (svc::parse_request) and
// topologies (topo::deserialize). The seeds are a busy generated
// scenario, a run manifest, a request script of canonical lines and a
// flat-tree topology; each mutant applies one mutator of
// tests/fuzz/mutator.hpp with positions drawn from Rng::substream, so
// every run tests the same kMutants mutants per format. Every mutant must
// be either refused (std::runtime_error for scenarios, a "deserialize: "
// std::invalid_argument for topologies, a stable json.* / svc.* code for
// JSON and requests; any other exception fails the test) or accepted as a
// value that re-encodes and re-parses to an equal value, bit for bit. The
// histogram of refusal reasons per format is pinned at the fixed seeds, so
// a mutant refused for a different reason than before fails the test too.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/flat_tree.hpp"
#include "fault/scenario.hpp"
#include "fuzz/mutator.hpp"
#include "obs/json.hpp"
#include "svc/protocol.hpp"
#include "topo/serialize.hpp"
#include "util/rng.hpp"

namespace flattree::fuzz {
namespace {

constexpr std::uint64_t kMutants = 2000;
constexpr std::uint64_t kScenarioSeed = 0x7363656e6172696fULL;
constexpr std::uint64_t kJsonSeed = 0x6a736f6eULL;
constexpr std::uint64_t kRequestSeed = 0x72657175657374ULL;
constexpr std::uint64_t kTopologySeed = 0x746f706fULL;

// A flattree.run.v1 manifest, one member per line so the line mutators
// have lines to move.
constexpr const char* kManifest = R"({
"schema": "flattree.run.v1",
"name": "bench_fig7_broadcast",
"argv": ["bench_fig7_broadcast", "--kmax", "8", "--seeds", "1", "--metrics-json", "m.json"],
"git": "6efa8ff-dirty",
"hardware_threads": 4,
"wall_time_s": 0.097838027,
"fields": {"threads": 0, "seed": 1, "eps": 0.12, "mode": "global \"random\"\tA\u00e9"},
"subsystems": ["core", "exec", "graph", "mcf"],
"metrics": {
"counters": {"graph.csr.full_builds": 4, "mcf.gk.augmentations": 19112, "mcf.gk.phases": 439},
"gauges": {"exec.pool.threads": 4, "mcf.gk.last_lambda_lower": 0.046357615894039736, "neg": -2.5e-3},
"histograms": {"exec.pool.worker_busy_ms": {"count": 12, "sum": 87.230053, "min": 0.518632,
"buckets": [{"le": 0.01, "count": 0}, {"le": 2.56, "count": 4}, {"le": "inf", "count": 0}]}}
},
"ok": true,
"parent": null
})";

// A request script: one canonical request line per op family, the last
// line unterminated so splicing it elsewhere joins two requests.
constexpr const char* kScript = R"({"op":"hello","id":1}
{"op":"build","k":4}
{"op":"traffic","cluster":8,"pattern":"broadcast","placement":"none","seed":7}
{"op":"fault","events":[{"t":1,"kind":"switch_down","a":0}],"advance":2}
{"op":"query","id":"q2","deadline_ms":0.01,"session":3}
{"op":"what_if","target":"global"}
{"op":"convert","target":"clos","advance":1000000}
{"op":"stats"})";

bool has_prefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Refusal reason -> number of mutants refused for it.
using Reasons = std::map<std::string, std::uint64_t>;

/// The reason a refusal message gives, without the mutated bytes it
/// echoes: the input echoed after "line: " or "event: " is dropped, the
/// quoted span (first to last quote) becomes '', and digit runs become #.
/// JSON and request refusals carry a code instead.
std::string reason_of(std::string r) {
  for (const std::string echo : {"line: ", "event: "})
    if (const std::size_t at = r.find(echo); at != std::string::npos)
      r.resize(at + echo.size());
  // A quote with no partner (a NUL cut what() short) drops the rest.
  if (const std::size_t first = r.find('\''); first != std::string::npos) {
    const std::size_t last = r.rfind('\'');
    r = r.substr(0, first) + "''" + (last > first ? r.substr(last + 1) : "");
  }
  return std::regex_replace(r, std::regex("[0-9]+"), "#");
}

fault::Scenario load(const std::string& text) {
  std::istringstream in(text);
  return fault::load_scenario(in);
}

std::string save(const fault::Scenario& s) {
  std::ostringstream out;
  fault::save_scenario(s, out);
  return out.str();
}

/// Equality down to the bits of every double.
bool same(const fault::Scenario& a, const fault::Scenario& b) {
  if (std::bit_cast<std::uint64_t>(a.duration) != std::bit_cast<std::uint64_t>(b.duration) ||
      a.seed != b.seed || a.events.size() != b.events.size())
    return false;
  for (std::size_t i = 0; i < a.events.size(); ++i)
    if (!(a.events[i] == b.events[i]) ||
        std::bit_cast<std::uint64_t>(a.events[i].time) !=
            std::bit_cast<std::uint64_t>(b.events[i].time))
      return false;
  return true;
}

std::string seed_scenario() {
  core::FlatTreeConfig cfg;
  cfg.k = 4;
  core::FlatTreeNetwork net(cfg);
  fault::ScenarioParams p;
  p.duration = 50.0;
  p.seed = 7;
  p.switches = {60.0, 3.0};
  p.link = {80.0, 2.0};
  p.converter = {90.0, 4.0};
  p.pod_power = {200.0, 3.0};
  p.flap_probability = 0.3;
  return save(fault::generate_scenario(net.build(core::Mode::Clos), p,
                                       net.converters().size(), net.params().pods()));
}

TEST(TextFuzz, ScenarioMutantsAreRefusedOrRoundTrip) {
  const std::string seed = seed_scenario();
  ASSERT_GT(load(seed).events.size(), 20u);
  Outcomes o;
  Reasons reasons;
  for (std::uint64_t i = 0; i < kMutants; ++i) {
    util::Rng rng = util::Rng::substream(kScenarioSeed, i);
    const auto m = static_cast<Mutator>(i % kMutators);
    const std::string mutant = mutate(seed, m, rng);
    fault::Scenario s;
    try {
      s = load(mutant);
    } catch (const std::runtime_error& e) {
      ++o.refused[m];
      ++reasons[reason_of(e.what())];
      continue;
    }
    ++o.accepted[m];
    const std::string again = save(s);
    EXPECT_TRUE(same(load(again), s))
        << "mutant " << i << " (mutator " << m << ") does not round-trip";
  }
  expect_every_mutator_refused_something(o, /*truncation_refuses=*/true);
  EXPECT_EQ(reasons, (Reasons{{"load_scenario: duplicate event: ", 322},
                             {"load_scenario: line #: bad entity id: leading zero ''", 216},
                             {"load_scenario: line #: bad entity id: non-digit in integer ''", 21},
                             {"load_scenario: line #: bad event time", 100},
                             {"load_scenario: line #: stray space", 40},
                             {"load_scenario: line #: trailing token ''", 9},
                             {"load_scenario: line #: truncated event", 293},
                             {"load_scenario: line #: unknown directive", 21},
                             {"load_scenario: line #: unknown fault kind", 87},
                             {"load_scenario: missing v# header", 19}}));
}

TEST(TextFuzz, JsonMutantsAreRefusedOrRoundTrip) {
  const std::string seed = kManifest;
  obs::JsonValue parsed;
  ASSERT_TRUE(obs::json_parse(seed, parsed));
  Outcomes o;
  Reasons reasons;
  for (std::uint64_t i = 0; i < kMutants; ++i) {
    util::Rng rng = util::Rng::substream(kJsonSeed, i);
    const auto m = static_cast<Mutator>(i % kMutators);
    const std::string mutant = mutate(seed, m, rng);
    obs::JsonValue v;
    obs::JsonError err;
    if (!obs::json_parse(mutant, v, &err)) {
      ++o.refused[m];
      ++reasons[err.code];
      EXPECT_TRUE(has_prefix(err.code, "json.") && !err.message.empty())
          << "mutant " << i << " (mutator " << m << ") refused with '" << err.code << "'";
      continue;
    }
    ++o.accepted[m];
    const std::string written = v.to_json();
    obs::JsonValue again;
    ASSERT_TRUE(obs::json_parse(written, again)) << "mutant " << i << ": " << written;
    EXPECT_EQ(again.to_json(), written)
        << "mutant " << i << " (mutator " << m << ") is not a write fixpoint";
  }
  expect_every_mutator_refused_something(o, /*truncation_refuses=*/true);
  EXPECT_EQ(reasons, (Reasons{{"json.bad_escape", 1},
                             {"json.bad_literal", 4},
                             {"json.bad_number", 244},
                             {"json.control_in_string", 11},
                             {"json.duplicate_key", 105},
                             {"json.expected_colon", 30},
                             {"json.expected_comma_or_close", 140},
                             {"json.expected_string", 96},
                             {"json.expected_value", 44},
                             {"json.trailing", 110},
                             {"json.truncated", 353}}));
  EXPECT_GT(o.accepted[kBitFlip] + o.accepted[kDigitExtend], 0u);  // the fixpoint half ran
}

TEST(TextFuzz, RequestMutantsAreRefusedOrRoundTrip) {
  const std::string seed = kScript;
  for (const std::string& line : split_lines(seed)) {
    std::string bare = line.back() == '\n' ? line.substr(0, line.size() - 1) : line;
    svc::Request req;
    svc::RequestError err;
    ASSERT_TRUE(svc::parse_request(bare, 1, req, err)) << bare << ": " << err.code;
    ASSERT_EQ(req.canonical, bare) << "seed lines must be canonical";
  }
  Outcomes o;
  Reasons reasons;
  for (std::uint64_t i = 0; i < kMutants; ++i) {
    util::Rng rng = util::Rng::substream(kRequestSeed, i);
    const auto m = static_cast<Mutator>(i % kMutators);
    const std::string mutant = mutate(seed, m, rng);
    // Each line of the mutated script is one request, as the service reads
    // it; the mutant counts as refused when any of its lines is.
    bool refused = false;
    std::istringstream lines(mutant);
    std::string line;
    for (std::uint64_t seq = 1; std::getline(lines, line); ++seq) {
      svc::Request req;
      svc::RequestError err;
      if (!svc::parse_request(line, seq, req, err)) {
        refused = true;
        ++reasons[err.code];
        EXPECT_TRUE((has_prefix(err.code, "json.") || has_prefix(err.code, "svc.")) &&
                    !err.message.empty())
            << "mutant " << i << " line " << seq << " refused with '" << err.code << "'";
        continue;
      }
      svc::Request again;
      ASSERT_TRUE(svc::parse_request(req.canonical, seq, again, err))
          << "mutant " << i << ": " << req.canonical << " -> " << err.code;
      EXPECT_EQ(again.canonical, req.canonical)
          << "mutant " << i << " (mutator " << m << ") is not a canonical fixpoint";
    }
    ++(refused ? o.refused : o.accepted)[m];
  }
  expect_every_mutator_refused_something(o, /*truncation_refuses=*/true);
  EXPECT_EQ(reasons, (Reasons{{"json.bad_number", 343},
                             {"json.control_in_string", 5},
                             {"json.expected_colon", 30},
                             {"json.expected_comma_or_close", 51},
                             {"json.expected_string", 23},
                             {"json.expected_value", 26},
                             {"json.trailing", 153},
                             {"json.truncated", 322},
                             {"svc.request.bad_field", 17},
                             {"svc.request.missing_op", 14},
                             {"svc.request.unknown_op", 39}}));
  EXPECT_GT(o.accepted[kBitFlip] + o.accepted[kDigitExtend], 0u);  // the fixpoint half ran
}

/// A k=4 global-random flat-tree (every switch kind and several link
/// origins) plus two links whose capacities need more than the default
/// six significant digits.
std::string seed_topology() {
  core::FlatTreeConfig cfg;
  cfg.k = 4;
  topo::Topology t = core::FlatTreeNetwork(cfg).build(core::Mode::GlobalRandom);
  t.add_link(0, 5, topo::LinkOrigin::Random, 2.5);
  t.add_link(3, 9, topo::LinkOrigin::Random, 0.1);
  return topo::serialize(t);
}

TEST(TextFuzz, TopologyMutantsAreRefusedOrReachAFixpoint) {
  const std::string seed = seed_topology();
  ASSERT_EQ(topo::serialize(topo::deserialize(seed)), seed);
  Outcomes o;
  Reasons reasons;
  for (std::uint64_t i = 0; i < kMutants; ++i) {
    util::Rng rng = util::Rng::substream(kTopologySeed, i);
    const auto m = static_cast<Mutator>(i % kMutators);
    const std::string mutant = mutate(seed, m, rng);
    topo::Topology t;
    try {
      t = topo::deserialize(mutant);
    } catch (const std::invalid_argument& e) {
      ++o.refused[m];
      ++reasons[reason_of(e.what())];
      EXPECT_TRUE(has_prefix(e.what(), "deserialize: "))
          << "mutant " << i << " (mutator " << m << ") refused with '" << e.what() << "'";
      continue;
    }
    ++o.accepted[m];
    const std::string written = topo::serialize(t);
    EXPECT_EQ(topo::serialize(topo::deserialize(written)), written)
        << "mutant " << i << " (mutator " << m << ") is not a write fixpoint";
  }
  expect_every_mutator_refused_something(o, /*truncation_refuses=*/true);
  EXPECT_EQ(reasons, (Reasons{{"deserialize: bad capacity '' at line #", 1},
                             {"deserialize: bad count '' (leading zero) at line #", 5},
                             {"deserialize: bad count '' (non-digit in integer) at line #", 1},
                             {"deserialize: bad endpoint '' (leading zero) at line #", 127},
                             {"deserialize: bad endpoint '' (no such switch) at line #", 103},
                             {"deserialize: bad endpoint '' (non-digit in integer) at line #", 46},
                             {"deserialize: bad host '' (leading zero) at line #", 26},
                             {"deserialize: bad host '' (no such switch) at line #", 33},
                             {"deserialize: bad host '' (non-digit in integer) at line #", 10},
                             {"deserialize: bad index '' (leading zero) at line #", 57},
                             {"deserialize: bad magic header (want '')", 28},
                             {"deserialize: bad pod '' (leading zero) at line #", 40},
                             {"deserialize: bad pod '' (non-digit in integer) at line #", 6},
                             {"deserialize: bad ports '' (leading zero) at line #", 44},
                             {"deserialize: bad ports '' (non-digit in integer) at line #", 2},
                             {"deserialize: expected '' at line #", 165},
                             {"deserialize: malformed link at line #", 217},
                             {"deserialize: malformed switch at line #", 208},
                             {"deserialize: trailing line after the servers section at line #", 16},
                             {"deserialize: trailing token '' at line #", 65},
                             {"deserialize: unexpected end of input after line #", 52},
                             {"deserialize: unknown link origin '' at line #", 282},
                             {"deserialize: unknown switch kind '' at line #", 126}}));
  EXPECT_GT(o.accepted[kBitFlip] + o.accepted[kDigitExtend], 0u);  // the fixpoint half ran
}

}  // namespace
}  // namespace flattree::fuzz
