// Deterministic mutation test for the hand-editable text formats: fault
// scenarios (fault::load_scenario), design candidates
// (design::Candidate::decode), JSON documents (obs::json_parse), service
// request lines (svc::parse_request) and topologies (topo::deserialize).
// The seeds are a busy generated scenario, a three-zone candidate, a run
// manifest, a request script of canonical lines and a flat-tree topology;
// each mutant applies one mutator of tests/fuzz/mutator.hpp with positions
// drawn from Rng::substream, so every run tests the same kMutants mutants
// per format. Every mutant must be either refused (std::runtime_error for
// the scenario and candidate formats, a "deserialize: " std::invalid_argument
// for topologies, a stable json.* / svc.* code for JSON and requests; any
// other exception fails the test) or accepted as a value that re-encodes
// and re-parses to an equal value, bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/flat_tree.hpp"
#include "design/candidate.hpp"
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
constexpr std::uint64_t kCandidateSeed = 0x63616e646964ULL;
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
  for (std::uint64_t i = 0; i < kMutants; ++i) {
    util::Rng rng = util::Rng::substream(kScenarioSeed, i);
    const auto m = static_cast<Mutator>(i % kMutators);
    const std::string mutant = mutate(seed, m, rng);
    fault::Scenario s;
    try {
      s = load(mutant);
    } catch (const std::runtime_error&) {
      ++o.refused[m];
      continue;
    }
    ++o.accepted[m];
    const std::string again = save(s);
    EXPECT_TRUE(same(load(again), s))
        << "mutant " << i << " (mutator " << m << ") does not round-trip";
  }
  expect_every_mutator_refused_something(o, /*truncation_refuses=*/true);
}

TEST(TextFuzz, CandidateMutantsAreRefusedOrRoundTrip) {
  using core::Mode;
  const std::string seed =
      design::Candidate::from_zones(12, {{0, 3, Mode::GlobalRandom},
                                         {3, 7, Mode::Clos},
                                         {7, 12, Mode::LocalRandom}})
          .encode();
  Outcomes o;
  for (std::uint64_t i = 0; i < kMutants; ++i) {
    util::Rng rng = util::Rng::substream(kCandidateSeed, i);
    const auto m = static_cast<Mutator>(i % kMutators);
    const std::string mutant = mutate(seed, m, rng);
    design::Candidate c;
    try {
      c = design::Candidate::decode(mutant);
    } catch (const std::runtime_error&) {
      ++o.refused[m];
      continue;
    }
    ++o.accepted[m];
    EXPECT_EQ(design::Candidate::decode(c.encode()), c)
        << "mutant " << i << " (mutator " << m << ") does not round-trip";
  }
  expect_every_mutator_refused_something(o, /*truncation_refuses=*/true);
}

TEST(TextFuzz, JsonMutantsAreRefusedOrRoundTrip) {
  const std::string seed = kManifest;
  obs::JsonValue parsed;
  ASSERT_TRUE(obs::json_parse(seed, parsed));
  Outcomes o;
  for (std::uint64_t i = 0; i < kMutants; ++i) {
    util::Rng rng = util::Rng::substream(kJsonSeed, i);
    const auto m = static_cast<Mutator>(i % kMutators);
    const std::string mutant = mutate(seed, m, rng);
    obs::JsonValue v;
    obs::JsonError err;
    if (!obs::json_parse(mutant, v, &err)) {
      ++o.refused[m];
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
  for (std::uint64_t i = 0; i < kMutants; ++i) {
    util::Rng rng = util::Rng::substream(kTopologySeed, i);
    const auto m = static_cast<Mutator>(i % kMutators);
    const std::string mutant = mutate(seed, m, rng);
    topo::Topology t;
    try {
      t = topo::deserialize(mutant);
    } catch (const std::invalid_argument& e) {
      ++o.refused[m];
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
  EXPECT_GT(o.accepted[kBitFlip] + o.accepted[kDigitExtend], 0u);  // the fixpoint half ran
}

}  // namespace
}  // namespace flattree::fuzz
