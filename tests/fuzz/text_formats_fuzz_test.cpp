// Deterministic mutation test for the two hand-editable text formats,
// fault scenarios (fault::load_scenario) and design candidates
// (design::Candidate::decode). The seeds are a busy generated scenario and
// a three-zone candidate; each mutant applies one mutator of
// tests/fuzz/mutator.hpp with positions drawn from Rng::substream, so
// every run tests the same kMutants mutants per format. Every mutant must
// be either refused with std::runtime_error (any other exception fails the
// test) or accepted as a value that re-encodes and re-parses to an equal
// value, bit for bit.

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
#include "util/rng.hpp"

namespace flattree::fuzz {
namespace {

constexpr std::uint64_t kMutants = 2000;
constexpr std::uint64_t kScenarioSeed = 0x7363656e6172696fULL;
constexpr std::uint64_t kCandidateSeed = 0x63616e646964ULL;

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

}  // namespace
}  // namespace flattree::fuzz
