// design::Candidate: canonical form, the factories' validation rules, and
// the byte-exact encode/decode round trip (the same contract fault
// scenario files carry).

#include "design/candidate.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace flattree::design {
namespace {

using core::Mode;

TEST(Candidate, UniformIsOneZone) {
  Candidate c = Candidate::uniform(8, Mode::GlobalRandom);
  EXPECT_EQ(c.pods(), 8u);
  ASSERT_EQ(c.zones().size(), 1u);
  EXPECT_EQ(c.zones()[0], (Zone{0, 8, Mode::GlobalRandom}));
  EXPECT_THROW(Candidate::uniform(0, Mode::Clos), std::invalid_argument);
}

TEST(Candidate, FromPodModesMergesRuns) {
  std::vector<Mode> modes = {Mode::Clos, Mode::Clos, Mode::GlobalRandom,
                             Mode::GlobalRandom, Mode::GlobalRandom,
                             Mode::LocalRandom};
  Candidate c = Candidate::from_pod_modes(modes);
  ASSERT_EQ(c.zones().size(), 3u);
  EXPECT_EQ(c.zones()[0], (Zone{0, 2, Mode::Clos}));
  EXPECT_EQ(c.zones()[1], (Zone{2, 5, Mode::GlobalRandom}));
  EXPECT_EQ(c.zones()[2], (Zone{5, 6, Mode::LocalRandom}));
  EXPECT_EQ(c.pod_modes(), modes);  // round trip back to the flat vector
}

TEST(Candidate, FromZonesCanonicalizesAdjacentSameMode) {
  Candidate c = Candidate::from_zones(
      6, {{0, 3, Mode::Clos}, {3, 6, Mode::Clos}});
  ASSERT_EQ(c.zones().size(), 1u);
  EXPECT_EQ(c, Candidate::uniform(6, Mode::Clos));
}

TEST(Candidate, FromZonesRejectsGapsOverlapsAndEmptyZones) {
  using Z = std::vector<Zone>;
  EXPECT_THROW(Candidate::from_zones(6, Z{{0, 3, Mode::Clos}}),
               std::invalid_argument);  // does not cover [0, 6)
  EXPECT_THROW(
      Candidate::from_zones(6, Z{{0, 4, Mode::Clos}, {3, 6, Mode::LocalRandom}}),
      std::invalid_argument);  // overlap
  EXPECT_THROW(
      Candidate::from_zones(6, Z{{0, 2, Mode::Clos}, {3, 6, Mode::LocalRandom}}),
      std::invalid_argument);  // gap
  EXPECT_THROW(
      Candidate::from_zones(6, Z{{0, 0, Mode::Clos}, {0, 6, Mode::LocalRandom}}),
      std::invalid_argument);  // empty zone
  EXPECT_THROW(Candidate::from_zones(6, Z{}), std::invalid_argument);
}

TEST(Candidate, PodsInCollectsAscending) {
  Candidate c = Candidate::from_zones(8, {{0, 2, Mode::LocalRandom},
                                          {2, 6, Mode::GlobalRandom},
                                          {6, 8, Mode::LocalRandom}});
  EXPECT_EQ(c.pods_in(Mode::LocalRandom),
            (std::vector<std::uint32_t>{0, 1, 6, 7}));
  EXPECT_EQ(c.pods_in(Mode::GlobalRandom),
            (std::vector<std::uint32_t>{2, 3, 4, 5}));
  EXPECT_TRUE(c.pods_in(Mode::Clos).empty());
}

TEST(Candidate, EncodeDecodeRoundTripsByteExact) {
  Candidate c = Candidate::from_zones(8, {{0, 5, Mode::GlobalRandom},
                                          {5, 7, Mode::Clos},
                                          {7, 8, Mode::LocalRandom}});
  std::string text = c.encode();
  // decode(encode(c)) == c ...
  EXPECT_EQ(Candidate::decode(text), c);
  // ... and encode(decode(s)) == s, byte for byte, for canonical s.
  EXPECT_EQ(Candidate::decode(text).encode(), text);
}

TEST(Candidate, EncodeIsTheDocumentedTextFormat) {
  Candidate c = Candidate::from_zones(4, {{0, 3, Mode::Clos},
                                          {3, 4, Mode::LocalRandom}});
  EXPECT_EQ(c.encode(),
            "# flattree-design-candidate v1\n"
            "pods 4\n"
            "zone 0 3 clos\n"
            "zone 3 4 local-random\n");
}

TEST(Candidate, DecodeIgnoresBlankAndCommentLines) {
  Candidate c = Candidate::decode(
      "# flattree-design-candidate v1\n"
      "\n"
      "# a comment\n"
      "pods 4\n"
      "zone 0 4 global-random\n"
      "\n");
  EXPECT_EQ(c, Candidate::uniform(4, Mode::GlobalRandom));
}

TEST(Candidate, DecodeRejectsMalformedInput) {
  EXPECT_THROW(Candidate::decode(""), std::runtime_error);
  EXPECT_THROW(Candidate::decode("pods 4\nzone 0 4 clos\n"),
               std::runtime_error);  // missing header
  EXPECT_THROW(Candidate::decode("# flattree-design-candidate v1\n"
                                 "zone 0 4 clos\n"),
               std::runtime_error);  // missing pods line
  EXPECT_THROW(Candidate::decode("# flattree-design-candidate v1\n"
                                 "pods 4\n"
                                 "zone 0 4 mesh\n"),
               std::runtime_error);  // unknown mode token
  EXPECT_THROW(Candidate::decode("# flattree-design-candidate v1\n"
                                 "pods 4\n"
                                 "zone 0 3 clos\n"),
               std::runtime_error);  // coverage failure surfaces as decode error
  EXPECT_THROW(Candidate::decode("# flattree-design-candidate v1\n"
                                 "pods 4\n"
                                 "frob 0 4 clos\n"),
               std::runtime_error);  // unknown directive
}

// Pod counts and zone bounds are canonical decimal within uint32
// (util/scan.hpp), and a line holds exactly its fields; each refusal
// names its own reason. `pods -1` used to decode as 4294967295 pods.
TEST(Candidate, DecodeRejectsNonCanonicalIntegersAndTrailingTokens) {
  const std::string head = "# flattree-design-candidate v1\n";
  const std::pair<const char*, const char*> cases[] = {
      {"pods -1\nzone 0 -1 clos\n", "signed integer '-1'"},
      {"pods 4\nzone 0 -1 clos\n", "signed integer '-1'"},
      {"pods 04\nzone 0 4 clos\n", "leading zero '04'"},
      {"pods 4\nzone 00 4 clos\n", "leading zero '00'"},
      {"pods 4294967296\nzone 0 4294967296 clos\n", "integer out of range"},
      {"pods 4 4\nzone 0 4 clos\n", "trailing token '4'"},
      {"pods 4\nzone 0 4 clos extra\n", "trailing token 'extra'"},
      {"pods 4\nzone 0 4\n", "bad zone line"},
      {"pods\nzone 0 4 clos\n", "bad pods line"},
      {"pods 4\nzone 0  4 clos\n", "stray space"},
      {"pods 4x\nzone 0 4 clos\n", "non-digit in integer '4x'"},
  };
  for (const auto& [body, why] : cases) {
    try {
      Candidate::decode(head + body);
      FAIL() << "accepted: " << body;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << body << " -> " << e.what();
    }
  }
}

}  // namespace
}  // namespace flattree::design
