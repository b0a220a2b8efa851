// design::Candidate: canonical form, the factories' validation rules, the
// per-pod expansion and the documented text encoding.

#include "design/candidate.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
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

TEST(Candidate, PodModesExpandsZones) {
  Candidate c = Candidate::from_zones(6, {{0, 2, Mode::Clos},
                                          {2, 5, Mode::GlobalRandom},
                                          {5, 6, Mode::LocalRandom}});
  EXPECT_EQ(c.pod_modes(),
            (std::vector<Mode>{Mode::Clos, Mode::Clos, Mode::GlobalRandom,
                               Mode::GlobalRandom, Mode::GlobalRandom,
                               Mode::LocalRandom}));
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

TEST(Candidate, EncodeIsTheDocumentedTextFormat) {
  Candidate c = Candidate::from_zones(4, {{0, 3, Mode::Clos},
                                          {3, 4, Mode::LocalRandom}});
  EXPECT_EQ(c.encode(),
            "# flattree-design-candidate v1\n"
            "pods 4\n"
            "zone 0 3 clos\n"
            "zone 3 4 local-random\n");
}

}  // namespace
}  // namespace flattree::design
