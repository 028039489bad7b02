#include "grid/regions.h"

#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

namespace dbscout::grid {
namespace {

TEST(RegionsTest, SlabReachMatchesStencilRadius) {
  // ceil(sqrt(d)): the dim-0 extent of the neighbor stencil.
  EXPECT_EQ(SlabReach(1), 1);
  EXPECT_EQ(SlabReach(2), 2);
  EXPECT_EQ(SlabReach(4), 2);
  EXPECT_EQ(SlabReach(5), 3);
  EXPECT_EQ(SlabReach(9), 3);
}

TEST(RegionsTest, HaloSlabsIsTwoStencilReaches) {
  // The shared ghost-zone width: external spill stripes and incremental
  // slab blocks both replicate this many slabs of context per side.
  EXPECT_EQ(HaloSlabs(1), 2);
  EXPECT_EQ(HaloSlabs(2), 4);
  EXPECT_EQ(HaloSlabs(4), 4);
  EXPECT_EQ(HaloSlabs(5), 6);
  EXPECT_EQ(HaloSlabs(9), 6);
  for (size_t d = 1; d <= 16; ++d) {
    EXPECT_EQ(HaloSlabs(d), 2 * SlabReach(d)) << "d=" << d;
  }
}

TEST(RegionsTest, PlanStripesEmptyHistogram) {
  EXPECT_TRUE(PlanStripes({}, 100).empty());
}

TEST(RegionsTest, PlanStripesSingleStripeWhenUnderTarget) {
  std::map<int64_t, uint64_t> hist{{-2, 5}, {0, 5}, {3, 5}};
  auto stripes = PlanStripes(hist, 100);
  ASSERT_EQ(stripes.size(), 1u);
  EXPECT_EQ(stripes[0].slab_lo, -2);
  EXPECT_EQ(stripes[0].slab_hi, 3);
}

TEST(RegionsTest, PlanStripesSplitsAtTargetAndCoversRange) {
  std::map<int64_t, uint64_t> hist;
  for (int64_t s = 0; s < 10; ++s) {
    hist[s] = 10;
  }
  auto stripes = PlanStripes(hist, 25);
  ASSERT_GE(stripes.size(), 2u);
  // Contiguous cover of the populated range.
  EXPECT_EQ(stripes.front().slab_lo, 0);
  EXPECT_EQ(stripes.back().slab_hi, 9);
  for (size_t i = 1; i < stripes.size(); ++i) {
    EXPECT_EQ(stripes[i].slab_lo, stripes[i - 1].slab_hi + 1);
  }
  // No stripe exceeds the target except by a single slab's worth.
  for (const auto& s : stripes) {
    uint64_t points = 0;
    for (int64_t slab = s.slab_lo; slab <= s.slab_hi; ++slab) {
      points += hist.count(slab) ? hist[slab] : 0;
    }
    EXPECT_LE(points, 30u);
  }
}

TEST(RegionsTest, FirstStripeAtOrAfterBinarySearch) {
  std::vector<Stripe> stripes{{0, 3}, {4, 7}, {8, 11}};
  EXPECT_EQ(FirstStripeAtOrAfter(stripes, -5), 0u);
  EXPECT_EQ(FirstStripeAtOrAfter(stripes, 3), 0u);
  EXPECT_EQ(FirstStripeAtOrAfter(stripes, 4), 1u);
  EXPECT_EQ(FirstStripeAtOrAfter(stripes, 11), 2u);
  EXPECT_EQ(FirstStripeAtOrAfter(stripes, 12), 3u);
}

TEST(RegionsTest, SlabBlockFloorDivision) {
  EXPECT_EQ(SlabBlock(0, 4), 0);
  EXPECT_EQ(SlabBlock(3, 4), 0);
  EXPECT_EQ(SlabBlock(4, 4), 1);
  EXPECT_EQ(SlabBlock(-1, 4), -1);
  EXPECT_EQ(SlabBlock(-4, 4), -1);
  EXPECT_EQ(SlabBlock(-5, 4), -2);
}

TEST(RegionsTest, WaveColoringSeparatesConflictingBlocks) {
  // Same-color blocks must be >= 3 apart (write radius is +/-1 block).
  for (int64_t b = -10; b <= 10; ++b) {
    const int wave = WaveOf(b);
    ASSERT_GE(wave, 0);
    ASSERT_LT(wave, kNumWaves);
    for (int64_t other = b - 2; other <= b + 2; ++other) {
      if (other != b) {
        EXPECT_NE(WaveOf(other), wave) << "blocks " << b << ", " << other;
      }
    }
    EXPECT_EQ(WaveOf(b + 3), wave);
  }
}

}  // namespace
}  // namespace dbscout::grid
