// Encodes the walk-through example of the paper (SS III, Figs. 2-9): a 2D toy
// dataset analyzed with eps = sqrt(2) and minPts = 5. The dataset below is
// constructed to satisfy every property the paper states about its example:
//   - cell C1 = (0,0) is dense, so all of its points are core (Lemma 1);
//   - cell C2 = (1,-1) holds p1 = (1.1,-0.3) and p2 = (1.9,-0.9): p1 turns
//     out to be core, p2 does not (Figs. 4-5);
//   - cell C3 = (0,-2) holds p3 = (0.7,-1.5) and p4 = (0.3,-1.8): p3 has a
//     core point within eps (not an outlier), p4 does not (Figs. 7-8);
//   - the final outlier set is exactly {p4} (Fig. 9).
#include <cmath>

#include <gtest/gtest.h>

#include "core/dbscout.h"
#include "grid/grid.h"
#include "testutil.h"

namespace dbscout::core {
namespace {

constexpr double kEps = 1.41421356237309504880;  // sqrt(2)
constexpr int kMinPts = 5;

// Indices of the named points in the toy set.
constexpr uint32_t kP1 = 5;
constexpr uint32_t kP2 = 6;
constexpr uint32_t kP3 = 7;
constexpr uint32_t kP4 = 8;

PointSet PaperExample() {
  PointSet ps(2);
  // Five points in cell (0,0): the dense cell of Fig. 3.
  ps.Add({0.3, 0.3});
  ps.Add({0.5, 0.5});
  ps.Add({0.4, 0.6});
  ps.Add({0.6, 0.4});
  ps.Add({0.5, 0.3});
  // Cell (1,-1): the two points discussed in Figs. 4-5.
  ps.Add({1.1, -0.3});  // p1
  ps.Add({1.9, -0.9});  // p2
  // Cell (0,-2): the two points discussed in Figs. 7-8.
  ps.Add({0.7, -1.5});  // p3
  ps.Add({0.3, -1.8});  // p4
  return ps;
}

TEST(PaperExampleTest, GridAssignmentMatchesFig3) {
  const PointSet ps = PaperExample();
  auto g = grid::Grid::Build(ps, kEps);
  ASSERT_TRUE(g.ok());
  EXPECT_NEAR(g->side(), 1.0, 1e-12);  // eps/sqrt(2) = 1
  EXPECT_EQ(g->num_cells(), 3u);

  const auto c1 = testing::CellAt(*g, ps[0]);
  EXPECT_EQ(c1[0], 0);
  EXPECT_EQ(c1[1], 0);
  const auto c2 = testing::CellAt(*g, ps[kP1]);
  EXPECT_EQ(c2[0], 1);
  EXPECT_EQ(c2[1], -1);
  EXPECT_EQ(testing::CellAt(*g, ps[kP2]), c2);
  const auto c3 = testing::CellAt(*g, ps[kP3]);
  EXPECT_EQ(c3[0], 0);
  EXPECT_EQ(c3[1], -2);
  EXPECT_EQ(testing::CellAt(*g, ps[kP4]), c3);
}

TEST(PaperExampleTest, DenseCellPointsAreCore) {
  const PointSet ps = PaperExample();
  Params params;
  params.eps = kEps;
  params.min_pts = kMinPts;
  auto r = DetectSequential(ps, params);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->num_dense_cells, 1u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(r->kinds[i], PointKind::kCore) << "dense-cell point " << i;
  }
}

TEST(PaperExampleTest, P1IsCoreAndP2IsNot) {
  const PointSet ps = PaperExample();
  Params params;
  params.eps = kEps;
  params.min_pts = kMinPts;
  auto r = DetectSequential(ps, params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kinds[kP1], PointKind::kCore);
  EXPECT_NE(r->kinds[kP2], PointKind::kCore);
  // p2 sits in a core cell (p1 is core there), so by Lemma 2 it cannot be
  // an outlier.
  EXPECT_EQ(r->kinds[kP2], PointKind::kBorder);
}

TEST(PaperExampleTest, P3IsCoveredAndP4IsTheOnlyOutlier) {
  const PointSet ps = PaperExample();
  Params params;
  params.eps = kEps;
  params.min_pts = kMinPts;
  auto r = DetectSequential(ps, params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kinds[kP3], PointKind::kBorder);
  EXPECT_EQ(r->kinds[kP4], PointKind::kOutlier);
  EXPECT_EQ(r->outliers, (std::vector<uint32_t>{kP4}));
}

TEST(PaperExampleTest, NeighborCountsBehindTheFigures) {
  // Sanity-check the raw epsilon-neighborhood counts (point itself
  // included, Definition 2) that drive the classifications above.
  const PointSet ps = PaperExample();
  const double eps2 = kEps * kEps;
  auto count_neighbors = [&](uint32_t p) {
    int count = 0;
    for (size_t q = 0; q < ps.size(); ++q) {
      count += ps.SquaredDistance(p, q) <= eps2;
    }
    return count;
  };
  EXPECT_GE(count_neighbors(kP1), kMinPts);  // p1: core
  EXPECT_LT(count_neighbors(kP2), kMinPts);  // p2: only p1 and p3 in reach
  EXPECT_LT(count_neighbors(kP3), kMinPts);
  EXPECT_LT(count_neighbors(kP4), kMinPts);
  // p4's epsilon-neighborhood contains no core point: its only neighbor
  // besides itself is p3.
  EXPECT_EQ(count_neighbors(kP4), 2);
}

TEST(PaperExampleTest, MatchesBruteForceOracle) {
  const PointSet ps = PaperExample();
  Params params;
  params.eps = kEps;
  params.min_pts = kMinPts;
  auto r = DetectSequential(ps, params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kinds, testing::BruteForceKinds(ps, kEps, kMinPts));
}

}  // namespace
}  // namespace dbscout::core
