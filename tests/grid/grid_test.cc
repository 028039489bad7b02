#include "grid/grid.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "datasets/geo.h"
#include "testutil.h"

namespace dbscout::grid {
namespace {

PointSet TwoDPoints(std::initializer_list<std::pair<double, double>> pts) {
  PointSet ps(2);
  for (const auto& [x, y] : pts) {
    ps.Add({x, y});
  }
  return ps;
}

TEST(GridTest, RejectsInvalidEps) {
  const PointSet ps = TwoDPoints({{0, 0}});
  EXPECT_FALSE(Grid::Build(ps, 0.0).ok());
  EXPECT_FALSE(Grid::Build(ps, -1.0).ok());
  EXPECT_FALSE(Grid::Build(ps, std::nan("")).ok());
}

TEST(GridTest, RejectsNonFiniteCoordinates) {
  PointSet ps(2);
  ps.Add({0.0, std::numeric_limits<double>::infinity()});
  EXPECT_FALSE(Grid::Build(ps, 1.0).ok());
  PointSet ps2(2);
  ps2.Add({std::nan(""), 0.0});
  EXPECT_FALSE(Grid::Build(ps2, 1.0).ok());
}

TEST(GridTest, RejectsOverflowingCoordinates) {
  PointSet ps(1);
  ps.Add({1e300});
  auto g = Grid::Build(ps, 1.0);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
}

TEST(GridTest, SideLengthIsEpsOverSqrtD) {
  const PointSet ps = TwoDPoints({{0, 0}});
  auto g = Grid::Build(ps, std::sqrt(2.0));
  ASSERT_TRUE(g.ok());
  EXPECT_NEAR(g->side(), 1.0, 1e-12);
}

TEST(GridTest, AssignsPointsToExpectedCells) {
  // eps = sqrt(2) in 2D -> side 1: cells are unit squares.
  const PointSet ps = TwoDPoints({{0.5, 0.5}, {1.1, -0.3}, {1.9, -0.9},
                                  {0.7, -1.5}, {0.3, -1.8}});
  auto g = Grid::Build(ps, std::sqrt(2.0));
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_cells(), 3u);
  const CellCoord c1 = testing::CellAt(*g, ps[0]);
  EXPECT_EQ(c1[0], 0);
  EXPECT_EQ(c1[1], 0);
  const CellCoord c2 = testing::CellAt(*g, ps[1]);
  EXPECT_EQ(c2[0], 1);
  EXPECT_EQ(c2[1], -1);
  const CellCoord c3 = testing::CellAt(*g, ps[3]);
  EXPECT_EQ(c3[0], 0);
  EXPECT_EQ(c3[1], -2);
}

TEST(GridTest, NegativeCoordinatesUseFloor) {
  PointSet ps(1);
  ps.Add({-0.5});
  ps.Add({-1.0});
  ps.Add({-1.5});
  auto g = Grid::Build(ps, 1.0);  // d=1 -> side = 1
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(testing::CellAt(*g, ps[0])[0], -1);
  // The boundary lands in its own cell.
  EXPECT_EQ(testing::CellAt(*g, ps[1])[0], -1);
  EXPECT_EQ(testing::CellAt(*g, ps[2])[0], -2);
}

TEST(GridTest, CsrLayoutGroupsEveryPointExactlyOnce) {
  Rng rng(17);
  const PointSet ps = testing::ClusteredPoints(&rng, 2000, 3, 5, 0.1);
  auto g = Grid::Build(ps, 2.0);
  ASSERT_TRUE(g.ok());
  std::set<uint32_t> seen;
  size_t total = 0;
  for (uint32_t c = 0; c < g->num_cells(); ++c) {
    for (uint32_t p : g->PointsInCell(c)) {
      EXPECT_TRUE(seen.insert(p).second) << "duplicate point " << p;
      EXPECT_EQ(g->CellIdOfPoint(p), c);
      // Every point must geometrically belong to its cell.
      EXPECT_EQ(testing::CellAt(*g, ps[p]), g->CoordOf(c));
      ++total;
    }
    EXPECT_EQ(g->CellSize(c), g->PointsInCell(c).size());
  }
  EXPECT_EQ(total, ps.size());
}

TEST(GridTest, OrderedStorageMirrorsCsrLayout) {
  Rng rng(29);
  const PointSet ps = testing::ClusteredPoints(&rng, 1500, 3, 4, 0.2);
  auto g = Grid::Build(ps, 1.7);
  ASSERT_TRUE(g.ok());
  const size_t d = ps.dims();
  ASSERT_EQ(g->CellBeginRow(static_cast<uint32_t>(g->num_cells())),
            ps.size());
  for (uint32_t c = 0; c < g->num_cells(); ++c) {
    const auto cell_points = g->PointsInCell(c);
    const double* block = g->CellBlock(c);
    for (size_t j = 0; j < cell_points.size(); ++j) {
      const uint32_t p = cell_points[j];
      const uint32_t row = g->CellBeginRow(c) + static_cast<uint32_t>(j);
      EXPECT_EQ(g->OriginalIndex(row), p);
      // The permuted block holds exactly the point's coordinates, and the
      // cell's rows form one contiguous row-major stream.
      const auto expected = ps[p];
      const auto ordered = g->OrderedPoint(row);
      for (size_t k = 0; k < d; ++k) {
        EXPECT_EQ(ordered[k], expected[k]);
        EXPECT_EQ(block[j * d + k], expected[k]);
      }
    }
  }
}

TEST(GridTest, OrderedRowsWithinCellKeepAscendingOriginalOrder) {
  Rng rng(31);
  const PointSet ps = testing::UniformPoints(&rng, 800, 2, -3.0, 3.0);
  auto g = Grid::Build(ps, 0.9);
  ASSERT_TRUE(g.ok());
  for (uint32_t c = 0; c < g->num_cells(); ++c) {
    const auto cell_points = g->PointsInCell(c);
    for (size_t j = 1; j < cell_points.size(); ++j) {
      EXPECT_LT(cell_points[j - 1], cell_points[j]);
    }
  }
}

TEST(GridTest, CellIdsDependOnlyOnTheData) {
  // The same points in another order get the same cells under the same
  // ids, numbered by ascending coordinates.
  for (size_t d : {2u, 4u}) {
    Rng rng(41 + d);
    const PointSet ps = testing::ClusteredPoints(&rng, 2000, d, 5, 0.2);
    std::vector<uint32_t> perm(ps.size());  // shuffled[j] = ps[perm[j]]
    std::iota(perm.begin(), perm.end(), 0u);
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
    }
    PointSet shuffled(d);
    for (uint32_t p : perm) {
      shuffled.Add(ps[p]);
    }
    auto g = Grid::Build(ps, 1.1);
    auto h = Grid::Build(shuffled, 1.1);
    ASSERT_TRUE(g.ok() && h.ok());
    ASSERT_EQ(g->num_cells(), h->num_cells()) << "d=" << d;
    for (uint32_t c = 0; c < g->num_cells(); ++c) {
      ASSERT_EQ(g->CoordOf(c), h->CoordOf(c)) << "d=" << d << " cell " << c;
      if (c > 0) {
        EXPECT_LT(g->CoordOf(c - 1), g->CoordOf(c)) << "d=" << d;
      }
      const auto points = g->PointsInCell(c);
      std::vector<uint32_t> want(points.begin(), points.end());
      std::vector<uint32_t> got;
      for (uint32_t j : h->PointsInCell(c)) {
        got.push_back(perm[j]);
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << "d=" << d << " cell " << g->CoordOf(c);
    }
  }
}

TEST(GridTest, PointsWithinOneCellAreWithinEps) {
  // The defining property of the epsilon-cell (diagonal = eps): any two
  // points sharing a cell are within eps of each other.
  Rng rng(23);
  const PointSet ps = testing::UniformPoints(&rng, 1000, 3, -5.0, 5.0);
  const double eps = 1.3;
  auto g = Grid::Build(ps, eps);
  ASSERT_TRUE(g.ok());
  for (uint32_t c = 0; c < g->num_cells(); ++c) {
    const auto pts = g->PointsInCell(c);
    for (size_t i = 0; i < pts.size(); ++i) {
      for (size_t j = i + 1; j < pts.size(); ++j) {
        EXPECT_LE(ps.SquaredDistance(pts[i], pts[j]), eps * eps);
      }
    }
  }
}

TEST(GridTest, FindCellLookupsMatchCoords) {
  const PointSet ps = TwoDPoints({{0.5, 0.5}, {3.5, 3.5}});
  auto g = Grid::Build(ps, std::sqrt(2.0));
  ASSERT_TRUE(g.ok());
  for (uint32_t c = 0; c < g->num_cells(); ++c) {
    auto found = g->FindCell(g->CoordOf(c));
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, c);
  }
  const int64_t vals[] = {100, 100};
  EXPECT_FALSE(g->FindCell(CellCoord({vals, 2})).has_value());
}

TEST(GridTest, NeighborEnumerationFindsAllCellsWithinReach) {
  // Points in adjacent unit cells must see each other via the stencil.
  const PointSet ps = TwoDPoints({{0.5, 0.5}, {1.5, 0.5}, {5.0, 5.0}});
  auto g = Grid::Build(ps, std::sqrt(2.0));
  ASSERT_TRUE(g.ok());
  auto stencil = GetNeighborStencil(2);
  ASSERT_TRUE(stencil.ok());
  const uint32_t cell0 = g->CellIdOfPoint(0);
  std::set<uint32_t> neighbors;
  g->ForEachNeighborCell(cell0, **stencil,
                         [&](uint32_t nc) { neighbors.insert(nc); });
  EXPECT_TRUE(neighbors.count(cell0));                    // self
  EXPECT_TRUE(neighbors.count(g->CellIdOfPoint(1)));      // adjacent
  EXPECT_FALSE(neighbors.count(g->CellIdOfPoint(2)));     // far away
}

TEST(GridTest, EmptyPointSetYieldsEmptyGrid) {
  PointSet ps(2);
  auto g = Grid::Build(ps, 1.0);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_cells(), 0u);
  EXPECT_EQ(g->num_points(), 0u);
}

TEST(GridTest, DuplicatePointsShareOneCell) {
  PointSet ps(2);
  for (int i = 0; i < 10; ++i) {
    ps.Add({1.25, 1.25});
  }
  auto g = Grid::Build(ps, 1.0);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_cells(), 1u);
  EXPECT_EQ(g->CellSize(0), 10u);
}

// Everything a grid exposes, flattened for comparison.
struct GridImage {
  std::vector<CellCoord> coords;
  std::vector<uint32_t> begin_rows;
  std::vector<uint32_t> original_index;
  std::vector<uint32_t> cell_of_point;
  std::vector<double> ordered;

  explicit GridImage(const Grid& g)
      : coords(g.CellCoords().begin(), g.CellCoords().end()) {
    for (uint32_t c = 0; c <= g.num_cells(); ++c) {
      begin_rows.push_back(g.CellBeginRow(c));
    }
    for (uint32_t i = 0; i < g.num_points(); ++i) {
      original_index.push_back(g.OriginalIndex(i));
      cell_of_point.push_back(g.CellIdOfPoint(i));
      const auto row = g.OrderedPoint(i);
      ordered.insert(ordered.end(), row.begin(), row.end());
    }
  }
};

// The tasks split the points by position and merge their cells by
// coordinates, so no schedule shows in the result: the pooled build equals
// the one-task build bit for bit, whether the tasks share cells (OsmLike's
// cities), barely do (4-d clusters), outnumber the points or see only one
// cell.
TEST(GridTest, PooledBuildEqualsSerialBuild) {
  Rng rng(41);
  PointSet duplicates(3);
  for (int i = 0; i < 1000; ++i) {
    duplicates.Add({-2.5, 7.0, 1e6});
  }
  const struct {
    const char* name;
    PointSet points;
    double eps;
  } cases[] = {
      {"osm 2-d", datasets::OsmLike(60000, 5), 2.5e5},
      {"clusters 4-d", testing::ClusteredPoints(&rng, 20000, 4, 6, 0.2), 1.0},
      {"empty", PointSet(2), 1.0},
      {"fewer points than tasks", TwoDPoints({{0, 0}, {5, 5}, {0.1, 0.2}}),
       1.0},
      {"all duplicates", duplicates, 1.0},
  };
  for (const auto& c : cases) {
    auto serial = Grid::Build(c.points, c.eps);
    ASSERT_TRUE(serial.ok()) << c.name;
    const GridImage expected(*serial);
    EXPECT_EQ(expected.cell_of_point.size(), c.points.size());
    for (size_t threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      auto pooled = Grid::Build(c.points, c.eps, &pool);
      ASSERT_TRUE(pooled.ok()) << c.name;
      const GridImage got(*pooled);
      const std::string what =
          std::string(c.name) + ", " + std::to_string(threads) + " threads";
      EXPECT_EQ(got.coords, expected.coords) << what;
      EXPECT_EQ(got.begin_rows, expected.begin_rows) << what;
      EXPECT_EQ(got.original_index, expected.original_index) << what;
      EXPECT_EQ(got.cell_of_point, expected.cell_of_point) << what;
      EXPECT_EQ(got.ordered, expected.ordered) << what;
    }
  }
}

// Each task stops at its own first bad point, and Build reports the
// lowest failing task's: the first bad point in input order, as when one
// task reads them all.
TEST(GridTest, FirstBadPointInInputOrderWinsUnderThePool) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    double at_30k;
    double at_80k;
    StatusCode code;
  } cases[] = {{1e300, kNan, StatusCode::kOutOfRange},
               {kNan, 1e300, StatusCode::kInvalidArgument}};
  for (const auto& c : cases) {
    Rng rng(43);
    PointSet ps(2);
    for (size_t i = 0; i < 100000; ++i) {
      const double x = i == 30000 ? c.at_30k
                       : i == 80000 ? c.at_80k
                                    : rng.Uniform(-100.0, 100.0);
      ps.Add({x, rng.Uniform(-100.0, 100.0)});
    }
    EXPECT_EQ(Grid::Build(ps, 1.0).status().code(), c.code);
    for (size_t threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      EXPECT_EQ(Grid::Build(ps, 1.0, &pool).status().code(), c.code)
          << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace dbscout::grid
