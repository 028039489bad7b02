#include "grid/cell_map.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "grid/neighbor_cells.h"

namespace dbscout::grid {
namespace {

CellCoord Coord2(int64_t x, int64_t y) {
  const int64_t vals[] = {x, y};
  return CellCoord({vals, 2});
}

// Builds a cell map from a grid the way the sequential driver would:
// classification decided by the caller (count >= min_pts), passed as a bool.
CellMap BuildFromGrid(const Grid& g, uint32_t min_pts) {
  CellMap map;
  for (uint32_t c = 0; c < g.num_cells(); ++c) {
    const uint32_t count = static_cast<uint32_t>(g.CellSize(c));
    map.Insert(g.CoordOf(c), count, count >= min_pts);
  }
  return map;
}

PointSet DensePlusSparse() {
  PointSet ps(2);
  // 5 points in cell (0,0), 2 in (1,-1), 1 in (4,4).
  ps.Add({0.1, 0.1});
  ps.Add({0.2, 0.2});
  ps.Add({0.3, 0.3});
  ps.Add({0.4, 0.4});
  ps.Add({0.5, 0.5});
  ps.Add({1.1, -0.3});
  ps.Add({1.9, -0.9});
  ps.Add({4.5, 4.5});
  return ps;
}

TEST(CellMapTest, InsertedCellsClassifyByCount) {
  const PointSet ps = DensePlusSparse();
  auto g = Grid::Build(ps, std::sqrt(2.0));
  ASSERT_TRUE(g.ok());
  const CellMap map = BuildFromGrid(*g, 5);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.TypeOf(Coord2(0, 0)), CellType::kDense);
  EXPECT_EQ(map.TypeOf(Coord2(1, -1)), CellType::kOther);
  EXPECT_EQ(map.TypeOf(Coord2(4, 4)), CellType::kOther);
  EXPECT_EQ(map.CountOf(Coord2(0, 0)), 5u);
  EXPECT_EQ(map.CountOf(Coord2(1, -1)), 2u);
  EXPECT_EQ(map.CountByType(CellType::kDense), 1u);
}

TEST(CellMapTest, AbsentCellsAreEmpty) {
  const PointSet ps = DensePlusSparse();
  auto g = Grid::Build(ps, std::sqrt(2.0));
  const CellMap map = BuildFromGrid(*g, 5);
  EXPECT_EQ(map.TypeOf(Coord2(99, 99)), CellType::kOther);
  EXPECT_EQ(map.CountOf(Coord2(99, 99)), 0u);
  EXPECT_FALSE(map.Contains(Coord2(99, 99)));
}

TEST(CellMapTest, MarkCoreUpgradesButNeverDowngrades) {
  const PointSet ps = DensePlusSparse();
  auto g = Grid::Build(ps, std::sqrt(2.0));
  CellMap map = BuildFromGrid(*g, 5);
  map.MarkCore(Coord2(1, -1));
  EXPECT_EQ(map.TypeOf(Coord2(1, -1)), CellType::kCore);
  map.MarkCore(Coord2(0, 0));  // dense stays dense
  EXPECT_EQ(map.TypeOf(Coord2(0, 0)), CellType::kDense);
  EXPECT_TRUE(map.IsCoreCell(Coord2(0, 0)));
  EXPECT_TRUE(map.IsCoreCell(Coord2(1, -1)));
  EXPECT_FALSE(map.IsCoreCell(Coord2(4, 4)));
}

TEST(CellMapTest, InsertTypesByCallerVerdict) {
  CellMap map;
  map.Insert(Coord2(0, 0), 10, /*dense=*/true);
  map.Insert(Coord2(1, 1), 4, /*dense=*/false);
  EXPECT_EQ(map.TypeOf(Coord2(0, 0)), CellType::kDense);
  EXPECT_EQ(map.TypeOf(Coord2(1, 1)), CellType::kOther);
  EXPECT_EQ(map.CountOf(Coord2(0, 0)), 10u);
}

// The dataflow engine's O_ncn question (does a cell have a core
// neighbor?) asked of the map through neighbor lists over its cells.
TEST(CellMapTest, CoreNeighborFoundThroughNeighborLists) {
  const std::vector<CellCoord> coords = {Coord2(0, 0), Coord2(2, 0),
                                         Coord2(10, 10)};
  CellMap map;
  map.Insert(coords[0], 10, /*dense=*/true);  // dense -> core
  map.Insert(coords[1], 1, /*dense=*/false);  // neighbor at offset (-2,0)
  map.Insert(coords[2], 1, /*dense=*/false);  // isolated
  const NeighborCells lists = NeighborCells::Build(coords);
  auto has_core_neighbor = [&](uint32_t c) {
    for (uint32_t nc : lists.Of(c)) {
      if (map.IsCoreCell(coords[nc])) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_core_neighbor(1));
  EXPECT_TRUE(has_core_neighbor(0));  // self counts
  EXPECT_FALSE(has_core_neighbor(2));
}

TEST(CellMapTest, NeighborListsVisitSelfAndNeighbors) {
  const std::vector<CellCoord> coords = {Coord2(0, 0), Coord2(1, 1),
                                         Coord2(50, 50)};
  CellMap map;
  map.Insert(coords[0], 3, /*dense=*/false);
  map.Insert(coords[1], 2, /*dense=*/false);
  map.Insert(coords[2], 9, /*dense=*/true);
  const NeighborCells lists = NeighborCells::Build(coords);
  int visited = 0;
  uint32_t total_count = 0;
  for (uint32_t nc : lists.Of(0)) {
    ++visited;
    total_count += map.CountOf(coords[nc]);
  }
  EXPECT_EQ(visited, 2);  // (0,0) itself and (1,1); (50,50) is far
  EXPECT_EQ(total_count, 5u);
}

}  // namespace
}  // namespace dbscout::grid
