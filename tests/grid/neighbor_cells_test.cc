// Exactness of the occupied-cell neighbor walk: for every dimensionality
// the expanded runs must equal a brute-force pairwise Definition 8 test,
// and, where the stencil is small enough to materialize, the stencil
// probe's output element for element. The runs themselves must be
// ascending, disjoint and merged, one per neighbor pencil, and the lazy
// nearest-first cursor must hand out the same cells.
#include "grid/neighbor_cells.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "grid/gap_pruning.h"
#include "grid/grid.h"
#include "grid/neighborhood.h"
#include "testutil.h"

namespace dbscout::grid {
namespace {

// Definition 8 on a pair of cells: sum_i max(0, |a_i - b_i| - 1)^2 < d.
// The difference is taken in 128 bits, so cells at opposite ends of the
// int64 range cannot wrap into neighbors, and any |j| > d ends the test
// before its square could overflow.
bool BruteForceNeighbors(const CellCoord& a, const CellCoord& b) {
  const size_t d = a.dims();
  __int128 gap = 0;
  for (size_t i = 0; i < d; ++i) {
    __int128 j = static_cast<__int128>(a[i]) - static_cast<__int128>(b[i]);
    if (j < 0) {
      j = -j;
    }
    if (j > static_cast<__int128>(d)) {
      return false;  // (|j| - 1)^2 >= d
    }
    if (j > 1) {
      gap += (j - 1) * (j - 1);
    }
    if (gap >= static_cast<__int128>(d)) {
      return false;
    }
  }
  return true;
}

// The brute-force list of `c`: every cell passing the pairwise test, in
// ascending coordinate order.
std::vector<uint32_t> BruteForceList(const std::vector<CellCoord>& coords,
                                     uint32_t c) {
  std::vector<uint32_t> out;
  for (uint32_t o = 0; o < coords.size(); ++o) {
    if (BruteForceNeighbors(coords[c], coords[o])) {
      out.push_back(o);
    }
  }
  std::sort(out.begin(), out.end(), [&](uint32_t x, uint32_t y) {
    return coords[x] < coords[y];
  });
  return out;
}

std::vector<CellRun> ToVector(std::span<const CellRun> s) {
  return {s.begin(), s.end()};
}

using testing::ExpandRuns;

// Distinct random cells: a crowded block around the origin (many
// neighbors per cell), plus blocks next to +-4e18 (the Grid::Build limit)
// and at the very ends of the int64 range, where c_k +- r and v - c_k
// would overflow if computed naively.
std::vector<CellCoord> RandomCells(Rng* rng, size_t dims, size_t per_block) {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kLimit = 4'000'000'000'000'000'000;
  const int64_t width = dims <= 3 ? 7 : (dims <= 6 ? 5 : 4);
  std::set<CellCoord> cells;
  auto add_block = [&](int64_t base, int64_t sign) {
    for (size_t i = 0; i < per_block; ++i) {
      CellCoord c = CellCoord::Zero(dims);
      for (size_t k = 0; k < dims; ++k) {
        const int64_t off = static_cast<int64_t>(rng->NextBounded(width));
        // Mostly near the block's base; now and then a small coordinate,
        // so blocks mix within one column.
        c[k] = rng->NextBounded(8) == 0 ? off : base + sign * off;
      }
      cells.insert(c);
    }
  };
  add_block(-3, 1);
  add_block(kLimit, -1);
  add_block(-kLimit, 1);
  add_block(kMax, -1);
  add_block(kMin, 1);
  return {cells.begin(), cells.end()};
}

// The prefix gap between the pencils of cells a and b: the Definition 8
// sum over the first d-1 axes.
int64_t PrefixGap(const CellCoord& a, const CellCoord& b) {
  int64_t gap = 0;
  for (size_t k = 0; k + 1 < a.dims(); ++k) {
    gap += GapPruning::AxisGap(a[k] - b[k]);
  }
  return gap;
}

// Checks, for every cell of `coords` visited in `order`, that the windows
// of one nearest-first cursor hold exactly the cell's runs in `lists`, and
// that the prefix gaps of the visited pencils never decrease.
void ExpectCursorMatchesLists(const std::vector<CellCoord>& coords,
                              const SortedCells& cells,
                              const NeighborCells& lists,
                              const std::vector<uint32_t>& order) {
  NeighborCursor cursor(cells, NeighborCursor::Order::kNearestFirst);
  for (uint32_t c : order) {
    std::vector<uint32_t> got;
    int64_t last_gap = 0;
    cursor.ForEach(c, [&](CellRun run) {
      EXPECT_LT(run.begin, run.end);
      const int64_t gap = PrefixGap(coords[c], coords[run.begin]);
      EXPECT_LE(last_gap, gap) << "cell " << coords[c];
      last_gap = gap;
      for (uint32_t nc = run.begin; nc < run.end; ++nc) {
        got.push_back(nc);
      }
      return true;
    });
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, ExpandRuns(lists.Of(c))) << "cell " << coords[c];
  }
}

TEST(NeighborCellsTest, EmptyInputHasNoCells) {
  const NeighborCells lists = NeighborCells::Build({});
  EXPECT_EQ(lists.num_cells(), 0u);
  EXPECT_EQ(SortedCells({}).size(), 0u);
}

TEST(NeighborCellsTest, ListsEqualBruteForceForEveryDimensionality) {
  for (size_t d = 1; d <= kMaxDims; ++d) {
    Rng rng(100 + d);
    const std::vector<CellCoord> coords = RandomCells(&rng, d, 80);
    const NeighborCells lists = NeighborCells::Build(coords);
    ASSERT_EQ(lists.num_cells(), coords.size()) << "d=" << d;
    size_t entries = 0;
    for (uint32_t c = 0; c < coords.size(); ++c) {
      const std::vector<uint32_t> got = ExpandRuns(lists.Of(c));
      ASSERT_EQ(got, BruteForceList(coords, c))
          << "d=" << d << " cell " << coords[c];
      EXPECT_NE(std::find(got.begin(), got.end(), c), got.end())
          << "d=" << d << ": a cell is its own neighbor";
      for (uint32_t nc : got) {
        const std::vector<uint32_t> back = ExpandRuns(lists.Of(nc));
        EXPECT_NE(std::find(back.begin(), back.end(), c), back.end())
            << "d=" << d << ": " << coords[c] << " -> " << coords[nc]
            << " is not symmetric";
      }
      entries += got.size();
    }
    // The crowded block must actually exercise the pruning.
    EXPECT_GT(entries, 2 * coords.size()) << "d=" << d;
    // The lazy, nearest-first visit hands out the same cells, with the
    // cells given in ascending order (one walk per pencil) and in
    // descending order (a fresh walk at every step back).
    const SortedCells cells(coords);
    std::vector<uint32_t> order(coords.size());
    std::iota(order.begin(), order.end(), 0u);
    ExpectCursorMatchesLists(coords, cells, lists, order);
    std::reverse(order.begin(), order.end());
    ExpectCursorMatchesLists(coords, cells, lists, order);
  }
  // Hand-checked at d = 2: (2,0) reaches (0,0) across one empty column
  // (gap 1 < 2), (1,1) touches both, and the far cells list only
  // themselves.
  auto coord2 = [](int64_t x, int64_t y) {
    const int64_t v[] = {x, y};
    return CellCoord({v, 2});
  };
  const std::vector<CellCoord> fixed = {coord2(0, 0), coord2(1, 1),
                                        coord2(2, 0), coord2(10, 10),
                                        coord2(50, 50)};
  const NeighborCells lists = NeighborCells::Build(fixed);
  const std::vector<uint32_t> block = {0, 1, 2};
  EXPECT_EQ(ExpandRuns(lists.Of(0)), block);
  EXPECT_EQ(ExpandRuns(lists.Of(1)), block);
  EXPECT_EQ(ExpandRuns(lists.Of(2)), block);
  EXPECT_EQ(ExpandRuns(lists.Of(3)), std::vector<uint32_t>{3});
  EXPECT_EQ(ExpandRuns(lists.Of(4)), std::vector<uint32_t>{4});
  // Three pencils (x = 0, 1, 2) whose runs touch, so they merge into one.
  EXPECT_EQ(ToVector(lists.Of(1)), (std::vector<CellRun>{{0, 3}}));
}

TEST(NeighborCellsTest, ListsEqualTheStencilProbeInOrder) {
  for (size_t d = 1; d <= 5; ++d) {
    Rng rng(7 + d);
    const PointSet points =
        testing::ClusteredPoints(&rng, 3000, d, /*clusters=*/4,
                                 /*noise_fraction=*/0.2);
    auto g = Grid::Build(points, 1.0);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    auto stencil = GetNeighborStencil(d);
    ASSERT_TRUE(stencil.ok());
    const NeighborCells lists = NeighborCells::Build(g->CellCoords());
    for (uint32_t c = 0; c < g->num_cells(); ++c) {
      std::vector<uint32_t> probed;
      g->ForEachNeighborCell(c, **stencil,
                             [&](uint32_t nc) { probed.push_back(nc); });
      ASSERT_EQ(ExpandRuns(lists.Of(c)), probed)
          << "d=" << d << " cell " << g->CoordOf(c);
    }
  }
}

TEST(NeighborCellsTest, OnlyScannedCellsGetLists) {
  Rng rng(5);
  const std::vector<CellCoord> coords = RandomCells(&rng, 3, 60);
  std::vector<uint8_t> scan(coords.size());
  for (size_t c = 0; c < coords.size(); ++c) {
    scan[c] = c % 3 == 0;
  }
  const NeighborCells all = NeighborCells::Build(coords);
  const NeighborCells some = NeighborCells::Build(coords, scan);
  for (uint32_t c = 0; c < coords.size(); ++c) {
    if (scan[c]) {
      EXPECT_EQ(ToVector(some.Of(c)), ToVector(all.Of(c)));
    } else {
      EXPECT_TRUE(some.Of(c).empty());
    }
  }
}

TEST(NeighborCellsTest, PoolBuildEqualsSingleThreadedBuild) {
  Rng rng(11);
  const std::vector<CellCoord> coords = RandomCells(&rng, 4, 400);
  ASSERT_GT(coords.size(), 1000u);  // several tasks
  std::vector<uint8_t> scan(coords.size());
  for (size_t c = 0; c < coords.size(); ++c) {
    scan[c] = rng.NextBounded(4) != 0;
  }
  ThreadPool pool(3);
  const NeighborCells serial = NeighborCells::Build(coords, scan);
  const NeighborCells pooled = NeighborCells::Build(coords, scan, &pool);
  ASSERT_EQ(pooled.num_cells(), serial.num_cells());
  for (uint32_t c = 0; c < coords.size(); ++c) {
    EXPECT_EQ(ToVector(pooled.Of(c)), ToVector(serial.Of(c))) << c;
  }
}

// A cell's runs are non-empty, strictly ascending and never touch (a run
// that would start where the previous one ended is merged into it), and
// one of them holds the cell itself.
TEST(NeighborCellsTest, RunsAreAscendingDisjointAndMerged) {
  for (size_t d = 1; d <= kMaxDims; ++d) {
    Rng rng(300 + d);
    const std::vector<CellCoord> coords = RandomCells(&rng, d, 80);
    const NeighborCells lists = NeighborCells::Build(coords);
    size_t runs = 0;
    size_t cells = 0;
    for (uint32_t c = 0; c < coords.size(); ++c) {
      const auto of = lists.Of(c);
      ASSERT_FALSE(of.empty()) << "d=" << d;
      bool self = false;
      for (size_t i = 0; i < of.size(); ++i) {
        ASSERT_LT(of[i].begin, of[i].end) << "d=" << d << " cell " << c;
        ASSERT_LE(of[i].end, coords.size());
        if (i > 0) {
          ASSERT_LT(of[i - 1].end, of[i].begin)
              << "d=" << d << " cell " << c << ": runs " << i - 1 << " and "
              << i << " overlap or touch";
        }
        self = self || (of[i].begin <= c && c < of[i].end);
        cells += of[i].end - of[i].begin;
      }
      EXPECT_TRUE(self) << "d=" << d << " cell " << c;
      runs += of.size();
    }
    // Runs do hold several cells each somewhere (d >= 2 has pencils with
    // more than one neighbor in them).
    EXPECT_LT(runs, cells) << "d=" << d;
  }
}

// Table I from the runs: in a fully occupied block, an interior cell's runs
// cover exactly its k_d stencil cells, and each neighbor pencil holds one
// run. The block reaches one cell past the stencil on every side, so no
// run fills its pencil and no two runs merge: at d = 4, 609 cells in 125
// runs (the 5^3 prefixes within reach).
TEST(NeighborCellsTest, FullBlockInteriorCellCoversTableI) {
  for (size_t d = 1; d <= 5; ++d) {
    const int64_t reach = GapPruning(d).At(0, 0).hi;
    const int64_t side = 2 * reach + 3;
    std::vector<CellCoord> coords;
    CellCoord c = CellCoord::Zero(d);
    size_t total = 1;
    for (size_t k = 0; k < d; ++k) {
      total *= static_cast<size_t>(side);
    }
    for (size_t i = 0; i < total; ++i) {  // lexicographic order
      size_t rest = i;
      for (size_t k = d; k-- > 0;) {
        c[k] = static_cast<int64_t>(rest % side);
        rest /= side;
      }
      coords.push_back(c);
    }
    // The center cell is the only one scanned.
    const uint32_t center = static_cast<uint32_t>(total / 2);
    std::vector<uint8_t> scan(total, 0);
    scan[center] = 1;
    const NeighborCells lists = NeighborCells::Build(coords, scan);
    const auto runs = lists.Of(center);
    const std::vector<uint32_t> cells = ExpandRuns(runs);
    auto k_d = CountNeighborOffsets(d);
    ASSERT_TRUE(k_d.ok());
    EXPECT_EQ(cells.size(), *k_d) << "d=" << d;
    std::set<std::vector<int64_t>> prefixes;
    for (uint32_t nc : cells) {
      ASSERT_TRUE(BruteForceNeighbors(coords[center], coords[nc]));
      std::vector<int64_t> prefix;
      for (size_t k = 0; k + 1 < d; ++k) {
        prefix.push_back(coords[nc][k]);
      }
      prefixes.insert(prefix);
    }
    EXPECT_EQ(runs.size(), prefixes.size()) << "d=" << d;
    if (d == 4) {
      EXPECT_EQ(cells.size(), 609u);
      EXPECT_EQ(runs.size(), 125u);
    }
  }
}

// Ids are positions in the input, and the walk reads them as sorted
// positions: out-of-order or repeated cells would silently give wrong
// lists, so Build refuses them.
TEST(NeighborCellsDeathTest, RejectsUnsortedCells) {
  Rng rng(13);
  std::vector<CellCoord> coords = RandomCells(&rng, 3, 20);
  std::swap(coords[3], coords[7]);
  EXPECT_DEATH(NeighborCells::Build(coords),
               "NeighborCells needs strictly ascending cells");
}

TEST(NeighborCellsDeathTest, RejectsDuplicateCells) {
  Rng rng(17);
  std::vector<CellCoord> coords = RandomCells(&rng, 3, 20);
  coords.insert(coords.begin() + 5, coords[5]);
  EXPECT_DEATH(NeighborCells::Build(coords),
               "NeighborCells needs strictly ascending cells");
}

}  // namespace
}  // namespace dbscout::grid
