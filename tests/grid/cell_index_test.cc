// The live detector's persistent cell index: under random inserts and
// erases at every dimensionality, lookups must match an ordered map, the
// Definition 8 descent must equal both a brute-force pairwise test and
// NeighborCells' expanded runs over the same cells, and frozen versions
// must keep answering for their own contents while the live index moves
// on.
#include "grid/cell_index.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "grid/neighbor_cells.h"
#include "testutil.h"

namespace dbscout::grid {
namespace {

using CellMap = std::map<CellCoord, uint32_t>;

bool BruteForceNeighbors(const CellCoord& a, const CellCoord& b) {
  const size_t d = a.dims();
  __int128 gap = 0;
  for (size_t i = 0; i < d; ++i) {
    __int128 j = static_cast<__int128>(a[i]) - static_cast<__int128>(b[i]);
    if (j < 0) {
      j = -j;
    }
    if (j > static_cast<__int128>(d)) {
      return false;  // (|j| - 1)^2 >= d, and squaring could overflow
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

// Slots of the cells of `cells` neighboring `x`, in ascending coordinate
// order (std::map iterates in CellCoord order).
std::vector<uint32_t> BruteForceSlots(const CellMap& cells,
                                      const CellCoord& x) {
  std::vector<uint32_t> out;
  for (const auto& [coord, slot] : cells) {
    if (BruteForceNeighbors(x, coord)) {
      out.push_back(slot);
    }
  }
  return out;
}

CellCoord RandomCell(Rng* rng, size_t dims, int64_t span) {
  CellCoord c = CellCoord::Zero(dims);
  for (size_t k = 0; k < dims; ++k) {
    c[k] = static_cast<int64_t>(rng->NextBounded(static_cast<uint64_t>(span))) -
           span / 2;
  }
  return c;
}

template <typename Index>
void ExpectMatches(const Index& index, const CellMap& cells, size_t dims,
                   Rng* rng, const std::string& where) {
  ASSERT_EQ(index.size(), cells.size()) << where;
  for (const auto& [coord, slot] : cells) {
    ASSERT_EQ(index.Find(coord), slot) << where << " " << coord;
  }
  // Occupied and empty query cells alike.
  std::vector<CellCoord> queries;
  for (const auto& entry : cells) {
    queries.push_back(entry.first);
    if (queries.size() == 8) {
      break;
    }
  }
  for (int i = 0; i < 8; ++i) {
    queries.push_back(RandomCell(rng, dims, 8));
  }
  for (const CellCoord& x : queries) {
    std::vector<uint32_t> got;
    index.AppendNeighbors(x, &got);
    ASSERT_EQ(got, BruteForceSlots(cells, x)) << where << " query " << x;
    if (cells.count(x) == 0) {
      ASSERT_EQ(index.Find(x), CellIndex::kNoSlot) << where << " " << x;
    }
  }
}

class CellIndexTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CellIndexTest, ChurnMatchesOrderedMapAndBruteForce) {
  const size_t dims = GetParam();
  Rng rng(0xce11 + dims);
  CellIndex index(dims);
  CellMap cells;
  uint32_t next_slot = 0;
  // Enough cells for several leaves, in a box small enough that many
  // cells neighbor each other; erases thin it out again so leaves merge.
  const int64_t span = dims == 1 ? 400 : (dims == 2 ? 24 : 6);
  for (int round = 0; round < 12; ++round) {
    const bool grow = round % 3 != 2;
    for (int op = 0; op < 60; ++op) {
      if (grow || cells.empty()) {
        const CellCoord c = RandomCell(&rng, dims, span);
        if (cells.emplace(c, next_slot).second) {
          index.Insert(c, next_slot++);
        }
      } else {
        auto it = cells.begin();
        std::advance(it, rng.NextBounded(cells.size()));
        index.Erase(it->first);
        cells.erase(it);
      }
    }
    ExpectMatches(index, cells, dims, &rng,
                  "d=" + std::to_string(dims) + " round " +
                      std::to_string(round));
  }
  // Drain completely: the index empties cleanly and refills.
  while (!cells.empty()) {
    index.Erase(cells.begin()->first);
    cells.erase(cells.begin());
  }
  ExpectMatches(index, cells, dims, &rng, "drained");
  const CellCoord c = RandomCell(&rng, dims, span);
  index.Insert(c, 7);
  cells.emplace(c, 7);
  ExpectMatches(index, cells, dims, &rng, "refilled");
}

TEST_P(CellIndexTest, DescentEqualsNeighborCells) {
  const size_t dims = GetParam();
  Rng rng(0x5ca1 + dims);
  std::vector<CellCoord> inserted;  // distinct, in random order
  CellMap id_of;
  const int64_t span = dims == 1 ? 200 : (dims == 2 ? 20 : 5);
  for (int i = 0; i < 300; ++i) {
    const CellCoord c = RandomCell(&rng, dims, span);
    if (id_of.emplace(c, 0).second) {
      inserted.push_back(c);
    }
  }
  // NeighborCells numbers the cells by ascending coordinates, the map's
  // order; the index gets those ids as slots, in the random insert order.
  std::vector<CellCoord> coords;
  for (auto& [c, id] : id_of) {
    id = static_cast<uint32_t>(coords.size());
    coords.push_back(c);
  }
  CellIndex index(dims);
  for (const CellCoord& c : inserted) {
    index.Insert(c, id_of.at(c));
  }
  const NeighborCells lists = NeighborCells::Build(coords);
  for (uint32_t c = 0; c < coords.size(); ++c) {
    std::vector<uint32_t> got;
    index.AppendNeighbors(coords[c], &got);
    ASSERT_EQ(got, testing::ExpandRuns(lists.Of(c)))
        << "d=" << dims << " cell " << coords[c];
  }
}

TEST_P(CellIndexTest, FrozenVersionsKeepTheirContents) {
  const size_t dims = GetParam();
  Rng rng(0xf0f0 + dims);
  CellIndex index(dims);
  CellMap cells;
  uint32_t next_slot = 0;
  std::vector<std::pair<CellIndex::Frozen, CellMap>> versions;
  for (int round = 0; round < 8; ++round) {
    for (int op = 0; op < 40; ++op) {
      if (rng.NextBounded(3) != 0 || cells.empty()) {
        const CellCoord c = RandomCell(&rng, dims, dims <= 2 ? 30 : 6);
        if (cells.emplace(c, next_slot).second) {
          index.Insert(c, next_slot++);
        }
      } else {
        auto it = cells.begin();
        std::advance(it, rng.NextBounded(cells.size()));
        index.Erase(it->first);
        cells.erase(it);
      }
    }
    versions.emplace_back(index.Freeze(), cells);
    for (size_t v = 0; v < versions.size(); ++v) {
      ExpectMatches(versions[v].first, versions[v].second, dims, &rng,
                    "version " + std::to_string(v) + " after round " +
                        std::to_string(round));
    }
  }
  ExpectMatches(CellIndex::Frozen(), CellMap(), dims, &rng, "default");
}

INSTANTIATE_TEST_SUITE_P(Dims, CellIndexTest,
                         ::testing::Range(size_t{1}, kMaxDims + 1),
                         [](const auto& info) {
                           std::string name = "d";
                           name += std::to_string(info.param);
                           return name;
                         });

// Windows saturate at the ends of the int64 range instead of wrapping.
TEST(CellIndexTest, ExtremeCoordinates) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  CellIndex index(2);
  CellMap cells;
  uint32_t slot = 0;
  for (const int64_t a : {kMin, kMin + 1, int64_t{0}, kMax - 2, kMax}) {
    for (const int64_t b : {kMin, int64_t{-1}, kMax}) {
      const int64_t v[] = {a, b};
      const CellCoord c(v);
      cells.emplace(c, slot);
      index.Insert(c, slot++);
    }
  }
  Rng rng(1);
  ExpectMatches(index, cells, 2, &rng, "extremes");
  for (const auto& entry : cells) {
    std::vector<uint32_t> got;
    index.AppendNeighbors(entry.first, &got);
    EXPECT_EQ(got, BruteForceSlots(cells, entry.first)) << entry.first;
  }
}

}  // namespace
}  // namespace dbscout::grid
