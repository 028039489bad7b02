#ifndef DBSCOUT_GRID_CELL_MAP_H_
#define DBSCOUT_GRID_CELL_MAP_H_

#include <cstdint>
#include <unordered_map>

#include "grid/cell_coord.h"
#include "grid/grid.h"

namespace dbscout::grid {

/// Classification of a non-empty cell (Definitions 6 and 7). A dense cell is
/// always also core, so the three states form a ladder:
/// kOther < kCore < kDense.
enum class CellType : uint8_t {
  kOther = 0,  // non-empty, not known to contain a core point
  kCore = 1,   // contains at least one core point
  kDense = 2,  // contains >= minPts points (every point is core, Lemma 1)
};

/// The broadcastable "cell map" of Algorithms 2 and 4: per-cell point counts
/// and dense/core classification, keyed by cell coordinates. In the parallel
/// implementation this structure is what gets broadcast to every executor;
/// it is deliberately independent of the Grid's CSR arrays so its memory
/// footprint is a small fraction of the dataset's.
class CellMap {
 public:
  CellMap() = default;

  /// Inserts (or overwrites) one cell with the given point count and dense
  /// classification. The density decision itself (Lemma 1) is not made
  /// here — it lives in core::phases::IsDense and callers pass its verdict
  /// in, so this structure stays free of threshold logic.
  void Insert(const CellCoord& coord, uint32_t count, bool dense) {
    CellInfo info;
    info.count = count;
    info.type = dense ? CellType::kDense : CellType::kOther;
    cells_[coord] = info;
  }

  size_t size() const { return cells_.size(); }

  /// kOther for empty (absent) cells.
  CellType TypeOf(const CellCoord& coord) const {
    auto it = cells_.find(coord);
    return it == cells_.end() ? CellType::kOther : it->second.type;
  }

  /// 0 for empty cells.
  uint32_t CountOf(const CellCoord& coord) const {
    auto it = cells_.find(coord);
    return it == cells_.end() ? 0 : it->second.count;
  }

  bool Contains(const CellCoord& coord) const {
    return cells_.find(coord) != cells_.end();
  }

  /// Upgrades a cell to kCore (Algorithm 4); dense cells stay kDense. Absent
  /// cells are inserted with count 0 (does not happen in the algorithm but
  /// keeps the structure total).
  void MarkCore(const CellCoord& coord);

  /// True when the cell at `coord` is core or dense.
  bool IsCoreCell(const CellCoord& coord) const {
    return TypeOf(coord) >= CellType::kCore;
  }

  /// Number of cells with the given type.
  size_t CountByType(CellType type) const;

 private:
  struct CellInfo {
    uint32_t count = 0;
    CellType type = CellType::kOther;
  };
  std::unordered_map<CellCoord, CellInfo, CellCoordHash> cells_;
};

}  // namespace dbscout::grid

#endif  // DBSCOUT_GRID_CELL_MAP_H_
