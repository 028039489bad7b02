#include "grid/cell_map.h"

namespace dbscout::grid {

void CellMap::MarkCore(const CellCoord& coord) {
  CellInfo& info = cells_[coord];
  if (info.type < CellType::kCore) {
    info.type = CellType::kCore;
  }
}

size_t CellMap::CountByType(CellType type) const {
  size_t count = 0;
  for (const auto& [coord, info] : cells_) {
    if (info.type == type) {
      ++count;
    }
  }
  return count;
}

}  // namespace dbscout::grid
