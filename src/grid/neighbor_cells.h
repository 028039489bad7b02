#ifndef DBSCOUT_GRID_NEIGHBOR_CELLS_H_
#define DBSCOUT_GRID_NEIGHBOR_CELLS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "grid/cell_coord.h"

namespace dbscout::grid {

/// The neighbor cells (Definition 8) of a set of occupied cells, as one CSR
/// of cell ids. Unlike the k_d-offset stencil (neighborhood.h), the lists
/// are found from the occupied cells alone, so the cost is bounded by the
/// cells that exist, not by k_d:
///
///  - the cells come in ascending order (Grid's ids), which makes them
///    the leaves of an implicit prefix trie (one level per dimension);
///  - for a source cell c, the walk descends that trie dimension by
///    dimension, binary-searching each level for the window
///    [c_k - r, c_k + r], r = SlabReach(d) = ceil(sqrt(d));
///  - a branch is cut as soon as its running gap sum_i max(0,|j_i|-1)^2
///    reaches d. That is exactly the neighbor test of Definition 8, and the
///    gap only grows along a path, so no neighbor is ever cut. The cut is
///    applied before descending: once a path has gap g, the next level's
///    window shrinks to the |j| with max(0,|j|-1)^2 < d - g. That
///    arithmetic is GapPruning (gap_pruning.h), which CellIndex's descent
///    over the live detector's cells shares.
///
/// Each list holds the cell itself and comes out in ascending coordinate
/// order, the order the stencil visits cells in, so scans with early exits
/// do the same work either way.
class NeighborCells {
 public:
  NeighborCells() = default;

  /// Builds the lists of the cells c with scan[c] != 0, or of every cell
  /// when `scan` is empty; the other cells get empty lists. Ids are
  /// positions in `coords`: strictly ascending (checked), one dims in
  /// [1, kMaxDims]. With a `pool`, chunks of cells are walked on its
  /// workers; the lists do not depend on the schedule.
  static NeighborCells Build(std::span<const CellCoord> coords,
                             std::span<const uint8_t> scan = {},
                             ThreadPool* pool = nullptr);

  /// Neighbor cell ids of cell `c`, itself included, in ascending order
  /// (ids and coordinates agree). Empty for cells that were not scanned.
  std::span<const uint32_t> Of(uint32_t c) const {
    return {ids_.data() + begin_[c], begin_[c + 1] - begin_[c]};
  }

  size_t num_cells() const { return begin_.size() - 1; }

  /// Total number of list entries over all cells.
  size_t num_entries() const { return ids_.size(); }

 private:
  std::vector<size_t> begin_ = {0};  // size num_cells()+1
  std::vector<uint32_t> ids_;        // cell c's: [begin_[c], begin_[c+1])
};

}  // namespace dbscout::grid

#endif  // DBSCOUT_GRID_NEIGHBOR_CELLS_H_
