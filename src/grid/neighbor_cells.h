#ifndef DBSCOUT_GRID_NEIGHBOR_CELLS_H_
#define DBSCOUT_GRID_NEIGHBOR_CELLS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "grid/cell_coord.h"

namespace dbscout::grid {

/// A half-open range [begin, end) of consecutive cell ids.
struct CellRun {
  uint32_t begin = 0;
  uint32_t end = 0;

  bool operator==(const CellRun&) const = default;
};

/// The neighbor cells (Definition 8) of a set of occupied cells, stored as
/// runs of consecutive cell ids. Unlike the k_d-offset stencil
/// (neighborhood.h), the runs are found from the occupied cells alone, so
/// the cost is bounded by the cells that exist, not by k_d:
///
///  - the cells come in ascending order (Grid's ids), which makes them
///    the leaves of an implicit prefix trie (one level per dimension).
///    The cells sharing one (d-1)-prefix, a *pencil*, are one range of
///    ids ordered by their last coordinate;
///  - for each pencil, one walk descends the d-1 prefix levels of that
///    trie, binary-searching each level for the window
///    [x_k - r, x_k + r], r = SlabReach(d) = ceil(sqrt(d)). A branch is cut
///    as soon as its running gap sum_i max(0,|j_i|-1)^2 reaches d. That is
///    exactly the neighbor test of Definition 8, and the gap only grows
///    along a path, so no neighbor is ever cut. The walk yields the
///    neighbor pencils and the gap each one leaves on the last axis. That
///    arithmetic is GapPruning (gap_pruning.h), which CellIndex's descent
///    over the live detector's cells shares;
///  - the neighbors of a cell x in a neighbor pencil are the pencil's
///    cells whose last coordinate lies in x's last-axis window: one run
///    of ids. Sweeping the pencil's cells in ascending last coordinate
///    moves both ends of every window forward, so one pair of cursors per
///    neighbor pencil finds all the runs.
///
/// A cell's runs include the cell itself, ascend, are non-empty, and a run
/// that would start where the previous one ended is merged into it. Read
/// in order, their ids are the ascending coordinate order the stencil
/// visits cells in, so scans with early exits do the same work either way.
class NeighborCells {
 public:
  NeighborCells() = default;

  /// Builds the runs of the cells c with scan[c] != 0, or of every cell
  /// when `scan` is empty; the other cells get no runs. Ids are positions
  /// in `coords`: strictly ascending (checked), one dims in [1, kMaxDims].
  /// With a `pool`, chunks of cells are walked on its workers; the runs do
  /// not depend on the schedule.
  static NeighborCells Build(std::span<const CellCoord> coords,
                             std::span<const uint8_t> scan = {},
                             ThreadPool* pool = nullptr);

  /// The neighbor cells of cell `c`, itself included, as ascending runs of
  /// ids (ids and coordinates agree). Empty for cells that were not
  /// scanned.
  std::span<const CellRun> Of(uint32_t c) const {
    return {runs_.data() + begin_[c], begin_[c + 1] - begin_[c]};
  }

  size_t num_cells() const { return begin_.size() - 1; }

 private:
  std::vector<size_t> begin_ = {0};  // size num_cells()+1
  std::vector<CellRun> runs_;        // cell c's: [begin_[c], begin_[c+1])
};

}  // namespace dbscout::grid

#endif  // DBSCOUT_GRID_NEIGHBOR_CELLS_H_
