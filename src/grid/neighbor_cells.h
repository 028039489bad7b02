#ifndef DBSCOUT_GRID_NEIGHBOR_CELLS_H_
#define DBSCOUT_GRID_NEIGHBOR_CELLS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "grid/cell_coord.h"
#include "grid/gap_pruning.h"

namespace dbscout::grid {

/// A half-open range [begin, end) of consecutive cell ids.
struct CellRun {
  uint32_t begin = 0;
  uint32_t end = 0;

  bool operator==(const CellRun&) const = default;
};

/// A neighbor pencil of the pencil being visited: its cells, up to `end`,
/// share one (d-1)-prefix, which lies at gap `gap` (< d) from the visited
/// pencil's. `window` holds the visited cell's neighbors in it; it starts
/// empty at the pencil's first cell.
struct NeighborPencil {
  CellRun window;
  uint32_t end;
  int64_t gap;
};

/// The neighbor cells (Definition 8) of occupied cells, found from the
/// occupied cells alone, so the cost is bounded by the cells that exist,
/// not by k_d (the stencil of neighborhood.h):
///
///  - the cells come in ascending order (Grid's ids), which makes them
///    the leaves of an implicit prefix trie (one level per dimension).
///    The cells sharing one (d-1)-prefix, a *pencil*, are one range of
///    ids ordered by their last coordinate. The cells are stored column
///    by column: within the range of one prefix, the next column is
///    itself sorted, so every trie level is a binary search;
///  - Walk descends the d-1 prefix levels of that trie for one pencil,
///    binary-searching each level for the window [x_k - r, x_k + r],
///    r = SlabReach(d) = ceil(sqrt(d)). A branch is cut as soon as its
///    running gap sum_i max(0,|j_i|-1)^2 reaches d. That is exactly the
///    neighbor test of Definition 8, and the gap only grows along a path,
///    so no neighbor is ever cut. The walk yields the neighbor pencils and
///    the gap each one leaves on the last axis. That arithmetic is
///    GapPruning (gap_pruning.h), which CellIndex's descent over the live
///    detector's cells shares;
///  - the neighbors of a cell x in a neighbor pencil are the pencil's
///    cells whose last coordinate lies in x's last-axis window: one run
///    of ids (Window). Visiting the pencil's cells in ascending last
///    coordinate moves both ends of every window forward, so one pair of
///    cursors per neighbor pencil finds all the runs.
///
/// A cell's id is its position.
class SortedCells {
 public:
  /// `coords` must be strictly ascending (checked), with one dims in
  /// [1, kMaxDims]; it may be empty.
  explicit SortedCells(std::span<const CellCoord> coords);

  size_t size() const { return n_; }
  size_t dims() const { return dims_; }

  /// End of the pencil that holds cell `c`. At d = 1 every cell lies in
  /// the one pencil.
  size_t PencilEnd(size_t c) const {
    return dims_ == 1 ? n_ : run_end_[(dims_ - 2) * n_ + c];
  }

  /// The last coordinate of cell `c`.
  int64_t Last(size_t c) const { return cols_[(dims_ - 1) * n_ + c]; }

  /// Appends the neighbor pencils of the pencil that holds cell `c` to
  /// `out`, in ascending id order, each with an empty window.
  void Walk(size_t c, std::vector<NeighborPencil>* out) const {
    Walk(c, 0, 0, n_, 0, out);
  }

  /// The last-axis window of a cell whose last coordinate is `last`, in a
  /// neighbor pencil at gap `gap`.
  GapPruning::Window LastAxisWindow(int64_t last, int64_t gap) const {
    return pruning_.At(last, gap);
  }

  /// Moves `pencil`'s window onto the cells whose last coordinate lies in
  /// `w`, the LastAxisWindow of the visited cell at the pencil's gap, and
  /// returns it (it may be empty). Both ends only move forward, so `w`
  /// must not lie below the window the pencil was moved to before.
  CellRun Window(GapPruning::Window w, NeighborPencil* pencil) const {
    const int64_t* col = cols_.data() + (dims_ - 1) * n_;
    CellRun& run = pencil->window;
    while (run.begin < pencil->end && col[run.begin] < w.lo) {
      ++run.begin;
    }
    while (run.end < pencil->end && col[run.end] <= w.hi) {
      ++run.end;
    }
    return run;
  }

 private:
  void Walk(size_t x, size_t k, size_t lo, size_t hi, int64_t gap,
            std::vector<NeighborPencil>* out) const;

  size_t n_;
  size_t dims_;
  std::vector<int64_t> cols_;      // dims_ columns of n_ coordinates
  std::vector<uint32_t> run_end_;  // dims_ columns of n_ run ends
  GapPruning pruning_;
};

/// Hands out the neighbor cells of one cell after another, as one window
/// (a run of ids) per neighbor pencil that holds any. It walks a cell's
/// pencil once and reuses the walk while the cells it is given stay in
/// that pencil and do not go backwards; otherwise it walks afresh, so the
/// windows never depend on the order cells are given in. One cursor
/// serves one thread.
class NeighborCursor {
 public:
  enum class Order {
    kAscending,     // windows in ascending id order
    kNearestFirst,  // by ascending prefix gap, ties in ascending id order
  };

  NeighborCursor(const SortedCells& cells, Order order)
      : cells_(&cells), order_(order), dims_(cells.dims()) {}

  /// Calls visit(run) for each non-empty window of cell `c`, in the
  /// cursor's order, until visit returns false. The windows are disjoint
  /// and together hold exactly the neighbor cells of `c`, itself included.
  template <typename Visit>
  void ForEach(uint32_t c, const Visit& visit) {
    if (c >= pencil_end_ || c < cell_) {
      Seek(c);
    }
    cell_ = c;
    const int64_t last = cells_->Last(c);
    for (int64_t gap = 0; gap < dims_; ++gap) {
      windows_[gap] = cells_->LastAxisWindow(last, gap);
    }
    for (NeighborPencil& pencil : pencils_) {
      const CellRun run = cells_->Window(windows_[pencil.gap], &pencil);
      if (run.begin != run.end && !visit(run)) {
        return;
      }
    }
  }

 private:
  // Walks the pencil of cell `c` and puts its neighbor pencils in order.
  void Seek(uint32_t c);

  const SortedCells* cells_;
  Order order_;
  int64_t dims_;
  GapPruning::Window windows_[kMaxDims];  // the visited cell's, by gap
  uint32_t cell_ = 0;        // the cell last visited
  size_t pencil_end_ = 0;    // end of its pencil; 0 before the first walk
  std::vector<NeighborPencil> pencils_;
  std::vector<NeighborPencil> walked_;  // kNearestFirst: the walk's order
};

/// The neighbor cells of a set of occupied cells, stored as runs of
/// consecutive cell ids, for callers that read any cell's neighbors at any
/// time. The runs are the windows of a NeighborCursor in ascending order:
/// a cell's runs include the cell itself, ascend, are non-empty, and a run
/// that would start where the previous one ended is merged into it. Read
/// in order, their ids are the ascending coordinate order the stencil
/// visits cells in.
class NeighborCells {
 public:
  NeighborCells() = default;

  /// Builds the runs of the cells c with scan[c] != 0, or of every cell
  /// when `scan` is empty; the other cells get no runs. Ids are positions
  /// in `coords`, as for SortedCells. With a `pool`, chunks of cells are
  /// walked on its workers; the runs do not depend on the schedule.
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
