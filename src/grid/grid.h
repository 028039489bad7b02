#ifndef DBSCOUT_GRID_GRID_H_
#define DBSCOUT_GRID_GRID_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/point_set.h"
#include "grid/cell_coord.h"
#include "grid/neighborhood.h"

namespace dbscout::grid {

/// Largest |cell index| a point may map to; beyond it, translating by a
/// neighbor offset could overflow int64.
inline constexpr double kMaxCellIndex = 4.0e18;

namespace internal {
/// An allocator whose value-initialization leaves trivial elements
/// uninitialized, so that resize() does not zero-fill an array that is
/// about to be overwritten. Grid's per-point arrays use it: Build's tasks
/// write every element, and touch the pages first on their own threads.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) {}
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
};

/// CellOfPoint's error for `point`, kept out of line: InvalidArgument for
/// the first non-finite coordinate, OutOfRange for the first cell index
/// beyond kMaxCellIndex, whichever comes first.
Status CellIndexError(std::span<const double> point, double side);
}  // namespace internal

/// The cell containing `point` for cell side `side` (Algorithm 1:
/// floor(x_k / side) per dimension), the one point-to-cell mapping of every
/// engine. Fails with InvalidArgument on a non-finite coordinate and with
/// OutOfRange on a cell index beyond kMaxCellIndex; `cell` is then
/// unspecified. point.size() must be in [1, kMaxDims]. Inline, as
/// Grid::Build and the dataflow engine call it once per point.
inline Status CellOfPoint(std::span<const double> point, double side,
                          CellCoord* cell) {
  *cell = CellCoord::Zero(point.size());
  for (size_t k = 0; k < point.size(); ++k) {
    const double index = std::floor(point[k] / side);
    // One comparison rejects NaN, infinities and overflowing indices.
    if (!(std::abs(index) <= kMaxCellIndex)) {
      return internal::CellIndexError(point, side);
    }
    (*cell)[k] = static_cast<int64_t>(index);
  }
  return Status::OK();
}

/// The non-empty cells of the epsilon-grid over a point set (Definition 5),
/// stored in CSR layout: point indices grouped by cell id, with one offset
/// array; cell ids ascend with the coordinates, so they depend only on the
/// data. Construction is linear in the number of points (Lemma 4) and runs
/// as tasks over contiguous ranges of points:
///
///  - pass 1: each task maps its points to cells in its own hash table,
///    counts them, and sorts its distinct cells;
///  - merge (serial, over the occupied cells only): the tasks' sorted cells
///    are merged into ascending ids, and the counts summed into offsets;
///    within a cell, each task's rows follow those of the tasks before it;
///  - pass 2: each task scatters its points to their rows.
///
/// Rows within a cell therefore keep ascending original order, and the
/// grid does not depend on the number of tasks or their schedule.
///
/// Build also materializes a grid-ordered copy of the point coordinates:
/// cell c's points occupy one contiguous row-major block (rows
/// [CellBeginRow(c), CellBeginRow(c+1)), read through CellBlock() and
/// OrderedPoint()). Neighbor-cell scans over CellBlock() are linear streams
/// the batched distance kernels (simd/distance_kernel.h) can consume,
/// instead of gathers scattered across the original PointSet.
class Grid {
 public:
  /// Builds the grid for `points` with cell diagonal `eps` (side
  /// eps/sqrt(d)), as one task per thread of `pool`, or as one task on the
  /// calling thread without a pool; the result is the same either way.
  /// Fails on eps <= 0, dims > kMaxDims, more than 2^32-1 points, or a
  /// point CellOfPoint rejects; the first such point in input order
  /// decides the error.
  static Result<Grid> Build(const PointSet& points, double eps,
                            ThreadPool* pool = nullptr);

  size_t dims() const { return dims_; }
  double eps() const { return eps_; }
  /// Cell side length l = eps / sqrt(d).
  double side() const { return side_; }
  size_t num_cells() const { return cell_coords_.size(); }
  size_t num_points() const { return point_cell_.size(); }

  /// Coordinates of cell `id`.
  const CellCoord& CoordOf(uint32_t id) const { return cell_coords_[id]; }

  /// Coordinates of every cell, indexed by cell id and so strictly
  /// ascending (the input of SortedCells and NeighborCells::Build).
  std::span<const CellCoord> CellCoords() const { return cell_coords_; }

  /// Id of the non-empty cell at `coord`, if any (a binary search).
  std::optional<uint32_t> FindCell(const CellCoord& coord) const;

  /// Indices (into the original PointSet) of the points in cell `id`.
  std::span<const uint32_t> PointsInCell(uint32_t id) const {
    return {point_indices_.data() + cell_begin_[id],
            cell_begin_[id + 1] - cell_begin_[id]};
  }

  size_t CellSize(uint32_t id) const {
    return cell_begin_[id + 1] - cell_begin_[id];
  }

  /// Cell id of point `point_index`.
  uint32_t CellIdOfPoint(uint32_t point_index) const {
    return point_cell_[point_index];
  }

  /// First grid-ordered row of cell `id`; the cell's block spans rows
  /// [CellBeginRow(id), CellBeginRow(id+1)), and the cells [a, b) span
  /// rows [CellBeginRow(a), CellBeginRow(b)). `id` may be num_cells().
  uint32_t CellBeginRow(uint32_t id) const { return cell_begin_[id]; }

  /// Contiguous row-major coordinates of cell `id`'s points (CellSize(id)
  /// rows of dims() doubles), aligned with PointsInCell(id).
  const double* CellBlock(uint32_t id) const {
    return ordered_points_.data() +
           static_cast<size_t>(cell_begin_[id]) * dims_;
  }

  /// Coordinates of grid-ordered row `row`.
  std::span<const double> OrderedPoint(uint32_t row) const {
    return {ordered_points_.data() + static_cast<size_t>(row) * dims_, dims_};
  }

  /// Original PointSet index of grid-ordered row `row` (rows within a
  /// cell keep ascending original order).
  uint32_t OriginalIndex(uint32_t row) const { return point_indices_[row]; }

  /// Invokes fn(neighbor_cell_id) for every non-empty neighboring cell of
  /// `id`, including `id` itself, in ascending coordinate order. The
  /// stencil has k_d entries, so this is O(k_d) FindCell searches; the
  /// batch engines use the occupied-cell walk of SortedCells instead.
  template <typename Fn>
  void ForEachNeighborCell(uint32_t id, const NeighborStencil& stencil,
                           Fn&& fn) const {
    const CellCoord& base = cell_coords_[id];
    for (const CellOffset& offset : stencil.offsets) {
      if (auto found = FindCell(base.Translated({offset.data(), dims_}))) {
        fn(*found);
      }
    }
  }

 private:
  Grid(size_t dims, double eps)
      : dims_(dims),
        eps_(eps),
        side_(eps / std::sqrt(static_cast<double>(dims))) {}

  size_t dims_;
  double eps_;
  double side_;
  std::vector<CellCoord> cell_coords_;   // cell id -> coordinates, ascending
  std::vector<uint32_t> cell_begin_;     // size num_cells()+1
  template <typename T>
  using Array = std::vector<T, internal::DefaultInitAllocator<T>>;
  Array<uint32_t> point_indices_;  // grouped by cell (row -> original)
  Array<uint32_t> point_cell_;     // point index -> cell id
  Array<double> ordered_points_;   // coordinates in CSR cell order
};

}  // namespace dbscout::grid

#endif  // DBSCOUT_GRID_GRID_H_
