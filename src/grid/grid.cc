#include "grid/grid.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/key_table.h"
#include "common/str_util.h"

namespace dbscout::grid {
namespace {

/// One build task's share: the cells of a contiguous range of points.
struct TaskCells {
  Status status;                 // the range's first bad point, if any
  KeyTable<CellCoord, CellCoordHash> table;  // local id <-> coordinates
  std::vector<uint32_t> rows;    // local id -> point count, then next row
  std::vector<uint32_t> order;   // local ids by ascending coordinates
  std::vector<uint32_t> global;  // local id -> cell id
};

}  // namespace

Status internal::CellIndexError(std::span<const double> point, double side) {
  for (size_t k = 0; k < point.size(); ++k) {
    if (!std::isfinite(point[k])) {
      return Status::InvalidArgument(
          StrFormat("non-finite coordinate %zu (%g)", k, point[k]));
    }
    if (!(std::abs(std::floor(point[k] / side)) <= kMaxCellIndex)) {
      return Status::OutOfRange(StrFormat(
          "cell index overflow (|%g / %g| too large)", point[k], side));
    }
  }
  return Status::OK();
}

std::optional<uint32_t> Grid::FindCell(const CellCoord& coord) const {
  const auto it =
      std::lower_bound(cell_coords_.begin(), cell_coords_.end(), coord);
  if (it == cell_coords_.end() || !(*it == coord)) {
    return std::nullopt;
  }
  return static_cast<uint32_t>(it - cell_coords_.begin());
}

Result<Grid> Grid::Build(const PointSet& points, double eps,
                         ThreadPool* pool) {
  if (!(eps > 0.0) || !std::isfinite(eps)) {
    return Status::InvalidArgument(StrFormat("eps must be positive, got %g",
                                             eps));
  }
  if (points.dims() < 1 || points.dims() > kMaxDims) {
    return Status::InvalidArgument(
        StrFormat("dims=%zu out of supported range [1, %zu]", points.dims(),
                  kMaxDims));
  }
  if (points.size() > UINT32_MAX) {
    return Status::OutOfRange("more than 2^32-1 points");
  }
  Grid grid(points.dims(), eps);
  const size_t n = points.size();
  const size_t d = points.dims();
  const size_t tasks = pool != nullptr ? pool->num_threads() : 1;
  std::vector<TaskCells> cells(tasks);
  auto range_begin = [&](size_t t) { return t * n / tasks; };
  grid.point_cell_.resize(n);

  // Pass 1: task t maps the points [range_begin(t), range_begin(t+1)) to
  // cells in its own table, counts them, and sorts its cells.
  RunTasks(pool, tasks, [&](size_t t) {
    TaskCells& task = cells[t];
    CellCoord coord;
    for (size_t i = range_begin(t); i < range_begin(t + 1); ++i) {
      Status status = CellOfPoint(points[i], grid.side_, &coord);
      if (!status.ok()) {
        task.status = std::move(status);
        return;
      }
      const uint32_t local = task.table.IdOf(coord);
      if (local == task.rows.size()) {
        task.rows.push_back(0);
      }
      ++task.rows[local];
      grid.point_cell_[i] = local;
    }
    const std::vector<CellCoord>& coords = task.table.keys();
    task.order.resize(coords.size());
    std::iota(task.order.begin(), task.order.end(), 0u);
    std::sort(task.order.begin(), task.order.end(),
              [&](uint32_t a, uint32_t b) { return coords[a] < coords[b]; });
    task.global.resize(coords.size());
  });
  // The lowest failing task holds the first bad point in input order.
  for (const TaskCells& task : cells) {
    DBSCOUT_RETURN_IF_ERROR(task.status);
  }

  // Merge: walk the tasks' sorted cells together, numbering each distinct
  // cell by ascending coordinates. A task's share of cell c starts after
  // the shares of the tasks before it, so rows within a cell keep
  // ascending original order.
  std::vector<size_t> head(tasks, 0);
  auto head_cell = [&](size_t t) -> const CellCoord* {
    const TaskCells& task = cells[t];
    return head[t] < task.order.size()
               ? &task.table.keys()[task.order[head[t]]]
               : nullptr;
  };
  grid.cell_begin_.push_back(0);
  for (;;) {
    const CellCoord* next = nullptr;
    for (size_t t = 0; t < tasks; ++t) {
      const CellCoord* c = head_cell(t);
      if (c != nullptr && (next == nullptr || *c < *next)) {
        next = c;
      }
    }
    if (next == nullptr) {
      break;
    }
    const uint32_t id = static_cast<uint32_t>(grid.cell_coords_.size());
    grid.cell_coords_.push_back(*next);
    uint32_t row = grid.cell_begin_.back();
    for (size_t t = 0; t < tasks; ++t) {
      const CellCoord* c = head_cell(t);
      if (c != nullptr && *c == grid.cell_coords_.back()) {
        TaskCells& task = cells[t];
        const uint32_t local = task.order[head[t]++];
        task.global[local] = id;
        const uint32_t count = task.rows[local];
        task.rows[local] = row;
        row += count;
      }
    }
    grid.cell_begin_.push_back(row);
  }

  // Pass 2: each task renumbers its points to cell ids and scatters them
  // to their rows of the CSR and of the grid-ordered coordinate copy (cell
  // c's points contiguous, row-major). The rows of different tasks are
  // disjoint.
  grid.point_indices_.resize(n);
  grid.ordered_points_.resize(n * d);
  RunTasks(pool, tasks, [&](size_t t) {
    TaskCells& task = cells[t];
    for (size_t i = range_begin(t); i < range_begin(t + 1); ++i) {
      const uint32_t local = grid.point_cell_[i];
      grid.point_cell_[i] = task.global[local];
      const uint32_t row = task.rows[local]++;
      grid.point_indices_[row] = static_cast<uint32_t>(i);
      const auto p = points[i];
      double* dst = grid.ordered_points_.data() + static_cast<size_t>(row) * d;
      for (size_t k = 0; k < d; ++k) {
        dst[k] = p[k];
      }
    }
  });
  return grid;
}

}  // namespace dbscout::grid
