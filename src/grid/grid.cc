#include "grid/grid.h"

#include <cmath>

#include "common/str_util.h"

namespace dbscout::grid {

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

CellCoord Grid::CellOf(std::span<const double> point) const {
  CellCoord coord;
  (void)CellOfPoint(point, side_, &coord);  // Build accepted the point
  return coord;
}

std::optional<uint32_t> Grid::FindCell(const CellCoord& coord) const {
  if (auto it = cell_ids_.find(coord); it != cell_ids_.end()) {
    return it->second;
  }
  return std::nullopt;
}

Result<Grid> Grid::Build(const PointSet& points, double eps) {
  if (!(eps > 0.0) || !std::isfinite(eps)) {
    return Status::InvalidArgument(StrFormat("eps must be positive, got %g",
                                             eps));
  }
  if (points.dims() < 1 || points.dims() > kMaxDims) {
    return Status::InvalidArgument(
        StrFormat("dims=%zu out of supported range [1, %zu]", points.dims(),
                  kMaxDims));
  }
  Grid grid(points.dims(), eps);
  const size_t n = points.size();
  const size_t d = points.dims();
  grid.point_cell_.resize(n);
  grid.cell_ids_.reserve(n / 4 + 16);

  // Pass 1: assign cell ids and count cell sizes.
  std::vector<uint32_t> cell_sizes;
  CellCoord coord;
  for (size_t i = 0; i < n; ++i) {
    DBSCOUT_RETURN_IF_ERROR(CellOfPoint(points[i], grid.side_, &coord));
    auto [it, inserted] = grid.cell_ids_.try_emplace(
        coord, static_cast<uint32_t>(grid.cell_coords_.size()));
    if (inserted) {
      grid.cell_coords_.push_back(coord);
      cell_sizes.push_back(0);
    }
    grid.point_cell_[i] = it->second;
    ++cell_sizes[it->second];
  }

  // Pass 2: counting sort of point indices by cell id, materializing the
  // grid-ordered coordinate copy (cell c's points contiguous, row-major)
  // and the old<->new index maps alongside.
  const size_t num_cells = grid.cell_coords_.size();
  grid.cell_begin_.assign(num_cells + 1, 0);
  for (size_t c = 0; c < num_cells; ++c) {
    grid.cell_begin_[c + 1] = grid.cell_begin_[c] + cell_sizes[c];
  }
  grid.point_indices_.resize(n);
  grid.point_row_.resize(n);
  grid.ordered_points_.resize(n * d);
  std::vector<uint32_t> cursor(grid.cell_begin_.begin(),
                               grid.cell_begin_.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = cursor[grid.point_cell_[i]]++;
    grid.point_indices_[row] = static_cast<uint32_t>(i);
    grid.point_row_[i] = row;
    const auto p = points[i];
    double* dst = grid.ordered_points_.data() + static_cast<size_t>(row) * d;
    for (size_t k = 0; k < d; ++k) {
      dst[k] = p[k];
    }
  }
  return grid;
}

}  // namespace dbscout::grid
