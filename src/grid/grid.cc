#include "grid/grid.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

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
  const auto it =
      std::lower_bound(cell_coords_.begin(), cell_coords_.end(), coord);
  if (it == cell_coords_.end() || !(*it == coord)) {
    return std::nullopt;
  }
  return static_cast<uint32_t>(it - cell_coords_.begin());
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

  // Pass 1: find the distinct cells and count their sizes, indexed by
  // first appearance for now.
  std::unordered_map<CellCoord, uint32_t, CellCoordHash> first_ids;
  first_ids.reserve(n / 4 + 16);
  std::vector<uint32_t> cell_sizes;
  CellCoord coord;
  for (size_t i = 0; i < n; ++i) {
    DBSCOUT_RETURN_IF_ERROR(CellOfPoint(points[i], grid.side_, &coord));
    auto [it, inserted] = first_ids.try_emplace(
        coord, static_cast<uint32_t>(cell_sizes.size()));
    if (inserted) {
      grid.cell_coords_.push_back(coord);
      cell_sizes.push_back(0);
    }
    grid.point_cell_[i] = it->second;
    ++cell_sizes[it->second];
  }

  // Number the cells by ascending coordinates.
  std::sort(grid.cell_coords_.begin(), grid.cell_coords_.end());
  const size_t num_cells = grid.cell_coords_.size();
  std::vector<uint32_t> id_of(num_cells);  // first-appearance index -> id
  grid.cell_begin_.assign(num_cells + 1, 0);
  for (uint32_t c = 0; c < num_cells; ++c) {
    const uint32_t first = first_ids[grid.cell_coords_[c]];
    id_of[first] = c;
    grid.cell_begin_[c + 1] = grid.cell_begin_[c] + cell_sizes[first];
  }

  // Pass 2: counting sort of point indices by cell id, materializing the
  // grid-ordered coordinate copy (cell c's points contiguous, row-major).
  grid.point_indices_.resize(n);
  grid.ordered_points_.resize(n * d);
  std::vector<uint32_t> cursor(grid.cell_begin_.begin(),
                               grid.cell_begin_.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t c = id_of[grid.point_cell_[i]];
    grid.point_cell_[i] = c;
    const uint32_t row = cursor[c]++;
    grid.point_indices_[row] = static_cast<uint32_t>(i);
    const auto p = points[i];
    double* dst = grid.ordered_points_.data() + static_cast<size_t>(row) * d;
    for (size_t k = 0; k < d; ++k) {
      dst[k] = p[k];
    }
  }
  return grid;
}

}  // namespace dbscout::grid
