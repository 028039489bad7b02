#include "baselines/knorr.h"

#include <algorithm>
#include <cmath>

#include "common/timer.h"
#include "grid/grid.h"
#include "grid/neighbor_cells.h"

namespace dbscout::baselines {

Result<KnorrResult> KnorrOutliers(const PointSet& points,
                                  const KnorrParams& params) {
  if (!(params.radius > 0.0)) {
    return Status::InvalidArgument("radius must be > 0");
  }
  if (params.fraction <= 0.0 || params.fraction >= 1.0) {
    return Status::InvalidArgument("fraction must be in (0, 1)");
  }
  WallTimer timer;
  KnorrResult result;
  const size_t n = points.size();
  if (n == 0) {
    return result;
  }
  // p is NOT an outlier once it has more than threshold neighbors
  // (itself excluded) within the radius.
  const uint64_t threshold = static_cast<uint64_t>(
      std::floor((1.0 - params.fraction) * static_cast<double>(n)));
  DBSCOUT_ASSIGN_OR_RETURN(grid::Grid g,
                           grid::Grid::Build(points, params.radius));
  const double r2 = params.radius * params.radius;

  // Dense-cell shortcut (the Lemma 1 idea transposed): a cell with more
  // than threshold+1 points clears every member outright, since the cell
  // diagonal is the radius. Only the other cells are scanned.
  std::vector<uint8_t> scan(g.num_cells());
  for (uint32_t c = 0; c < g.num_cells(); ++c) {
    scan[c] = g.CellSize(c) <= threshold + 1;
  }
  const grid::NeighborCells neighbors =
      grid::NeighborCells::Build(g.CellCoords(), scan);
  for (uint32_t c = 0; c < g.num_cells(); ++c) {
    if (!scan[c]) {
      continue;
    }
    for (uint32_t p : g.PointsInCell(c)) {
      const auto pv = points[p];
      uint64_t count = 0;
      bool cleared = false;
      for (uint32_t nc : neighbors.Of(c)) {
        for (uint32_t q : g.PointsInCell(nc)) {
          if (q != p && PointSet::SquaredDistance(pv, points[q]) <= r2 &&
              ++count > threshold) {
            cleared = true;
            break;
          }
        }
        if (cleared) {
          break;
        }
      }
      if (!cleared) {
        result.outliers.push_back(p);
      }
    }
  }
  std::sort(result.outliers.begin(), result.outliers.end());
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace dbscout::baselines
