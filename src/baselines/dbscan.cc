#include "baselines/dbscan.h"

#include <deque>

#include "common/timer.h"
#include "grid/grid.h"
#include "grid/neighbor_cells.h"

namespace dbscout::baselines {

std::vector<uint32_t> DbscanResult::Noise() const {
  std::vector<uint32_t> noise;
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (cluster[i] == kNoise) {
      noise.push_back(static_cast<uint32_t>(i));
    }
  }
  return noise;
}

Result<DbscanResult> Dbscan(const PointSet& points, double eps, int min_pts) {
  if (!(eps > 0.0)) {
    return Status::InvalidArgument("eps must be > 0");
  }
  if (min_pts < 1) {
    return Status::InvalidArgument("min_pts must be >= 1");
  }
  WallTimer timer;
  DBSCOUT_ASSIGN_OR_RETURN(grid::Grid g, grid::Grid::Build(points, eps));
  const size_t n = points.size();
  const double eps2 = eps * eps;
  const uint32_t min_pts_u = static_cast<uint32_t>(min_pts);

  // Neighbor runs of every cell: the cluster expansion reaches any cell.
  const uint32_t num_cells = static_cast<uint32_t>(g.num_cells());
  const grid::NeighborCells neighbors =
      grid::NeighborCells::Build(g.CellCoords());

  // Core detection: identical counting to DBSCOUT's phase 3, with dense
  // cells short-circuited (Lemma 1 applies to DBSCAN equally).
  std::vector<uint8_t> is_core(n, 0);
  for (uint32_t c = 0; c < num_cells; ++c) {
    const auto cell_points = g.PointsInCell(c);
    if (cell_points.size() >= min_pts_u) {
      for (uint32_t p : cell_points) {
        is_core[p] = 1;
      }
      continue;
    }
    for (uint32_t p : cell_points) {
      const auto pv = points[p];
      uint32_t count = 0;
      for (const grid::CellRun& run : neighbors.Of(c)) {
        // The points of a run's cells are consecutive grid rows.
        for (uint32_t row = g.CellBeginRow(run.begin);
             row < g.CellBeginRow(run.end) && count < min_pts_u; ++row) {
          count += PointSet::SquaredDistance(
                       pv, points[g.OriginalIndex(row)]) <= eps2;
        }
      }
      is_core[p] = count >= min_pts_u;
    }
  }

  // Cluster expansion: BFS from each unassigned core point; border points
  // adopt the first cluster that reaches them. This is the pass DBSCOUT
  // does not need — it exists only to materialize the clusters.
  DbscanResult result;
  result.cluster.assign(n, DbscanResult::kNoise);
  int32_t next_cluster = 0;
  std::deque<uint32_t> queue;
  for (uint32_t seed = 0; seed < n; ++seed) {
    if (!is_core[seed] || result.cluster[seed] != DbscanResult::kNoise) {
      continue;
    }
    const int32_t cluster_id = next_cluster++;
    result.cluster[seed] = cluster_id;
    queue.push_back(seed);
    while (!queue.empty()) {
      const uint32_t p = queue.front();
      queue.pop_front();
      const auto pv = points[p];
      const uint32_t c = g.CellIdOfPoint(p);
      for (const grid::CellRun& run : neighbors.Of(c)) {
        for (uint32_t row = g.CellBeginRow(run.begin);
             row < g.CellBeginRow(run.end); ++row) {
          const uint32_t r = g.OriginalIndex(row);
          if (result.cluster[r] != DbscanResult::kNoise) {
            continue;
          }
          if (PointSet::SquaredDistance(pv, points[r]) <= eps2) {
            result.cluster[r] = cluster_id;
            if (is_core[r]) {
              queue.push_back(r);
            }
          }
        }
      }
    }
  }
  result.num_clusters = static_cast<size_t>(next_cluster);
  for (uint8_t c : is_core) {
    result.num_core += c;
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace dbscout::baselines
