#ifndef DBSCOUT_TESTS_TESTUTIL_H_
#define DBSCOUT_TESTS_TESTUTIL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/detection.h"
#include "data/point_set.h"
#include "grid/grid.h"
#include "grid/neighbor_cells.h"

namespace dbscout::testing {

/// O(n^2) reference implementation of Definitions 1-3: core points via
/// pairwise neighbor counts (the point itself included), outliers as points
/// not within eps of any core point. This is the oracle every DBSCOUT
/// engine, strategy, and baseline equivalence test compares against.
std::vector<core::PointKind> BruteForceKinds(const PointSet& points,
                                             double eps, int min_pts);

/// Outlier indices (ascending) from BruteForceKinds.
std::vector<uint32_t> BruteForceOutliers(const PointSet& points, double eps,
                                         int min_pts);

/// n uniform points in [lo, hi)^dims.
PointSet UniformPoints(Rng* rng, size_t n, size_t dims, double lo, double hi);

/// A mixture of `clusters` Gaussian blobs plus `noise` uniform points over
/// the same bounding region. Good at producing a mix of dense, sparse, and
/// empty cells.
PointSet ClusteredPoints(Rng* rng, size_t n, size_t dims, int clusters,
                         double noise_fraction);

/// Points placed exactly on a lattice of spacing `step` (stresses cell
/// boundary handling: coordinates land on cell edges).
PointSet LatticePoints(size_t per_side, size_t dims, double step);

/// `ids` widened to the incremental detector's uint64 ids, so batch
/// engines' outlier lists compare with IncrementalDetector::Outliers().
std::vector<uint64_t> Widen(const std::vector<uint32_t>& ids);

/// The cell ids of grid::NeighborCells runs, in run order.
std::vector<uint32_t> ExpandRuns(std::span<const grid::CellRun> runs);

/// The coordinates of the cell of `grid` holding `point`, a point the grid
/// accepted (grid::CellOfPoint with the grid's side).
grid::CellCoord CellAt(const grid::Grid& grid, std::span<const double> point);

}  // namespace dbscout::testing

#endif  // DBSCOUT_TESTS_TESTUTIL_H_
