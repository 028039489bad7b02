#ifndef DBSCOUT_CORE_PHASES_INSERT_KERNELS_H_
#define DBSCOUT_CORE_PHASES_INSERT_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/detection.h"
#include "core/phases/phase_kernels.h"
#include "data/point_set.h"

/// Mutation-side phase primitives: the cell-granular scans behind the
/// incremental engine's insert and remove paths (and the slab-block wave
/// apply that the service's passes run on them). Like phase_kernels.h, these hold the
/// decision logic once — engines pass packed per-cell blocks (row-major
/// coordinates parallel to an index list) and get back per-point
/// within-eps verdicts; the density-threshold decisions stay in
/// phase_kernels.h (IsDense / CrossesDensityThreshold).
namespace dbscout::core::phases {

/// Streaming complement of CrossesDensityThreshold: true exactly when a
/// decrement moved a neighbor count off the minPts threshold (the
/// core -> non-core demotion of a removal; the count was >= minPts before
/// iff it was == minPts when this fires).
inline bool LeavesDensityThreshold(uint32_t old_count, uint32_t min_pts) {
  return old_count == min_pts;
}

/// Slack on the cell-box prefilter below: a skip needs the box lower bound
/// to clear eps^2 by a margin that dwarfs every rounding in play (the box
/// origin product, the clamp subtraction, the kernels' accumulation, and
/// the floor-division that binned the block's points — all O(1e-15)
/// relative), so the prefilter can never disagree with a verdict the SIMD
/// kernels would have produced.
inline constexpr double kCellBoxSlack = 1.0 + 1e-9;

/// Geometric prefilter for the live detector's scans over a cell's cached
/// neighbor cells: true when the axis-aligned cell box
/// [origin, origin + side]^d lies entirely beyond eps of `query`, so the
/// whole block can be skipped without submitting a single distance
/// evaluation. Distant neighbor cells (any offset of magnitude 2) are
/// often unreachable from the query's position inside its home cell —
/// Definition 8 keeps them only because SOME position in the home cell
/// reaches them. Conservative under kCellBoxSlack: a skipped cell cannot
/// contain a within-eps point, so counts stay exact.
inline bool CellBoxBeyondEps(const double* query, const double* origin,
                             size_t dims, double side, double eps2) {
  double d2 = 0.0;
  for (size_t k = 0; k < dims; ++k) {
    const double lo = origin[k];
    double dx = lo - query[k];  // query below the box
    const double above = query[k] - (lo + side);
    if (above > dx) {
      dx = above;  // query beyond the box
    }
    if (dx > 0.0) {
      d2 += dx * dx;
    }
  }
  return d2 > eps2 * kCellBoxSlack;
}

/// Insert/remove neighborhood scan over one packed cell block: writes
/// flags[i] = 1 iff block point i lies within eps of `query`, returns the
/// number of hits, and counts the submitted distance evaluations. The
/// caller walks the flagged entries to apply count bumps / decrements and
/// promotion / demotion checks — this keeps the distance math in the
/// bit-exact SIMD kernels while the (engine-specific) state updates stay
/// with the caller. `flags` must have `count` writable bytes.
inline uint32_t NeighborFlagsScanCell(const BoundKernels& kernels,
                                      const double* query, const double* block,
                                      size_t count, double eps2,
                                      uint8_t* flags,
                                      uint64_t* distance_comps) {
  *distance_comps += count;
  return kernels.within_flags(query, block, count, eps2, flags);
}

/// Coverage re-derivation scan for removals: true when any point of the
/// cell block whose kind is kCore lies within eps of `query`. Walks the
/// block point-by-point (core points are sparse within a block after a
/// demotion) with the same accumulate-ascending distance as the kernels,
/// so verdicts match the batch oracle exactly. `kind_at` maps an index
/// from `idx` to its current PointKind.
template <typename KindAt>
inline bool AnyCoreWithinCell(std::span<const double> query,
                              const double* block, const uint32_t* idx,
                              size_t count, size_t dims, double eps2,
                              KindAt&& kind_at, uint64_t* distance_comps) {
  for (size_t i = 0; i < count; ++i) {
    if (kind_at(idx[i]) != PointKind::kCore) {
      continue;
    }
    ++*distance_comps;
    if (PointSet::SquaredDistance(query, {block + i * dims, dims}) <= eps2) {
      return true;
    }
  }
  return false;
}

}  // namespace dbscout::core::phases

#endif  // DBSCOUT_CORE_PHASES_INSERT_KERNELS_H_
