#ifndef DBSCOUT_GRID_GAP_PRUNING_H_
#define DBSCOUT_GRID_GAP_PRUNING_H_

#include <cstddef>
#include <cstdint>
#include <limits>

#include "data/point_set.h"

namespace dbscout::grid {

/// The Definition 8 pruning arithmetic of a gap-pruned descent over
/// lexicographically sorted occupied cells, shared by SortedCells (the
/// batch engines' neighbor runs) and CellIndex (the live detector's index).
///
/// Cells c and x are neighbors iff sum_i max(0, |c_i - x_i| - 1)^2 < d.
/// A descent fixes one coordinate per level, so the running gap of a path
/// only grows; a path at gap g < d may still take, along the next axis,
/// exactly the displacements j with AxisGap(j) < d - g. Window() turns that
/// budget into a closed coordinate window whose bounds saturate, so the
/// descent is exact over the whole int64 coordinate range.
class GapPruning {
 public:
  GapPruning() = default;

  explicit GapPruning(size_t dims) : dims_(static_cast<int64_t>(dims)) {
    // reach_[b] = largest |j| with AxisGap(j) < b, for b >= 1:
    // ceil(sqrt(b)). With the whole budget d this is SlabReach(d).
    for (int64_t budget = 0; budget <= dims_; ++budget) {
      int64_t a = 1;
      while (a * a < budget) {
        ++a;
      }
      reach_[budget] = a;
    }
  }

  /// Squared gap, in cell sides, that a displacement of j cells along one
  /// axis adds to the minimum distance between two cells:
  /// max(0, |j| - 1)^2.
  static int64_t AxisGap(int64_t j) {
    const int64_t a = j < 0 ? -j : j;
    return a <= 1 ? 0 : (a - 1) * (a - 1);
  }

  /// The closed window [lo, hi] of next-axis coordinates that keep a path
  /// at gap `gap` (< d) below d, around the query's coordinate xk.
  struct Window {
    int64_t lo;
    int64_t hi;
  };
  Window At(int64_t xk, int64_t gap) const {
    const int64_t reach = reach_[dims_ - gap];
    return {SaturatingAdd(xk, -reach), SaturatingAdd(xk, reach)};
  }

 private:
  // x + delta, clamped to the int64 range.
  static int64_t SaturatingAdd(int64_t x, int64_t delta) {
    int64_t out;
    if (__builtin_add_overflow(x, delta, &out)) {
      return delta < 0 ? std::numeric_limits<int64_t>::min()
                       : std::numeric_limits<int64_t>::max();
    }
    return out;
  }

  int64_t dims_ = 0;
  int64_t reach_[kMaxDims + 1] = {};  // remaining gap budget -> max |j|
};

}  // namespace dbscout::grid

#endif  // DBSCOUT_GRID_GAP_PRUNING_H_
