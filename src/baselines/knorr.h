#ifndef DBSCOUT_BASELINES_KNORR_H_
#define DBSCOUT_BASELINES_KNORR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "data/point_set.h"

namespace dbscout::baselines {

/// Configuration of the classical distance-based outlier definition of
/// Knorr & Ng (reference [11] of the paper): p is a DB(fraction, radius)
/// outlier when at least `fraction` of the dataset lies farther than
/// `radius` from it.
struct KnorrParams {
  double radius = 1.0;
  /// Minimum fraction of the dataset that must be beyond `radius`
  /// (e.g. 0.99).
  double fraction = 0.99;
};

struct KnorrResult {
  std::vector<uint32_t> outliers;  // ascending
  double seconds = 0.0;
};

/// Grid-accelerated DB-outlier detection: the neighbor count threshold
/// floor((1 - fraction) * n) is evaluated with the same eps-cell grid and
/// neighbor cells DBSCOUT uses (here with eps = radius), including the
/// dense-cell shortcut and early termination — demonstrating that the
/// paper's grid machinery accelerates the whole distance-based family,
/// not just Definition 3.
Result<KnorrResult> KnorrOutliers(const PointSet& points,
                                  const KnorrParams& params);

}  // namespace dbscout::baselines

#endif  // DBSCOUT_BASELINES_KNORR_H_
