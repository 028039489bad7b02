#include "core/dbscout.h"
#include "core/phases/driver.h"

namespace dbscout::core {

Result<Detection> DetectSequential(const PointSet& points,
                                   const Params& params) {
  return phases::DetectWithGrid(points, params, /*pool=*/nullptr,
                                phases::kEngineSequential);
}

}  // namespace dbscout::core
