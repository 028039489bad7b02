#include "common/thread_pool.h"
#include "core/dbscout.h"
#include "core/phases/driver.h"

namespace dbscout::core {

Result<Detection> DetectSharedMemory(const PointSet& points,
                                     const Params& params, ThreadPool* pool) {
  return phases::DetectWithGrid(points, params, pool,
                                phases::kEngineSharedMemory);
}

}  // namespace dbscout::core
