#ifndef DBSCOUT_CORE_DBSCOUT_H_
#define DBSCOUT_CORE_DBSCOUT_H_

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/detection.h"
#include "core/params.h"
#include "data/point_set.h"
#include "dataflow/context.h"

namespace dbscout::core {

/// Runs DBSCOUT on `points` and returns the exact set of density outliers
/// per Definitions 1-3 (equivalently: the noise points of DBSCAN with the
/// same eps/minPts). Dispatches to the engine selected in `params`; the
/// parallel engine creates a transient execution context.
///
/// Complexity: O(n * minPts * k_d) — linear in n for fixed parameters
/// (Lemmas 4-8).
Result<Detection> Detect(const PointSet& points, const Params& params);

/// Single-threaded direct implementation over the CSR grid. This is the
/// library's reference implementation: exact, allocation-light, and the
/// oracle the test suite compares every other path against.
Result<Detection> DetectSequential(const PointSet& points,
                                   const Params& params);

/// Dataflow implementation following Algorithms 1-5 of the paper, running on
/// `ctx` (its thread pool, partitioning default, and metrics sink). All
/// three join strategies produce identical detections; they differ in
/// shuffle volume and memory footprint.
Result<Detection> DetectParallel(const PointSet& points, const Params& params,
                                 dataflow::ExecutionContext* ctx);

/// Shared-memory multi-threaded implementation over one CSR grid: the grid
/// build and phases 3-5 are parallelized over cells on `pool` (every point
/// belongs to exactly one cell, so label writes are race-free). A null
/// `pool` runs the same code inline, like DetectSequential. Identical
/// output to the other engines; the scale-up (not scale-out) design point
/// of SS V.
Result<Detection> DetectSharedMemory(const PointSet& points,
                                     const Params& params, ThreadPool* pool);

}  // namespace dbscout::core

#endif  // DBSCOUT_CORE_DBSCOUT_H_
