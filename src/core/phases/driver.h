#ifndef DBSCOUT_CORE_PHASES_DRIVER_H_
#define DBSCOUT_CORE_PHASES_DRIVER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/dbscout.h"
#include "core/phases/phase_kernels.h"
#include "core/phases/phase_recorder.h"
#include "grid/grid.h"

/// The one implementation of phases 2-5 (Algorithms 2-5) over a built grid,
/// shared by every grid engine: the in-memory engines run it over all
/// cells, the out-of-core engine over one stripe's cells. The phase logic
/// itself lives in phase_kernels.cc; this layer only schedules the per-cell
/// kernel calls, inline without a pool and in dynamic chunks on one.
namespace dbscout::core::phases {

/// Per-point verdicts and owned-cell counts of RunPhases. The vectors have
/// one entry per point of the grid; only the entries of points in owned
/// cells are final.
struct PhaseResult {
  std::vector<uint8_t> is_core;
  /// kOutlier or kBorder; a core point keeps kBorder (read is_core).
  std::vector<PointKind> kinds;
  /// Distance to the nearest core point (empty unless scores).
  std::vector<double> core_distance;
  uint32_t num_dense_cells = 0;  // among the owned cells
  uint32_t num_core_cells = 0;   // among the owned cells
};

/// Phases 2-5 over grid `g`. Phases 2-4 run over the `eligible` cells and
/// phase 5 over the `owned` ones, which must lie inside `eligible` with
/// every neighbor cell of an owned cell eligible (Lemmas 1-2 then decide
/// each owned point exactly as over the whole grid). Phases 3 and 5 find
/// each scanned cell's neighbor cells (Definition 8) as they scan it,
/// nearest pencil first, and stop once the cell is settled; no cell's
/// neighbor list is stored. Runs on `pool`, or inline when it is null; the
/// result and every counter are the same either way. Records one row per
/// phase into `recorder`: the grid row covers the time since `grid_timer`
/// started; the core_points and outliers rows include the neighbor walks;
/// the cell-map rows count g.num_cells() records and the others
/// g.num_points().
PhaseResult RunPhases(const grid::Grid& g, CellRange eligible,
                      CellRange owned, double eps, uint32_t min_pts,
                      bool scores, ThreadPool* pool,
                      const WallTimer& grid_timer, PhaseRecorder* recorder);

/// The five-phase in-memory detection (Algorithms 1-5) of DetectSequential
/// (null pool) and DetectSharedMemory: builds the grid on `pool`, runs
/// RunPhases over every cell, and labels every point. `engine` labels the
/// phase metrics and trace spans.
Result<Detection> DetectWithGrid(const PointSet& points, const Params& params,
                                 ThreadPool* pool, std::string_view engine);

}  // namespace dbscout::core::phases

#endif  // DBSCOUT_CORE_PHASES_DRIVER_H_
