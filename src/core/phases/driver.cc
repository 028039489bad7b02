#include "core/phases/driver.h"

#include <atomic>
#include <utility>

#include "obs/metrics.h"

namespace dbscout::core::phases {
namespace {

/// Cells a pool worker claims at a time. Cell populations are skewed
/// (Geolife/OSM-like grids concentrate most points in a few cells), so
/// statically sized chunks would leave workers idle; small chunks rebalance
/// while still amortizing the claim.
constexpr size_t kDynamicCellChunk = 32;

/// Runs body(c, scan) for every cell c in [begin, end) and returns the sum
/// of the bodies' uint64 results (the distance counters), in chunks of
/// kDynamicCellChunk cells claimed by `pool`'s workers (one chunk inline
/// without a pool). `scan` is the chunk's own CellScan over `cells`. Each
/// body writes only its own cell's slots, and a cell's scan does not depend
/// on the cells its chunk scanned before, so the result is the same either
/// way.
template <typename Body>
uint64_t ForEachCell(ThreadPool* pool, uint32_t begin, uint32_t end,
                     const grid::SortedCells& cells, const Body& body) {
  const auto run = [&](size_t lo, size_t hi) {
    CellScan scan(cells);
    uint64_t sum = 0;
    for (size_t c = lo; c < hi; ++c) {
      sum += body(static_cast<uint32_t>(c), &scan);
    }
    return sum;
  };
  std::atomic<uint64_t> total{0};
  ParallelForDynamic(pool, end - begin, kDynamicCellChunk,
                     [&](size_t lo, size_t hi) {
                       total.fetch_add(run(begin + lo, begin + hi),
                                       std::memory_order_relaxed);
                     });
  return total.load(std::memory_order_relaxed);
}

}  // namespace

PhaseResult RunPhases(const grid::Grid& g, CellRange eligible,
                      CellRange owned, double eps, uint32_t min_pts,
                      bool scores, ThreadPool* pool,
                      const WallTimer& grid_timer, PhaseRecorder* recorder) {
  const size_t n = g.num_points();
  const uint32_t num_cells = static_cast<uint32_t>(g.num_cells());
  const double eps2 = eps * eps;
  // Batched distance kernels over grid-ordered blocks (bit-identical to
  // the scalar pairwise loops; dims were validated by Grid::Build).
  const BoundKernels kernels = BindKernels(g.dims());
  PhaseResult out;

  // End of phase 1.
  recorder->Accumulate(kPhaseGrid, grid_timer.ElapsedSeconds(), 0, n);

  // Phase 2: dense cell map (Algorithm 2). Cells outside the eligible
  // range stay non-dense and non-core: no decision below reads them.
  WallTimer timer;
  std::vector<uint8_t> cell_dense(num_cells, 0);
  ClassifyDenseCells(g, min_pts, eligible, cell_dense.data());
  for (uint32_t c = owned.begin; c < owned.end; ++c) {
    out.num_dense_cells += IsDenseCell(cell_dense.data(), c);
  }
  recorder->Accumulate(kPhaseDenseCellMap, timer.ElapsedSeconds(), 0,
                       num_cells);

  // Phase 3: core point identification (Algorithm 3). Phases 3 and 5
  // find each scanned cell's neighbor cells as they go, nearest pencil
  // first, over the grid's cells stored column by column.
  timer.Reset();
  const grid::SortedCells cells(g.CellCoords());
  out.is_core.assign(n, 0);
  uint64_t distances = ForEachCell(
      pool, eligible.begin, eligible.end, cells,
      [&](uint32_t c, CellScan* scan) {
        return CoreScanCell(g, kernels, eps2, min_pts, c, cell_dense.data(),
                            out.is_core.data(), scan);
      });
  recorder->Accumulate(kPhaseCorePoints, timer.ElapsedSeconds(), distances,
                       n);

  // Phase 4: core cell map (Algorithm 4) and the flat CSR of sparse-cell
  // core points. The count and fill passes run per cell; the prefix sum
  // between them is sequential.
  timer.Reset();
  std::vector<uint8_t> cell_core(num_cells, 0);
  SparseCoreCsr csr;
  csr.begin.assign(num_cells + 1, 0);
  ForEachCell(pool, eligible.begin, eligible.end, cells,
              [&](uint32_t c, CellScan*) -> uint64_t {
                CountCoreCell(g, c, cell_dense.data(), out.is_core.data(),
                              cell_core.data(), &csr);
                return 0;
              });
  FinishSparseCoreLayout(g.dims(), num_cells, &csr);
  ForEachCell(pool, eligible.begin, eligible.end, cells,
              [&](uint32_t c, CellScan*) -> uint64_t {
                FillSparseCoreCell(g, c, cell_dense.data(), cell_core.data(),
                                   out.is_core.data(), &csr);
                return 0;
              });
  for (uint32_t c = owned.begin; c < owned.end; ++c) {
    out.num_core_cells += IsCoreCell(cell_core.data(), c);
  }
  recorder->Accumulate(kPhaseCoreCellMap, timer.ElapsedSeconds(), 0,
                       num_cells);

  // Phase 5: outlier identification (Algorithm 5).
  timer.Reset();
  out.kinds.assign(n, PointKind::kBorder);
  if (scores) {
    out.core_distance.assign(n, 0.0);
  }
  distances = ForEachCell(
      pool, owned.begin, owned.end, cells, [&](uint32_t c, CellScan* scan) {
        return OutlierScanCell(g, kernels, eps2, scores, c, cell_dense.data(),
                               cell_core.data(), out.is_core.data(), csr,
                               out.kinds.data(),
                               scores ? out.core_distance.data() : nullptr,
                               scan);
      });
  recorder->Accumulate(kPhaseOutliers, timer.ElapsedSeconds(), distances, n);
  return out;
}

Result<Detection> DetectWithGrid(const PointSet& points, const Params& params,
                                 ThreadPool* pool, std::string_view engine) {
  DBSCOUT_RETURN_IF_ERROR(params.Validate());
  WallTimer total_timer;
  PhaseRecorder recorder;
  recorder.AttachObservability(engine, &obs::Registry::Global(),
                               params.trace);

  // Phase 1: grid partitioning and point-cell assignment (Algorithm 1).
  // Grid::Build numbers the cells by ascending coordinates, so the ids
  // depend only on the data, not on the pool.
  WallTimer grid_timer;
  DBSCOUT_ASSIGN_OR_RETURN(grid::Grid g,
                           grid::Grid::Build(points, params.eps, pool));
  const CellRange all{0, static_cast<uint32_t>(g.num_cells())};
  PhaseResult result =
      RunPhases(g, all, all, params.eps, static_cast<uint32_t>(params.min_pts),
                params.compute_scores, pool, grid_timer, &recorder);

  // Finalize labels and summary counts (outliers collected in ascending
  // index order).
  Detection out;
  out.num_cells = g.num_cells();
  out.num_dense_cells = result.num_dense_cells;
  out.num_core_cells = result.num_core_cells;
  out.kinds = std::move(result.kinds);
  out.core_distance = std::move(result.core_distance);
  for (uint32_t p = 0; p < points.size(); ++p) {
    if (result.is_core[p]) {
      out.kinds[p] = PointKind::kCore;
      ++out.num_core;
    } else if (out.kinds[p] == PointKind::kOutlier) {
      out.outliers.push_back(p);
    } else {
      ++out.num_border;
    }
  }
  out.phases = recorder.Take();
  out.total_seconds = total_timer.ElapsedSeconds();
  return out;
}

}  // namespace dbscout::core::phases
