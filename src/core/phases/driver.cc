#include "core/phases/driver.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "grid/neighbor_cells.h"
#include "obs/metrics.h"

namespace dbscout::core::phases {
namespace {

/// Cells a pool worker claims at a time. Cell populations are skewed
/// (Geolife/OSM-like grids concentrate most points in a few cells), so
/// statically sized chunks would leave workers idle; small chunks rebalance
/// while still amortizing the claim.
constexpr size_t kDynamicCellChunk = 32;

/// Runs body(c, scratch) for every cell c in [begin, end) and returns the
/// sum of the bodies' uint64 results (the distance counters), in chunks of
/// kDynamicCellChunk cells claimed by `pool`'s workers (one chunk inline
/// without a pool). `scratch` is reusable storage private to the chunk.
/// Each body writes only its own cell's slots, so the result is the same
/// either way.
template <typename Body>
uint64_t ForEachCell(ThreadPool* pool, uint32_t begin, uint32_t end,
                     const Body& body) {
  const auto run = [&](size_t lo, size_t hi) {
    std::vector<uint32_t> scratch;
    uint64_t sum = 0;
    for (size_t c = lo; c < hi; ++c) {
      sum += body(static_cast<uint32_t>(c), &scratch);
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

  // End of phase 1: the neighbor runs of the cells phases 3 and 5 scan.
  std::vector<uint8_t> scan = ScannedCells(g, min_pts, scores);
  std::fill(scan.begin(), scan.begin() + eligible.begin, 0);
  std::fill(scan.begin() + eligible.end, scan.end(), 0);
  const grid::NeighborCells neighbors =
      grid::NeighborCells::Build(g.CellCoords(), scan, pool);
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

  // Phase 3: core point identification (Algorithm 3).
  timer.Reset();
  out.is_core.assign(n, 0);
  uint64_t distances = ForEachCell(
      pool, eligible.begin, eligible.end,
      [&](uint32_t c, std::vector<uint32_t>*) {
        return CoreScanCell(g, neighbors, kernels, eps2, min_pts, c,
                            cell_dense.data(), out.is_core.data());
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
  ForEachCell(pool, eligible.begin, eligible.end,
              [&](uint32_t c, std::vector<uint32_t>*) -> uint64_t {
                CountCoreCell(g, c, cell_dense.data(), out.is_core.data(),
                              cell_core.data(), &csr);
                return 0;
              });
  FinishSparseCoreLayout(g.dims(), num_cells, &csr);
  ForEachCell(pool, eligible.begin, eligible.end,
              [&](uint32_t c, std::vector<uint32_t>*) -> uint64_t {
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
      pool, owned.begin, owned.end,
      [&](uint32_t c, std::vector<uint32_t>* scratch) {
        return OutlierScanCell(
            g, neighbors, kernels, eps2, scores, c, cell_dense.data(),
            cell_core.data(), out.is_core.data(), csr, out.kinds.data(),
            scores ? out.core_distance.data() : nullptr, scratch);
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
