#ifndef DBSCOUT_CORE_PHASES_DRIVER_H_
#define DBSCOUT_CORE_PHASES_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/thread_pool.h"
#include "core/dbscout.h"
#include "core/phases/phase_kernels.h"
#include "core/phases/phase_recorder.h"
#include "grid/grid.h"
#include "grid/neighbor_cells.h"

/// The execution-policy seam between the phase kernels and the in-memory
/// engines. A policy answers one question — how the per-cell primitive
/// calls of phases 3/4/5 are scheduled — and nothing else; the phase logic
/// itself lives in phase_kernels.cc. Both policies produce bit-identical
/// detections because every primitive call writes only the slots of its
/// own cell and the work done per cell is schedule-independent.
namespace dbscout::core::phases {

/// Single-threaded policy: plain loops, one scratch vector.
class SequentialExec {
 public:
  /// Engine label for metrics and trace spans.
  static constexpr std::string_view kEngineName = kEngineSequential;

  /// Runs body(cell, scratch) for every cell and returns the sum of the
  /// bodies' uint64 results (the distance counters).
  template <typename Body>
  uint64_t ForEachCell(uint32_t num_cells, Body&& body) {
    std::vector<uint32_t> scratch;
    uint64_t total = 0;
    for (uint32_t c = 0; c < num_cells; ++c) {
      total += body(c, &scratch);
    }
    return total;
  }

  /// Runs body(cell) for every cell (the counter-free phase-4 passes).
  template <typename Body>
  void ForEachCellNoReduce(uint32_t num_cells, Body&& body) {
    for (uint32_t c = 0; c < num_cells; ++c) {
      body(c);
    }
  }

  /// No pool: the grid and neighbor-list builds run on this thread.
  ThreadPool* pool() const { return nullptr; }
};

/// Dynamic-chunk size, in cells, of PooledExec's phase-3/5 loops in the
/// engines that run them on a pool (shared memory, external).
inline constexpr size_t kDynamicCellChunk = 32;

/// Thread-pool policy: phases 3/5 run with dynamic chunk claiming (cell
/// populations are skewed — Geolife/OSM-like grids concentrate most points
/// in a few cells — so statically-sized chunks leave workers idle), the
/// phase-4 passes with static chunks (uniform per-cell cost). Each cell's
/// slots are written only by the worker that claimed that cell: no races.
class PooledExec {
 public:
  /// Engine label for metrics and trace spans.
  static constexpr std::string_view kEngineName = kEngineSharedMemory;

  /// `chunk` is the dynamic-chunk size in cells; small chunks rebalance
  /// while still amortizing the claim overhead.
  PooledExec(ThreadPool* pool, size_t chunk) : pool_(pool), chunk_(chunk) {}

  template <typename Body>
  uint64_t ForEachCell(uint32_t num_cells, Body&& body) {
    std::atomic<uint64_t> total{0};
    pool_->ParallelForDynamic(
        num_cells, chunk_, [&](size_t begin, size_t end) {
          std::vector<uint32_t> scratch;
          uint64_t local = 0;
          for (size_t c = begin; c < end; ++c) {
            local += body(static_cast<uint32_t>(c), &scratch);
          }
          total.fetch_add(local, std::memory_order_relaxed);
        });
    return total.load();
  }

  template <typename Body>
  void ForEachCellNoReduce(uint32_t num_cells, Body&& body) {
    pool_->ParallelForChunked(num_cells, [&](size_t begin, size_t end) {
      for (size_t c = begin; c < end; ++c) {
        body(static_cast<uint32_t>(c));
      }
    });
  }

  /// The pool the grid and neighbor-list builds run on.
  ThreadPool* pool() const { return pool_; }

 private:
  ThreadPool* pool_;
  size_t chunk_;
};

/// The five-phase in-memory detection driver (Algorithms 1-5), shared by
/// DetectSequential and DetectSharedMemory — the engines differ only in
/// the execution policy they pass in.
template <typename Exec>
Result<Detection> DetectWithGrid(const PointSet& points, const Params& params,
                                 Exec&& exec) {
  DBSCOUT_RETURN_IF_ERROR(params.Validate());
  WallTimer total_timer;
  Detection out;
  const size_t n = points.size();
  const double eps2 = params.eps * params.eps;
  const uint32_t min_pts = static_cast<uint32_t>(params.min_pts);
  PhaseRecorder recorder;
  recorder.AttachObservability(std::remove_reference_t<Exec>::kEngineName,
                               &obs::Registry::Global(), params.trace);

  // Phase 1: grid partitioning and point-cell assignment (Algorithm 1).
  // Grid::Build runs on the policy's pool when it has one, and as one task
  // otherwise; it numbers the cells by ascending coordinates, so the ids
  // depend only on the data. The neighbor lists (Definition 8) of the
  // cells phases 3 and 5 scan are built here too, on the same pool.
  recorder.Start();
  DBSCOUT_ASSIGN_OR_RETURN(grid::Grid g,
                           grid::Grid::Build(points, params.eps, exec.pool()));
  const bool scores = params.compute_scores;
  const grid::NeighborCells neighbors = grid::NeighborCells::Build(
      g.CellCoords(), ScannedCells(g, min_pts, scores), exec.pool());
  out.num_cells = g.num_cells();
  recorder.Record(kPhaseGrid, 0, n);
  const uint32_t num_cells = static_cast<uint32_t>(g.num_cells());
  // Batched distance kernels over grid-ordered blocks (bit-identical to
  // the scalar pairwise loops; dims were validated by Grid::Build).
  const BoundKernels kernels = BindKernels(g.dims());

  // Phase 2: dense cell map (Algorithm 2).
  recorder.Start();
  std::vector<uint8_t> cell_dense(num_cells, 0);
  out.num_dense_cells = ClassifyDenseCells(g, min_pts, cell_dense.data());
  recorder.Record(kPhaseDenseCellMap, 0, num_cells);

  // Phase 3: core point identification (Algorithm 3).
  recorder.Start();
  std::vector<uint8_t> is_core(n, 0);
  uint64_t distances = exec.ForEachCell(
      num_cells, [&](uint32_t c, std::vector<uint32_t>*) {
        return CoreScanCell(g, neighbors, kernels, eps2, min_pts, c,
                            cell_dense.data(), is_core.data());
      });
  recorder.Record(kPhaseCorePoints, distances, n);

  // Phase 4: core cell map (Algorithm 4) + flat CSR of sparse-cell core
  // points. Count and fill passes go cell-parallel under the pooled
  // policy; the prefix sum between them is sequential.
  recorder.Start();
  std::vector<uint8_t> cell_core(num_cells, 0);
  SparseCoreCsr csr;
  csr.begin.assign(num_cells + 1, 0);
  exec.ForEachCellNoReduce(num_cells, [&](uint32_t c) {
    CountCoreCell(g, c, cell_dense.data(), is_core.data(), cell_core.data(),
                  &csr);
  });
  FinishSparseCoreLayout(g.dims(), num_cells, &csr);
  exec.ForEachCellNoReduce(num_cells, [&](uint32_t c) {
    FillSparseCoreCell(g, c, cell_dense.data(), cell_core.data(),
                       is_core.data(), &csr);
  });
  for (uint32_t c = 0; c < num_cells; ++c) {
    out.num_core_cells += cell_core[c];
  }
  recorder.Record(kPhaseCoreCellMap, 0, num_cells);

  // Phase 5: outlier identification (Algorithm 5).
  recorder.Start();
  if (scores) {
    out.core_distance.assign(n, 0.0);
  }
  out.kinds.assign(n, PointKind::kBorder);
  distances = exec.ForEachCell(
      num_cells, [&](uint32_t c, std::vector<uint32_t>* scratch) {
        return OutlierScanCell(g, neighbors, kernels, eps2, scores, c,
                               cell_dense.data(), cell_core.data(),
                               is_core.data(), csr, out.kinds.data(),
                               scores ? out.core_distance.data() : nullptr,
                               scratch);
      });
  recorder.Record(kPhaseOutliers, distances, n);

  // Finalize labels and summary counts (sequential; outliers collected in
  // ascending index order).
  for (uint32_t p = 0; p < n; ++p) {
    if (is_core[p]) {
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

#endif  // DBSCOUT_CORE_PHASES_DRIVER_H_
