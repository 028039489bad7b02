#include "core/phases/phase_kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace dbscout::core::phases {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

BoundKernels BindKernels(size_t dims) {
  const simd::DistanceKernels& table = simd::DispatchedKernels();
  return BoundKernels{table.count_within[dims], table.any_within[dims],
                      table.min_sqdist[dims], table.within_flags[dims]};
}

void ClassifyDenseCells(const grid::Grid& g, uint32_t min_pts,
                        CellRange cells, uint8_t* cell_dense) {
  for (uint32_t c = cells.begin; c < cells.end; ++c) {
    cell_dense[c] = IsDense(g.CellSize(c), min_pts);
  }
}

uint64_t CoreScanCell(const grid::Grid& g, const BoundKernels& kernels,
                      double eps2, uint32_t min_pts, uint32_t c,
                      const uint8_t* cell_dense, uint8_t* is_core,
                      CellScan* scan) {
  const auto cell_points = g.PointsInCell(c);
  if (cell_dense[c]) {
    for (uint32_t p : cell_points) {
      is_core[p] = 1;
    }
    return 0;
  }
  const size_t d = g.dims();
  const double* cell_block = g.CellBlock(c);
  std::vector<uint32_t>& pending = scan->pending;
  std::vector<uint32_t>& counts = scan->counts;
  pending.resize(cell_points.size());  // lint:allow(hot-path-purity) per-chunk scratch, capacity amortized across cells
  std::iota(pending.begin(), pending.end(), 0u);
  counts.assign(cell_points.size(), 0);  // lint:allow(hot-path-purity) per-chunk scratch, capacity amortized across cells
  size_t num_pending = pending.size();
  uint64_t distances = 0;
  scan->neighbors.ForEach(c, [&](grid::CellRun run) {
    // The cells of a run are consecutive grid rows: one block.
    const double* block = g.CellBlock(run.begin);
    const size_t block_size =
        g.CellBeginRow(run.end) - g.CellBeginRow(run.begin);
    size_t kept = 0;
    for (size_t i = 0; i < num_pending; ++i) {
      const uint32_t j = pending[i];
      distances += block_size;
      counts[j] += kernels.count_within(cell_block + j * d, block,
                                        block_size, eps2, min_pts - counts[j]);
      if (IsDense(counts[j], min_pts)) {
        is_core[cell_points[j]] = 1;
      } else {
        pending[kept++] = j;
      }
    }
    num_pending = kept;
    return num_pending > 0;
  });
  return distances;
}

void CountCoreCell(const grid::Grid& g, uint32_t c, const uint8_t* cell_dense,
                   const uint8_t* is_core, uint8_t* cell_core,
                   SparseCoreCsr* csr) {
  if (cell_dense[c]) {
    cell_core[c] = 1;
    return;
  }
  uint32_t core_in_cell = 0;
  for (uint32_t p : g.PointsInCell(c)) {
    core_in_cell += is_core[p];
  }
  if (core_in_cell > 0) {
    cell_core[c] = 1;
    csr->begin[c + 1] = core_in_cell;
  }
}

void FinishSparseCoreLayout(size_t dims, size_t num_cells,
                            SparseCoreCsr* csr) {
  for (size_t c = 0; c < num_cells; ++c) {
    csr->begin[c + 1] += csr->begin[c];
  }
  csr->idx.resize(csr->begin[num_cells]);  // lint:allow(hot-path-purity) one-shot CSR builder, sized exactly once per pass
  csr->coords.resize(static_cast<size_t>(csr->begin[num_cells]) * dims);  // lint:allow(hot-path-purity) one-shot CSR builder, sized exactly once per pass
}

void FillSparseCoreCell(const grid::Grid& g, uint32_t c,
                        const uint8_t* cell_dense, const uint8_t* cell_core,
                        const uint8_t* is_core, SparseCoreCsr* csr) {
  if (cell_dense[c] || !cell_core[c]) {
    return;
  }
  const size_t d = g.dims();
  uint32_t w = csr->begin[c];
  const uint32_t row_begin = g.CellBeginRow(c);
  const uint32_t row_end = row_begin + static_cast<uint32_t>(g.CellSize(c));
  for (uint32_t row = row_begin; row < row_end; ++row) {
    const uint32_t p = g.OriginalIndex(row);
    if (!is_core[p]) {
      continue;
    }
    csr->idx[w] = p;
    const auto coords = g.OrderedPoint(row);
    std::copy(coords.begin(), coords.end(),
              csr->coords.begin() + static_cast<size_t>(w) * d);
    ++w;
  }
}

uint64_t OutlierScanCell(const grid::Grid& g, const BoundKernels& kernels,
                         double eps2, bool scores, uint32_t c,
                         const uint8_t* cell_dense, const uint8_t* cell_core,
                         const uint8_t* is_core, const SparseCoreCsr& csr,
                         PointKind* kinds, double* core_distance,
                         CellScan* scan) {
  if (cell_core[c] && !scores) {
    return 0;  // Lemma 2: no point of a core cell is an outlier
  }
  const auto cell_points = g.PointsInCell(c);
  std::vector<uint32_t>& pending = scan->pending;
  pending.clear();
  for (uint32_t j = 0; j < cell_points.size(); ++j) {
    if (!is_core[cell_points[j]]) {
      pending.push_back(j);  // lint:allow(hot-path-purity) per-chunk scratch, capacity amortized across cells
    }
  }
  if (pending.empty()) {
    return 0;  // core points keep distance 0
  }
  std::vector<double>& best = scan->best;
  if (scores) {
    best.assign(cell_points.size(), kInf);  // lint:allow(hot-path-purity) per-chunk scratch, capacity amortized across cells
  }
  const size_t d = g.dims();
  const double* cell_block = g.CellBlock(c);
  size_t num_pending = pending.size();
  uint64_t distances = 0;
  scan->neighbors.ForEach(c, [&](grid::CellRun run) {
    for (uint32_t nc = run.begin; nc < run.end; ++nc) {
      if (!cell_core[nc]) {
        continue;
      }
      // Every point of a dense cell is core (grid block), while sparse
      // core cells use the packed phase-4 CSR coordinates.
      const bool dense = cell_dense[nc];
      const double* block = dense ? g.CellBlock(nc) : csr.CellBlock(nc, d);
      const size_t block_size = dense ? g.CellSize(nc) : csr.CellCount(nc);
      distances += block_size * num_pending;
      if (scores) {
        for (size_t i = 0; i < num_pending; ++i) {
          const uint32_t j = pending[i];
          best[j] = std::min(best[j], kernels.min_sqdist(cell_block + j * d,
                                                         block, block_size));
        }
        continue;
      }
      size_t kept = 0;
      for (size_t i = 0; i < num_pending; ++i) {
        const uint32_t j = pending[i];
        if (!kernels.any_within(cell_block + j * d, block, block_size,
                                eps2)) {
          pending[kept++] = j;
        }
      }
      num_pending = kept;
      if (num_pending == 0) {
        return false;
      }
    }
    return true;
  });
  // Without scores, the points still pending have no core point within
  // eps; with scores, every non-core point is still pending.
  for (size_t i = 0; i < num_pending; ++i) {
    const uint32_t j = pending[i];
    const uint32_t p = cell_points[j];
    if (!cell_core[c] && (!scores || !(best[j] <= eps2))) {
      kinds[p] = PointKind::kOutlier;
    }
    if (scores) {
      core_distance[p] = std::sqrt(best[j]);
    }
  }
  return distances;
}

}  // namespace dbscout::core::phases
