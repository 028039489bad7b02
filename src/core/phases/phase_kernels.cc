#include "core/phases/phase_kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

std::vector<uint8_t> ScannedCells(const grid::Grid& g, uint32_t min_pts,
                                  bool scores) {
  std::vector<uint8_t> scan(g.num_cells(), 1);  // lint:allow(hot-path-purity) one-shot per-run mask, built once before the scans
  if (!scores) {
    for (uint32_t c = 0; c < g.num_cells(); ++c) {
      scan[c] = !IsDense(g.CellSize(c), min_pts);
    }
  }
  return scan;
}

uint64_t CoreScanCell(const grid::Grid& g, const grid::NeighborCells& neighbors,
                      const BoundKernels& kernels, double eps2,
                      uint32_t min_pts, uint32_t c, const uint8_t* cell_dense,
                      uint8_t* is_core) {
  const auto cell_points = g.PointsInCell(c);
  if (cell_dense[c]) {
    for (uint32_t p : cell_points) {
      is_core[p] = 1;
    }
    return 0;
  }
  const auto runs = neighbors.Of(c);
  const size_t d = g.dims();
  const double* cell_block = g.CellBlock(c);
  uint64_t distances = 0;
  for (size_t j = 0; j < cell_points.size(); ++j) {
    const double* pv = cell_block + j * d;
    uint32_t count = 0;
    for (const grid::CellRun& run : runs) {
      // The cells of a run are consecutive grid rows: one block.
      const size_t block_size =
          g.CellBeginRow(run.end) - g.CellBeginRow(run.begin);
      distances += block_size;
      count += kernels.count_within(pv, g.CellBlock(run.begin), block_size,
                                    eps2, min_pts - count);
      if (IsDense(count, min_pts)) {
        is_core[cell_points[j]] = 1;
        break;
      }
    }
  }
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

uint64_t OutlierScanCell(const grid::Grid& g,
                         const grid::NeighborCells& neighbors,
                         const BoundKernels& kernels, double eps2, bool scores,
                         uint32_t c, const uint8_t* cell_dense,
                         const uint8_t* cell_core, const uint8_t* is_core,
                         const SparseCoreCsr& csr, PointKind* kinds,
                         double* core_distance,
                         std::vector<uint32_t>* neighbor_scratch) {
  if (cell_core[c] && !scores) {
    return 0;  // Lemma 2: no point of a core cell is an outlier
  }
  // Keep the core cells among the neighbors without a branch per cell:
  // write every id, and step past it only when it is core.
  const auto runs = neighbors.Of(c);
  size_t num_neighbors = 0;
  for (const grid::CellRun& run : runs) {
    num_neighbors += run.end - run.begin;
  }
  std::vector<uint32_t>& core_neighbor_cells = *neighbor_scratch;
  core_neighbor_cells.resize(num_neighbors);  // lint:allow(hot-path-purity) caller-owned scratch, capacity amortized across cells
  size_t num_core = 0;
  for (const grid::CellRun& run : runs) {
    for (uint32_t nc = run.begin; nc < run.end; ++nc) {
      core_neighbor_cells[num_core] = nc;
      num_core += cell_core[nc] != 0;
    }
  }
  core_neighbor_cells.resize(num_core);  // lint:allow(hot-path-purity) shrinks, never allocates
  if (core_neighbor_cells.empty()) {
    // O_ncn: non-core cell with no core neighbor — all points outliers.
    for (uint32_t p : g.PointsInCell(c)) {
      kinds[p] = PointKind::kOutlier;
      if (scores) {
        core_distance[p] = kInf;
      }
    }
    return 0;
  }
  const size_t d = g.dims();
  const auto cell_points = g.PointsInCell(c);
  const double* cell_block = g.CellBlock(c);
  uint64_t distances = 0;
  for (size_t j = 0; j < cell_points.size(); ++j) {
    const uint32_t p = cell_points[j];
    if (is_core[p]) {
      continue;  // core points keep distance 0
    }
    const double* pv = cell_block + j * d;
    // One contiguous block per neighboring core cell: every point of a
    // dense cell is core (grid block), while sparse core cells use the
    // packed phase-4 CSR coordinates.
    bool outlier = true;
    double best = kInf;
    for (uint32_t nc : core_neighbor_cells) {
      const double* block;
      size_t block_size;
      if (cell_dense[nc]) {
        block = g.CellBlock(nc);
        block_size = g.CellSize(nc);
      } else {
        block = csr.CellBlock(nc, d);
        block_size = csr.CellCount(nc);
      }
      distances += block_size;
      if (scores) {
        best = std::min(best, kernels.min_sqdist(pv, block, block_size));
      } else if (kernels.any_within(pv, block, block_size, eps2)) {
        outlier = false;
        break;
      }
    }
    if (scores) {
      outlier = !(best <= eps2);
    }
    if (outlier && !cell_core[c]) {
      kinds[p] = PointKind::kOutlier;
    }
    if (scores) {
      core_distance[p] = std::sqrt(best);
    }
  }
  return distances;
}

}  // namespace dbscout::core::phases
