#ifndef DBSCOUT_CORE_PHASES_PHASE_KERNELS_H_
#define DBSCOUT_CORE_PHASES_PHASE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/detection.h"
#include "grid/grid.h"
#include "grid/neighbor_cells.h"
#include "simd/distance_kernel.h"

/// The single home of the Lemma 1/2 phase logic. Every execution strategy
/// (sequential, shared-memory pool, dataflow partitions, out-of-core
/// stripes, incremental inserts) drives the cell-granular primitives in
/// this library instead of carrying its own copy of the density tests,
/// neighbor-cell scans, and core-sublist layouts. A correctness or perf
/// change to the hot path lands here, once; the `phase-logic-locality`
/// rule of tools/lint_invariants.py enforces that the decision tokens do
/// not reappear in the engines.
namespace dbscout::core::phases {

// Canonical phase names. Every engine reports its PhaseStats under these
// names (in this order, when the phase applies) so runs are comparable
// across engines.
inline constexpr std::string_view kPhaseGrid = "grid";
inline constexpr std::string_view kPhaseDenseCellMap = "dense_cell_map";
inline constexpr std::string_view kPhaseCorePoints = "core_points";
inline constexpr std::string_view kPhaseCoreCellMap = "core_cell_map";
inline constexpr std::string_view kPhaseOutliers = "outliers";

// Canonical engine names for the observability layer: metric `engine`
// labels and trace-span categories use these, so dashboards and traces
// line up across engines.
inline constexpr std::string_view kEngineSequential = "sequential";
inline constexpr std::string_view kEngineSharedMemory = "shared_memory";
inline constexpr std::string_view kEngineParallel = "parallel";
inline constexpr std::string_view kEngineExternal = "external";
inline constexpr std::string_view kEngineIncremental = "incremental";

/// The Lemma 1 density test — the one place `count >= minPts` is decided.
/// `count` includes the point itself (Definition 2).
inline bool IsDense(uint64_t count, uint32_t min_pts) {
  return count >= min_pts;
}

/// Streaming variant of the density test: true exactly when an increment
/// moved a neighbor count onto the minPts threshold (the non-core -> core
/// transition of the incremental detector; counts only ever grow, so the
/// threshold is crossed at most once per point).
inline bool CrossesDensityThreshold(uint32_t new_count, uint32_t min_pts) {
  return new_count == min_pts;
}

/// Dense-cell membership of cell id `c` in Algorithm 2's per-cell verdicts
/// (ClassifyDenseCells's output, or the dataflow engine's broadcast copy).
inline bool IsDenseCell(const uint8_t* cell_dense, uint32_t c) {
  return cell_dense[c] != 0;
}

/// Core-cell membership of cell id `c` in Algorithm 4's per-cell verdicts,
/// where dense cells are core too (Lemma 2's precondition).
inline bool IsCoreCell(const uint8_t* cell_core, uint32_t c) {
  return cell_core[c] != 0;
}

/// The batched one-point-vs-block distance primitives bound to one
/// dimensionality (function pointers resolved once per detection, not once
/// per call). Bit-identical across the scalar and AVX2 variants, so every
/// engine built on them produces the same outlier set.
struct BoundKernels {
  simd::CountWithinFn count_within;
  simd::AnyWithinFn any_within;
  simd::MinSqDistFn min_sqdist;
  simd::WithinFlagsFn within_flags;
};

/// Binds the dispatched kernel table at `dims` (must be in
/// [0, simd::kKernelMaxDims]; Grid::Build has validated this).
BoundKernels BindKernels(size_t dims);

/// A half-open range [begin, end) of cell ids. Cell ids ascend with the
/// cell coordinates, so a range of dim-0 slabs is a range of ids.
struct CellRange {
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// Phase 2 (Algorithm 2): classifies the cells in `cells` by local point
/// count, writing cell_dense[c] for each of them; the other entries are
/// left as they are. Every point of a dense cell is core (Lemma 1).
void ClassifyDenseCells(const grid::Grid& g, uint32_t min_pts,
                        CellRange cells, uint8_t* cell_dense);

/// What one chunk of phase-3 or phase-5 cell scans carries from cell to
/// cell: the nearest-first neighbor cursor over the grid's cells, and
/// per-point scratch of the cell being scanned. Never shared between
/// threads.
struct CellScan {
  explicit CellScan(const grid::SortedCells& cells)
      : neighbors(cells, grid::NeighborCursor::Order::kNearestFirst) {}

  grid::NeighborCursor neighbors;
  std::vector<uint32_t> pending;  // the cell's unsettled points (positions)
  std::vector<uint32_t> counts;   // phase 3: neighbors found, by position
  std::vector<double> best;       // phase 5: nearest core sq-distance
};

/// Phase 3 (Algorithm 3): core-point scan of one cell. Dense cells mark
/// every point core outright. Points of sparse cells count neighbors
/// within eps across the occupied neighbor cells, which `scan`'s cursor
/// hands out nearest pencil first, one run of consecutive cells per
/// neighbor pencil: the cells of a run are consecutive grid rows, so each
/// run is one contiguous block. The scan is cell-major: per run, one
/// capped count_within call per point still below minPts. A point settles
/// when its count reaches minPts (the sequential analogue of the
/// grouped-join optimization, SS III-G2), and the scan stops at the first
/// run after which every point of the cell has settled; a kernel call may
/// also stop inside its block, every simd::kKernelBatch points.
/// Writes only is_core[p] for p in cell `c` (race-free under per-cell
/// parallelism). Returns the number of distance computations submitted:
/// each call's whole block, so it is an upper bound on the distances the
/// kernel evaluates.
uint64_t CoreScanCell(const grid::Grid& g, const BoundKernels& kernels,
                      double eps2, uint32_t min_pts, uint32_t c,
                      const uint8_t* cell_dense, uint8_t* is_core,
                      CellScan* scan);

/// Phase 4 output: flat CSR of the core points of *sparse* core cells
/// (offsets + original indices + packed row-major coordinates), so the
/// phase-5 scans over sparse core sublists are contiguous kernel blocks,
/// exactly like dense-cell grid blocks. Dense cells need no entry: their
/// grid block already is their core sublist (Lemma 1).
struct SparseCoreCsr {
  std::vector<uint32_t> begin;  // size num_cells + 1
  std::vector<uint32_t> idx;    // original point indices, grid row order
  std::vector<double> coords;   // idx.size() x dims, row-major

  size_t CellCount(uint32_t c) const { return begin[c + 1] - begin[c]; }
  const double* CellBlock(uint32_t c, size_t dims) const {
    return coords.data() + static_cast<size_t>(begin[c]) * dims;
  }
};

/// Phase 4, step 1 of 3 (parallel-safe per cell): classifies cell `c` as
/// core and records its sparse-core count in csr->begin[c + 1]. A cell is
/// core when it contains a core point; dense cells are core by Lemma 1.
/// csr->begin must be pre-sized to num_cells + 1 (zeroed).
void CountCoreCell(const grid::Grid& g, uint32_t c, const uint8_t* cell_dense,
                   const uint8_t* is_core, uint8_t* cell_core,
                   SparseCoreCsr* csr);

/// Phase 4, step 2 of 3 (sequential): prefix-sums the per-cell counts and
/// allocates idx/coords.
void FinishSparseCoreLayout(size_t dims, size_t num_cells, SparseCoreCsr* csr);

/// Phase 4, step 3 of 3 (parallel-safe per cell): fills cell `c`'s CSR
/// slice — core-point indices in ascending grid-row order plus their
/// packed coordinates. No-op for dense or non-core cells.
void FillSparseCoreCell(const grid::Grid& g, uint32_t c,
                        const uint8_t* cell_dense, const uint8_t* cell_core,
                        const uint8_t* is_core, SparseCoreCsr* csr);

/// Phase 5 (Algorithm 5): outlier scan of one cell. No point of a core
/// cell is an outlier (Lemma 2), so core cells are skipped outright unless
/// `scores` is set. Otherwise the cell's non-core points are scanned
/// against the core cells among its neighbors, which `scan`'s cursor hands
/// out as for CoreScanCell; each core neighbor cell is one contiguous
/// block (a dense cell's grid block, a sparse core cell's phase-4 CSR
/// slice). A point settles at its first core point within eps, and the
/// scan stops once every non-core point has settled. A point of a non-core
/// cell that never settles is an outlier; when the cell has no core
/// neighbor at all (O_ncn), that takes no distance work. With `scores`,
/// nothing settles early: the minimum core squared-distance is tracked for
/// every non-core point over every core neighbor (core_distance must then
/// be non-null, n entries; kinds entries of core cells' border points stay
/// untouched by the decision but get their distances, and a point with no
/// core neighbor gets infinity). Writes only kinds/core_distance entries of
/// cell `c`'s points; kinds must be pre-initialized to PointKind::kBorder.
/// Returns the number of distance computations submitted, one block per
/// call.
uint64_t OutlierScanCell(const grid::Grid& g, const BoundKernels& kernels,
                         double eps2, bool scores, uint32_t c,
                         const uint8_t* cell_dense, const uint8_t* cell_core,
                         const uint8_t* is_core, const SparseCoreCsr& csr,
                         PointKind* kinds, double* core_distance,
                         CellScan* scan);

}  // namespace dbscout::core::phases

#endif  // DBSCOUT_CORE_PHASES_PHASE_KERNELS_H_
