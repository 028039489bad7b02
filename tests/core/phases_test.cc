// Unit tests for the shared phase-kernel library: the single home of the
// Lemma 1/2 logic that every engine drives. These pin the cell-granular
// contracts (what each primitive reads and writes) independently of any
// engine's orchestration, and the cell ranges of RunPhases, the one phase
// 2-5 loop of the grid engines.
#include "core/phases/phase_kernels.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/phases/driver.h"
#include "core/phases/phase_recorder.h"
#include "grid/grid.h"
#include "grid/regions.h"
#include "testutil.h"

namespace dbscout::core::phases {
namespace {

// A 2D set with one dense cell, one sparse-core cell, and one isolated
// point, under eps = sqrt(2) (cell side 1.0) and minPts = 4:
//  - cell (0,0): 5 points -> dense, all core (Lemma 1);
//  - cell (1,1): 2 points adjacent to the dense mass -> core via neighbors;
//  - cell (9,9): 1 far point -> outlier via the O_ncn shortcut.
PointSet Sample() {
  PointSet ps(2);
  ps.Add({0.2, 0.2});
  ps.Add({0.4, 0.4});
  ps.Add({0.5, 0.5});
  ps.Add({0.6, 0.6});
  ps.Add({0.8, 0.8});
  ps.Add({1.2, 1.2});
  ps.Add({1.4, 1.4});
  ps.Add({9.5, 9.5});
  return ps;
}

constexpr double kEps2 = 2.0;
constexpr uint32_t kMinPts = 4;

struct Built {
  grid::Grid g;
  grid::SortedCells cells;  // what the cell scans walk
  BoundKernels kernels;
};

Built Build(const PointSet& ps) {
  auto g = grid::Grid::Build(ps, std::sqrt(2.0));
  EXPECT_TRUE(g.ok());
  grid::SortedCells cells(g->CellCoords());
  return {std::move(*g), std::move(cells), BindKernels(ps.dims())};
}

CellRange AllCells(const grid::Grid& g) {
  return {0, static_cast<uint32_t>(g.num_cells())};
}

// Phase 4 over every cell of `b`, as RunPhases composes it: the count
// pass, the prefix sum, then the fill pass. Returns the core cell count.
uint32_t BuildCoreCells(const Built& b, const uint8_t* cell_dense,
                        const uint8_t* is_core, uint8_t* cell_core,
                        SparseCoreCsr* csr) {
  const uint32_t num_cells = static_cast<uint32_t>(b.g.num_cells());
  csr->begin.assign(num_cells + 1, 0);
  for (uint32_t c = 0; c < num_cells; ++c) {
    CountCoreCell(b.g, c, cell_dense, is_core, cell_core, csr);
  }
  FinishSparseCoreLayout(b.g.dims(), num_cells, csr);
  uint32_t num_core_cells = 0;
  for (uint32_t c = 0; c < num_cells; ++c) {
    FillSparseCoreCell(b.g, c, cell_dense, cell_core, is_core, csr);
    num_core_cells += cell_core[c];
  }
  return num_core_cells;
}

TEST(PhasesTest, DensityPredicates) {
  EXPECT_FALSE(IsDense(0, 1));
  EXPECT_TRUE(IsDense(1, 1));
  EXPECT_FALSE(IsDense(4, 5));
  EXPECT_TRUE(IsDense(5, 5));
  EXPECT_TRUE(IsDense(6, 5));
  // The streaming variant fires exactly once, on the crossing increment.
  EXPECT_FALSE(CrossesDensityThreshold(4, 5));
  EXPECT_TRUE(CrossesDensityThreshold(5, 5));
  EXPECT_FALSE(CrossesDensityThreshold(6, 5));
}

TEST(PhasesTest, CanonicalPhaseNames) {
  EXPECT_EQ(kPhaseGrid, "grid");
  EXPECT_EQ(kPhaseDenseCellMap, "dense_cell_map");
  EXPECT_EQ(kPhaseCorePoints, "core_points");
  EXPECT_EQ(kPhaseCoreCellMap, "core_cell_map");
  EXPECT_EQ(kPhaseOutliers, "outliers");
}

TEST(PhasesTest, ClassifyDenseCellsCountsAndFlags) {
  const PointSet ps = Sample();
  Built b = Build(ps);
  std::vector<uint8_t> cell_dense(b.g.num_cells(), 0xFF);
  ClassifyDenseCells(b.g, kMinPts, AllCells(b.g), cell_dense.data());
  uint32_t set = 0;
  for (uint32_t c = 0; c < b.g.num_cells(); ++c) {
    EXPECT_TRUE(cell_dense[c] == 0 || cell_dense[c] == 1);  // fully rewritten
    set += cell_dense[c];
    EXPECT_EQ(cell_dense[c] == 1, IsDense(b.g.CellSize(c), kMinPts));
  }
  EXPECT_EQ(set, 1u);
  // A range writes only its own cells.
  std::vector<uint8_t> ranged(b.g.num_cells(), 0xFF);
  ClassifyDenseCells(b.g, kMinPts, {1, 2}, ranged.data());
  for (uint32_t c = 0; c < b.g.num_cells(); ++c) {
    EXPECT_EQ(ranged[c], c == 1 ? cell_dense[c] : 0xFF) << "cell " << c;
  }
}

TEST(PhasesTest, CoreScanMatchesBruteForce) {
  const PointSet ps = Sample();
  Built b = Build(ps);
  std::vector<uint8_t> cell_dense(b.g.num_cells(), 0);
  ClassifyDenseCells(b.g, kMinPts, AllCells(b.g), cell_dense.data());
  std::vector<uint8_t> is_core(ps.size(), 0);
  CellScan scan(b.cells);
  uint64_t distances = 0;
  for (uint32_t c = 0; c < b.g.num_cells(); ++c) {
    distances += CoreScanCell(b.g, b.kernels, kEps2, kMinPts, c,
                              cell_dense.data(), is_core.data(), &scan);
  }
  // Dense cells contribute no distance work (Lemma 1 short-circuit).
  EXPECT_GT(distances, 0u);
  const auto kinds = testing::BruteForceKinds(ps, std::sqrt(2.0), kMinPts);
  for (size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(is_core[i] == 1, kinds[i] == PointKind::kCore) << "point " << i;
  }
}

TEST(PhasesTest, SparseCoreCsrLayout) {
  const PointSet ps = Sample();
  Built b = Build(ps);
  std::vector<uint8_t> cell_dense(b.g.num_cells(), 0);
  ClassifyDenseCells(b.g, kMinPts, AllCells(b.g), cell_dense.data());
  std::vector<uint8_t> is_core(ps.size(), 0);
  CellScan scan(b.cells);
  for (uint32_t c = 0; c < b.g.num_cells(); ++c) {
    CoreScanCell(b.g, b.kernels, kEps2, kMinPts, c, cell_dense.data(),
                 is_core.data(), &scan);
  }
  std::vector<uint8_t> cell_core(b.g.num_cells(), 0);
  SparseCoreCsr csr;
  const uint32_t num_core_cells = BuildCoreCells(
      b, cell_dense.data(), is_core.data(), cell_core.data(), &csr);
  EXPECT_EQ(num_core_cells, 2u);  // the dense cell and the sparse-core cell
  ASSERT_EQ(csr.begin.size(), b.g.num_cells() + 1);
  // Dense cells never hold CSR entries; sparse core cells hold exactly
  // their core points, with packed coordinates matching the point set.
  size_t total = 0;
  for (uint32_t c = 0; c < b.g.num_cells(); ++c) {
    const size_t count = csr.CellCount(c);
    if (cell_dense[c]) {
      EXPECT_EQ(count, 0u);
    }
    const double* block = csr.CellBlock(c, ps.dims());
    for (size_t j = 0; j < count; ++j) {
      const uint32_t p = csr.idx[csr.begin[c] + j];
      EXPECT_TRUE(is_core[p]);
      for (size_t k = 0; k < ps.dims(); ++k) {
        EXPECT_EQ(block[j * ps.dims() + k], ps[p][k]);
      }
    }
    total += count;
  }
  EXPECT_EQ(total, csr.idx.size());
  EXPECT_EQ(csr.coords.size(), csr.idx.size() * ps.dims());
  EXPECT_EQ(total, 2u);  // the two core points of cell (1,1)
}

TEST(PhasesTest, OutlierScanAppliesLemmaTwoAndOncn) {
  const PointSet ps = Sample();
  Built b = Build(ps);
  std::vector<uint8_t> cell_dense(b.g.num_cells(), 0);
  ClassifyDenseCells(b.g, kMinPts, AllCells(b.g), cell_dense.data());
  std::vector<uint8_t> is_core(ps.size(), 0);
  CellScan scan(b.cells);
  for (uint32_t c = 0; c < b.g.num_cells(); ++c) {
    CoreScanCell(b.g, b.kernels, kEps2, kMinPts, c, cell_dense.data(),
                 is_core.data(), &scan);
  }
  std::vector<uint8_t> cell_core(b.g.num_cells(), 0);
  SparseCoreCsr csr;
  BuildCoreCells(b, cell_dense.data(), is_core.data(), cell_core.data(), &csr);
  std::vector<PointKind> kinds(ps.size(), PointKind::kBorder);
  uint64_t distances = 0;
  for (uint32_t c = 0; c < b.g.num_cells(); ++c) {
    distances += OutlierScanCell(b.g, b.kernels, kEps2, /*scores=*/false, c,
                                 cell_dense.data(), cell_core.data(),
                                 is_core.data(), csr, kinds.data(), nullptr,
                                 &scan);
  }
  // The isolated point resolves through O_ncn: no distances were needed,
  // because every cell is either core (skipped, Lemma 2) or has no core
  // neighbor at all.
  EXPECT_EQ(distances, 0u);
  const auto expected = testing::BruteForceKinds(ps, std::sqrt(2.0), kMinPts);
  for (size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(kinds[i] == PointKind::kOutlier,
              expected[i] == PointKind::kOutlier)
        << "point " << i;
  }
}

TEST(PhasesTest, OutlierScanScoreModeComputesDistances) {
  const PointSet ps = Sample();
  Built b = Build(ps);
  std::vector<uint8_t> cell_dense(b.g.num_cells(), 0);
  ClassifyDenseCells(b.g, kMinPts, AllCells(b.g), cell_dense.data());
  std::vector<uint8_t> is_core(ps.size(), 0);
  CellScan scan(b.cells);
  for (uint32_t c = 0; c < b.g.num_cells(); ++c) {
    CoreScanCell(b.g, b.kernels, kEps2, kMinPts, c, cell_dense.data(),
                 is_core.data(), &scan);
  }
  std::vector<uint8_t> cell_core(b.g.num_cells(), 0);
  SparseCoreCsr csr;
  BuildCoreCells(b, cell_dense.data(), is_core.data(), cell_core.data(), &csr);
  std::vector<PointKind> kinds(ps.size(), PointKind::kBorder);
  std::vector<double> core_distance(ps.size(), 0.0);
  for (uint32_t c = 0; c < b.g.num_cells(); ++c) {
    OutlierScanCell(b.g, b.kernels, kEps2, /*scores=*/true, c,
                    cell_dense.data(), cell_core.data(), is_core.data(), csr,
                    kinds.data(), core_distance.data(), &scan);
  }
  for (size_t i = 0; i < ps.size(); ++i) {
    if (is_core[i]) {
      EXPECT_EQ(core_distance[i], 0.0) << "core point " << i;
      continue;
    }
    // Non-core: exact distance to the nearest core point when within eps
    // (any such point lies in a neighboring cell, so the kernel saw it);
    // beyond eps the kernel only guarantees a value > eps — O_ncn points
    // report inf without any distance work.
    double best = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < ps.size(); ++j) {
      if (is_core[j]) {
        best = std::min(best, PointSet::SquaredDistance(ps[i], ps[j]));
      }
    }
    if (best <= kEps2) {
      EXPECT_EQ(core_distance[i], std::sqrt(best)) << "point " << i;
    } else {
      EXPECT_GT(core_distance[i], std::sqrt(kEps2)) << "point " << i;
    }
  }
}

// The stripes of the out-of-core engine: a stripe's grid holds only the
// points within HaloSlabs(d) slabs of its owned slab band, phases 2-4 run
// over the band plus the first halo ring and phase 5 over the band. Its
// owned points must get the verdicts of a run over the whole grid
// (Lemmas 1-2), inline and on a pool.
TEST(PhasesTest, RunPhasesOverStripeBandsMatchesTheFullRun) {
  Rng rng(17);
  const PointSet ps = testing::ClusteredPoints(&rng, 3000, 2, 4, 0.5);
  const double eps = 2.0;
  const uint32_t min_pts = 8;
  auto full_grid = grid::Grid::Build(ps, eps);
  ASSERT_TRUE(full_grid.ok());
  PhaseRecorder recorder;
  const PhaseResult full =
      RunPhases(*full_grid, AllCells(*full_grid), AllCells(*full_grid), eps,
                min_pts, /*scores=*/false, nullptr, WallTimer(), &recorder);
  const int64_t radius = grid::SlabReach(ps.dims());
  const int64_t halo = grid::HaloSlabs(ps.dims());
  const auto slab_of = [&](uint32_t p) {
    return full_grid->CoordOf(full_grid->CellIdOfPoint(p))[0];
  };
  const int64_t first_slab = full_grid->CellCoords().front()[0];
  const int64_t last_slab = full_grid->CellCoords().back()[0];

  ThreadPool pool(2);
  size_t owned_points = 0;
  size_t core = 0;
  size_t outliers = 0;
  uint32_t dense_cells = 0;
  for (int64_t slab_lo = first_slab; slab_lo <= last_slab; slab_lo += 3) {
    const int64_t slab_hi = slab_lo + 2;
    // The stripe's points, as pass 1 spills them, with their global ids.
    PointSet local(ps.dims());
    std::vector<uint32_t> gids;
    for (uint32_t p = 0; p < ps.size(); ++p) {
      if (slab_of(p) >= slab_lo - halo && slab_of(p) <= slab_hi + halo) {
        local.Add(ps[p]);
        gids.push_back(p);
      }
    }
    auto g = grid::Grid::Build(local, eps);
    ASSERT_TRUE(g.ok());
    const auto cells = g->CellCoords();
    const auto first_at_or_after = [&](int64_t slab) {
      return static_cast<uint32_t>(
          std::partition_point(cells.begin(), cells.end(),
                               [slab](const grid::CellCoord& c) {
                                 return c[0] < slab;
                               }) -
          cells.begin());
    };
    const CellRange eligible{first_at_or_after(slab_lo - radius),
                             first_at_or_after(slab_hi + radius + 1)};
    const CellRange owned{first_at_or_after(slab_lo),
                          first_at_or_after(slab_hi + 1)};
    for (ThreadPool* run_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
      PhaseRecorder stripe_recorder;
      const PhaseResult band =
          RunPhases(*g, eligible, owned, eps, min_pts, /*scores=*/false,
                    run_pool, WallTimer(), &stripe_recorder);
      for (uint32_t c = owned.begin; c < owned.end; ++c) {
        for (uint32_t p : g->PointsInCell(c)) {
          ASSERT_EQ(band.is_core[p], full.is_core[gids[p]]) << gids[p];
          ASSERT_EQ(band.kinds[p], full.kinds[gids[p]]) << gids[p];
        }
      }
      if (run_pool == nullptr) {
        dense_cells += band.num_dense_cells;
        for (uint32_t c = owned.begin; c < owned.end; ++c) {
          for (uint32_t p : g->PointsInCell(c)) {
            ++owned_points;
            core += band.is_core[p];
            outliers += band.kinds[p] == PointKind::kOutlier;
          }
        }
      }
    }
  }
  // Every point is owned by exactly one band, and the bands hold every
  // kind of verdict.
  EXPECT_EQ(owned_points, ps.size());
  EXPECT_EQ(dense_cells, full.num_dense_cells);
  EXPECT_GT(dense_cells, 0u);
  EXPECT_GT(core, 0u);
  EXPECT_GT(outliers, 0u);
}

// A pool claims cells in chunks, and a chunk may start in the middle of a
// pencil (the cells sharing their first d-1 coordinates), where its
// neighbor cursor starts afresh. A pencil far longer than a chunk must
// give the same verdicts, distances and distance counters as one inline
// pass, with and without scores.
TEST(PhasesTest, PencilSplitAcrossPoolChunksMatchesTheInlineRun) {
  Rng rng(29);
  // Three columns of cells one side wide, 200 sides long: a few points per
  // cell, with gaps, so the long pencils hold core, border and outlier
  // points.
  const double eps = 1.0;
  const double side = eps / std::sqrt(2.0);
  PointSet ps(2);
  for (int column = 0; column < 3; ++column) {
    for (int i = 0; i < 150; ++i) {
      const double y = rng.Uniform(0.0, 200.0 * side);
      if (std::fmod(y, 40.0 * side) < 4.0 * side) {
        continue;  // a gap every 40 cells
      }
      ps.Add({(column + rng.Uniform(0.0, 1.0)) * side, y});
    }
  }
  auto g = grid::Grid::Build(ps, eps);
  ASSERT_TRUE(g.ok());
  size_t longest = 0;
  for (uint32_t c = 0; c < g->num_cells();) {
    uint32_t end = c;
    while (end < g->num_cells() && g->CoordOf(end)[0] == g->CoordOf(c)[0]) {
      ++end;
    }
    longest = std::max<size_t>(longest, end - c);
    c = end;
  }
  ASSERT_GT(longest, 64u);  // so a chunk of 32 cells starts inside it
  const uint32_t min_pts = 4;
  ThreadPool pool(3);
  for (bool scores : {false, true}) {
    PhaseRecorder inline_recorder;
    PhaseRecorder pool_recorder;
    const PhaseResult inline_run =
        RunPhases(*g, AllCells(*g), AllCells(*g), eps, min_pts, scores,
                  nullptr, WallTimer(), &inline_recorder);
    const PhaseResult pool_run =
        RunPhases(*g, AllCells(*g), AllCells(*g), eps, min_pts, scores, &pool,
                  WallTimer(), &pool_recorder);
    EXPECT_EQ(pool_run.is_core, inline_run.is_core);
    EXPECT_EQ(pool_run.kinds, inline_run.kinds);
    EXPECT_EQ(pool_run.core_distance, inline_run.core_distance);
    const auto& rows = inline_recorder.phases();
    ASSERT_EQ(pool_recorder.phases().size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(pool_recorder.phases()[i].distance_computations,
                rows[i].distance_computations)
          << rows[i].name << " scores=" << scores;
    }
    // The verdicts are the exact ones, of every kind.
    const auto expected = testing::BruteForceKinds(ps, eps, min_pts);
    size_t core = 0;
    size_t outliers = 0;
    for (uint32_t p = 0; p < ps.size(); ++p) {
      ASSERT_EQ(inline_run.is_core[p] == 1, expected[p] == PointKind::kCore)
          << p;
      ASSERT_EQ(inline_run.kinds[p] == PointKind::kOutlier,
                expected[p] == PointKind::kOutlier)
          << p;
      core += inline_run.is_core[p];
      outliers += inline_run.kinds[p] == PointKind::kOutlier;
    }
    EXPECT_GT(core, 0u);
    EXPECT_GT(outliers, 0u);
    EXPECT_LT(core + outliers, ps.size());  // border points too
  }
}

TEST(PhasesTest, RecorderAccumulatesInFirstCallOrder) {
  PhaseRecorder recorder;
  recorder.Accumulate(kPhaseGrid, 0.5, 0, 10);
  recorder.Accumulate(kPhaseCorePoints, 1.0, 100, 10);
  recorder.Accumulate(kPhaseGrid, 0.25, 0, 5);
  const auto& rows = recorder.phases();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, kPhaseGrid);
  EXPECT_DOUBLE_EQ(rows[0].seconds, 0.75);
  EXPECT_EQ(rows[0].records, 15u);
  EXPECT_EQ(rows[1].name, kPhaseCorePoints);
  EXPECT_EQ(rows[1].distance_computations, 100u);
}

TEST(PhasesTest, CanonicalEngineNames) {
  EXPECT_EQ(kEngineSequential, "sequential");
  EXPECT_EQ(kEngineSharedMemory, "shared_memory");
  EXPECT_EQ(kEngineParallel, "parallel");
  EXPECT_EQ(kEngineExternal, "external");
  EXPECT_EQ(kEngineIncremental, "incremental");
}

TEST(PhasesTest, AttachedRecorderPublishesMetricsAndSpans) {
  obs::Registry registry;
  obs::TraceCollector trace;
  PhaseRecorder recorder;
  recorder.AttachObservability(kEngineExternal, &registry, &trace);
  recorder.Accumulate(kPhaseGrid, 0.5, 10, 100);
  recorder.Accumulate(kPhaseGrid, 0.25, 5, 50);  // second stripe, same row
  // One merged row, but one span and one metric publication per call.
  ASSERT_EQ(recorder.phases().size(), 1u);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.Spans()[0].name, kPhaseGrid);
  EXPECT_EQ(trace.Spans()[0].cat, kEngineExternal);
  EXPECT_EQ(trace.Spans()[1].distance_computations, 5u);
  bool saw_hist = false;
  bool saw_counter = false;
  for (const auto& family : registry.Snapshot()) {
    if (family.name == "dbscout_phase_seconds") {
      ASSERT_EQ(family.series.size(), 1u);
      EXPECT_EQ(family.series[0].histogram.count, 2u);
      EXPECT_NEAR(family.series[0].histogram.sum, 0.75, 1e-6);
      saw_hist = true;
    }
    if (family.name == "dbscout_phase_distance_computations_total") {
      ASSERT_EQ(family.series.size(), 1u);
      EXPECT_EQ(family.series[0].counter, 15u);
      EXPECT_EQ(family.series[0].labels,
                (obs::Labels{{"engine", "external"}, {"phase", "grid"}}));
      saw_counter = true;
    }
  }
  EXPECT_TRUE(saw_hist);
  EXPECT_TRUE(saw_counter);
}

TEST(PhasesTest, UnattachedRecorderPublishesNothing) {
  // No registry / trace attached: Accumulate only builds rows.
  PhaseRecorder recorder;
  recorder.Accumulate(kPhaseGrid, 0.0, 1, 2);
  recorder.Accumulate(kPhaseOutliers, 0.1, 3, 4);
  EXPECT_EQ(recorder.phases().size(), 2u);
}

TEST(PhasesTest, ScopedPhaseRecordsOnDestruction) {
  PhaseRecorder recorder;
  {
    ScopedPhase phase(&recorder, kPhaseOutliers);
    phase.distances.fetch_add(7);
    phase.records.fetch_add(3);
    EXPECT_TRUE(recorder.phases().empty());
  }
  ASSERT_EQ(recorder.phases().size(), 1u);
  EXPECT_EQ(recorder.phases()[0].name, kPhaseOutliers);
  EXPECT_EQ(recorder.phases()[0].distance_computations, 7u);
  EXPECT_EQ(recorder.phases()[0].records, 3u);
}

}  // namespace
}  // namespace dbscout::core::phases
