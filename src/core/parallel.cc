#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "common/timer.h"
#include "core/dbscout.h"
#include "core/phases/phase_kernels.h"
#include "core/phases/phase_recorder.h"
#include "dataflow/dataset.h"
#include "dataflow/pair_ops.h"
#include "grid/cell_coord.h"
#include "grid/grid.h"
#include "grid/neighbor_cells.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/distance_kernel.h"

namespace dbscout::core {
namespace {

using dataflow::Broadcast;
using dataflow::Dataset;
using dataflow::ExecutionContext;
using grid::CellCoord;
using grid::CellCoordHash;

/// (cell id, point id): the grid dataset G of Algorithm 1, keyed by the id
/// phase 2 numbers each cell with, and the records phases 3 and 5 emit to
/// neighbor cells.
using GridRecord = std::pair<uint32_t, uint32_t>;

// Copies the coordinates of `ids` into one contiguous row-major block so
// the grouped-join tasks can run the batched distance kernels; the gather
// is paid once per cell group, not once per pair.
void GatherCoords(const PointSet& pts, const std::vector<uint32_t>& ids,
                  size_t d, std::vector<double>* block) {
  block->resize(ids.size() * d);
  double* dst = block->data();
  for (uint32_t q : ids) {
    const auto v = pts[q];
    for (size_t k = 0; k < d; ++k) {
      *dst++ = v[k];
    }
  }
}

}  // namespace

Result<Detection> DetectParallel(const PointSet& points, const Params& params,
                                 ExecutionContext* ctx) {
  DBSCOUT_RETURN_IF_ERROR(params.Validate());
  if (params.compute_scores) {
    return Status::InvalidArgument(
        "compute_scores is supported by the sequential and shared-memory "
        "engines only (the dataflow engine's AND-reduction discards "
        "distances)");
  }
  const size_t d = points.dims();
  if (d < 1 || d > kMaxDims) {
    return Status::InvalidArgument(
        StrFormat("dims=%zu out of supported range [1, %zu]", d, kMaxDims));
  }
  // Batched distance kernels for the grouped-join tasks (the plain and
  // broadcast joins are pairwise record streams by structure and keep the
  // scalar per-pair distance). Bit-identical to the scalar loops.
  const simd::CountWithinFn count_within =
      simd::DispatchedKernels().count_within[d];
  const simd::AnyWithinFn any_within = simd::DispatchedKernels().any_within[d];
  WallTimer total_timer;
  const uint64_t shuffle_base = ctx->Summary().shuffled_records;

  Detection out;
  phases::PhaseRecorder recorder;
  recorder.AttachObservability(phases::kEngineParallel,
                               &obs::Registry::Global(), params.trace);
  // While tracing, also surface the per-worker partition tasks: each
  // dataflow stage task emits its own span from its worker thread. The
  // guard restores the context's previous collector on every exit path.
  struct CtxTraceGuard {
    ExecutionContext* ctx;
    obs::TraceCollector* prior;
    std::string prior_category;
    ~CtxTraceGuard() { ctx->AttachTrace(prior, std::move(prior_category)); }
  } ctx_trace_guard{ctx, ctx->trace(), ctx->trace_category()};
  if (params.trace != nullptr) {
    ctx->AttachTrace(params.trace, std::string(phases::kEngineParallel));
  }
  const size_t n = points.size();
  const double eps2 = params.eps * params.eps;
  const uint32_t min_pts = static_cast<uint32_t>(params.min_pts);
  const double side = params.eps / std::sqrt(static_cast<double>(d));
  const size_t parts = params.num_partitions == 0 ? ctx->default_partitions()
                                                  : params.num_partitions;

  // Input validation pass (the sequential Grid::Build performs the same
  // checks; here there is no Grid object, so validate up front).
  CellCoord coord;
  for (size_t i = 0; i < n; ++i) {
    DBSCOUT_RETURN_IF_ERROR(grid::CellOfPoint(points[i], side, &coord));
  }

  const PointSet* pts = &points;  // outlives every task of this call
  auto sqdist = [pts](uint32_t a, uint32_t b) {
    return PointSet::SquaredDistance((*pts)[a], (*pts)[b]);
  };

  // ---- Phase 1: grid definition (Algorithm 1). -------------------------
  // Only the point ids are materialized. Algorithm 1's (cell, point)
  // records are pipelined into phase 2's map side, as a Spark stage runs
  // its narrow maps fused: each task recomputes CellOfPoint where it needs
  // the cell, so no n-sized dataset keyed by CellCoord exists.
  Dataset<uint32_t> ids;
  {
    phases::ScopedPhase phase(&recorder, phases::kPhaseGrid);
    ids = Dataset<uint32_t>::Iota(ctx, static_cast<uint32_t>(n), parts);
    phase.records = n;
  }

  // ---- Phase 2: dense cell map construction (Algorithm 2). -------------
  // Each partition counts its points per cell, so at most #cells records
  // per partition reach the CountCells shuffle. The driver sorts the cells
  // it collects and numbers them in that order, as Grid::Build does, so
  // the ids do not depend on the partition count. The dense cell map is
  // then a byte per cell id, broadcast with the neighbor runs
  // (Definition 8) of the non-dense cells. Phase 3 emits the points of
  // non-dense cells to their neighbor cells, and phase 5 those of non-core
  // cells (all non-dense) to their core ones. G is keyed by cell id, so
  // every later record is (cell id, point), 8 bytes.
  Dataset<GridRecord> g;
  Broadcast<std::vector<uint8_t>> cell_dense;
  Broadcast<grid::NeighborCells> neighbors;
  {
    phases::ScopedPhase phase(&recorder, phases::kPhaseDenseCellMap);
    using CellCount = std::pair<CellCoord, uint32_t>;
    auto counts = ReduceByKey(
        ids.TransformPartitions<CellCount>(
            "PartitionCellCounts",
            [pts, side](const std::vector<uint32_t>& part,
                        std::vector<CellCount>* sink) {
              std::unordered_map<CellCoord, uint32_t, CellCoordHash> local;
              CellCoord cell;
              for (uint32_t i : part) {
                (void)grid::CellOfPoint((*pts)[i], side, &cell);  // validated
                ++local[cell];
              }
              sink->assign(local.begin(), local.end());
            }),
        [](uint32_t a, uint32_t b) { return a + b; }, parts, CellCoordHash(),
        "CountCells");
    std::vector<CellCount> cells = counts.Collect();
    std::sort(cells.begin(), cells.end());  // the coordinates are distinct
    std::unordered_map<CellCoord, uint32_t, CellCoordHash> id_map;
    std::vector<CellCoord> coords;  // cell id -> coordinates
    std::vector<uint8_t> dense, non_dense;
    for (const auto& [cell, count] : cells) {
      id_map.emplace(cell, static_cast<uint32_t>(coords.size()));
      coords.push_back(cell);
      const bool is_dense = phases::IsDense(count, min_pts);
      dense.push_back(is_dense);
      non_dense.push_back(!is_dense);
      out.num_dense_cells += is_dense;
    }
    neighbors = Broadcast<grid::NeighborCells>(
        grid::NeighborCells::Build(coords, non_dense, &ctx->pool()));
    out.num_cells = coords.size();
    phase.records = out.num_cells;
    cell_dense = Broadcast<std::vector<uint8_t>>(std::move(dense));
    Broadcast<decltype(id_map)> id_of(std::move(id_map));
    g = ids.Map(
        [pts, side, id_of](uint32_t i) {
          CellCoord cell;
          (void)grid::CellOfPoint((*pts)[i], side, &cell);  // validated
          return GridRecord(id_of->find(cell)->second, i);
        },
        "KeyByCellId");
    ids = Dataset<uint32_t>();  // every later stage reads G
  }

  // ---- Phase 3: core points identification (Algorithm 3). --------------
  std::vector<uint8_t> is_core(n, 0);
  {
    phases::ScopedPhase phase(&recorder, phases::kPhaseCorePoints);
    auto is_dense_cell = [cell_dense](const GridRecord& rec) {
      return phases::IsDenseCell(cell_dense->data(), rec.first);
    };
    // C_d: points of dense cells are core outright (Lemma 1).
    auto dense_core =
        g.Filter(is_dense_cell, "FilterDense")
            .Map([](const GridRecord& rec) { return rec.second; },
                 "DenseCoreIds");
    auto non_dense = g.Filter(
        [is_dense_cell](const GridRecord& rec) { return !is_dense_cell(rec); },
        "FilterNonDense");

    // Emit the points to check on every non-empty neighboring cell. The
    // paper's Algorithm 3 emits (N, (C, p)); since p determines its home
    // cell C, the records here carry only (N, p), halving shuffle volume.
    auto emit_to_neighbors = [neighbors](const GridRecord& rec,
                                         std::vector<GridRecord>* sink) {
      for (const grid::CellRun& run : neighbors->Of(rec.first)) {
        for (uint32_t nc = run.begin; nc < run.end; ++nc) {
          sink->push_back({nc, rec.second});
        }
      }
    };

    Dataset<std::pair<uint32_t, uint32_t>> contributions;  // (point, count)
    switch (params.join) {
      case JoinStrategy::kPlain: {
        auto to_check = non_dense.FlatMap<GridRecord>(
            emit_to_neighbors, "EmitToCheck");
        auto joined =
            Join(g, to_check, parts, std::hash<uint32_t>(), "JoinGrid");
        contributions = joined.Map(
            [&phase, sqdist, eps2](
                const std::pair<uint32_t, GridRecord>& rec) {
              phase.distances.fetch_add(1, std::memory_order_relaxed);
              const uint32_t q = rec.second.first;
              const uint32_t p = rec.second.second;
              return std::make_pair(p, sqdist(p, q) <= eps2 ? 1u : 0u);
            },
            "DistanceOnes");
        break;
      }
      case JoinStrategy::kGrouped: {
        auto to_check = non_dense.FlatMap<GridRecord>(
            emit_to_neighbors, "EmitToCheck");
        auto checks_grouped =
            GroupByKey(to_check, parts, std::hash<uint32_t>(), "GroupChecks");
        auto grid_grouped =
            GroupByKey(g, parts, std::hash<uint32_t>(), "GroupGrid");
        auto joined = Join(grid_grouped, checks_grouped, parts,
                           std::hash<uint32_t>(), "JoinGrouped");
        contributions =
            joined.FlatMap<std::pair<uint32_t, uint32_t>>(
                [&phase, pts, d, count_within, eps2, min_pts](
                    const std::pair<
                        uint32_t, std::pair<std::vector<uint32_t>,
                                            std::vector<uint32_t>>>& rec,
                    std::vector<std::pair<uint32_t, uint32_t>>* sink) {
                  const auto& cell_points = rec.second.first;
                  // Gather the cell's coordinates once, then run the
                  // batched kernel per point to check; early termination
                  // (SS III-G2) happens at kernel-batch granularity.
                  static thread_local std::vector<double> block;
                  GatherCoords(*pts, cell_points, d, &block);
                  uint64_t comparisons = 0;
                  for (uint32_t p : rec.second.second) {
                    comparisons += cell_points.size();
                    const uint32_t count =
                        count_within((*pts)[p].data(), block.data(),
                                     cell_points.size(), eps2, min_pts);
                    if (count > 0) {
                      sink->push_back({p, count});
                    }
                  }
                  phase.distances.fetch_add(comparisons,
                                            std::memory_order_relaxed);
                },
                "GroupedDistances");
        break;
      }
      case JoinStrategy::kBroadcast: {
        auto to_check = non_dense.FlatMap<GridRecord>(
            emit_to_neighbors, "EmitToCheck");
        auto local = CollectGrouped(to_check, std::hash<uint32_t>());
        Broadcast<decltype(local)> checks_by_cell(std::move(local));
        contributions =
            g.FlatMap<std::pair<uint32_t, uint32_t>>(
                [&phase, checks_by_cell, sqdist, eps2](
                    const GridRecord& rec,
                    std::vector<std::pair<uint32_t, uint32_t>>* sink) {
                  auto it = checks_by_cell->find(rec.first);
                  if (it == checks_by_cell->end()) {
                    return;
                  }
                  const uint32_t q = rec.second;
                  uint64_t comparisons = 0;
                  for (uint32_t p : it->second) {
                    ++comparisons;
                    if (sqdist(p, q) <= eps2) {
                      sink->push_back({p, 1u});
                    }
                  }
                  phase.distances.fetch_add(comparisons,
                                            std::memory_order_relaxed);
                },
                "BroadcastDistances");
        break;
      }
    }
    auto counts = ReduceByKey(
        contributions, [](uint32_t a, uint32_t b) { return a + b; }, parts,
        std::hash<uint32_t>(), "SumNeighbors");
    auto core_nd =
        counts
            .Filter([min_pts](const std::pair<uint32_t, uint32_t>& kv) {
              return phases::IsDense(kv.second, min_pts);
            })
            .Map([](const std::pair<uint32_t, uint32_t>& kv) {
              return kv.first;
            });
    // C = C_d UNION C_nd; collect the core flags to the driver.
    auto all_core = dense_core.Union(core_nd, "UnionCore");
    all_core.ForEach([&is_core](uint32_t p) { is_core[p] = 1; });
    phase.records = all_core.Count();
  }

  // ---- Phase 4: core cell map construction (Algorithm 4). --------------
  Broadcast<std::vector<uint8_t>> cell_core;
  Dataset<GridRecord> core_points;
  {
    phases::ScopedPhase phase(&recorder, phases::kPhaseCoreCellMap);
    Broadcast<std::vector<uint8_t>> core_flags(is_core);
    core_points = g.Filter(
        [core_flags](const GridRecord& rec) {
          return (*core_flags)[rec.second] != 0;
        },
        "FilterCorePoints");
    std::vector<uint8_t> core = *cell_dense;  // dense cells are core
    core_points.ForEach(
        [&core](const GridRecord& rec) { core[rec.first] = 1; });
    out.num_core_cells = std::count(core.begin(), core.end(), uint8_t{1});
    phase.records = out.num_core_cells;
    cell_core = Broadcast<std::vector<uint8_t>>(std::move(core));
  }

  // ---- Phase 5: outliers identification (Algorithm 5). -----------------
  std::vector<uint32_t> outliers;
  {
    phases::ScopedPhase phase(&recorder, phases::kPhaseOutliers);
    auto non_core = g.Filter(
        [cell_core](const GridRecord& rec) {
          return !phases::IsCoreCell(cell_core->data(), rec.first);
        },
        "FilterNonCore");
    // O_ncn: no neighboring core cell at all -> outright outliers.
    auto o_ncn =
        non_core
            .Filter(
                [cell_core, neighbors](const GridRecord& rec) {
                  for (const grid::CellRun& run : neighbors->Of(rec.first)) {
                    for (uint32_t nc = run.begin; nc < run.end; ++nc) {
                      if (phases::IsCoreCell(cell_core->data(), nc)) {
                        return false;
                      }
                    }
                  }
                  return true;
                },
                "FilterNoCoreNeighbor")
            .Map([](const GridRecord& rec) { return rec.second; });

    // Points of non-core cells, emitted on their neighboring *core* cells.
    auto emit_to_core_neighbors = [cell_core, neighbors](
                                      const GridRecord& rec,
                                      std::vector<GridRecord>* sink) {
      for (const grid::CellRun& run : neighbors->Of(rec.first)) {
        for (uint32_t nc = run.begin; nc < run.end; ++nc) {
          if (phases::IsCoreCell(cell_core->data(), nc)) {
            sink->push_back({nc, rec.second});
          }
        }
      }
    };

    Dataset<std::pair<uint32_t, uint8_t>> flags;  // (point, outlier flag)
    switch (params.join) {
      case JoinStrategy::kPlain: {
        auto to_check = non_core.FlatMap<GridRecord>(
            emit_to_core_neighbors, "EmitToCheck2");
        auto joined =
            Join(core_points, to_check, parts, std::hash<uint32_t>(),
                 "JoinCore");
        flags = joined.Map(
            [&phase, sqdist, eps2](
                const std::pair<uint32_t, GridRecord>& rec) {
              phase.distances.fetch_add(1, std::memory_order_relaxed);
              const uint32_t q = rec.second.first;   // core point
              const uint32_t p = rec.second.second;  // point to check
              return std::make_pair(
                  p, static_cast<uint8_t>(sqdist(p, q) > eps2 ? 1 : 0));
            },
            "OutlierFlags");
        break;
      }
      case JoinStrategy::kGrouped: {
        auto to_check = non_core.FlatMap<GridRecord>(
            emit_to_core_neighbors, "EmitToCheck2");
        auto checks_grouped =
            GroupByKey(to_check, parts, std::hash<uint32_t>(), "GroupChecks2");
        auto core_grouped =
            GroupByKey(core_points, parts, std::hash<uint32_t>(), "GroupCore");
        auto joined = Join(core_grouped, checks_grouped, parts,
                           std::hash<uint32_t>(), "JoinGrouped2");
        flags = joined.FlatMap<std::pair<uint32_t, uint8_t>>(
            [&phase, pts, d, any_within, eps2](
                const std::pair<uint32_t,
                                std::pair<std::vector<uint32_t>,
                                          std::vector<uint32_t>>>& rec,
                std::vector<std::pair<uint32_t, uint8_t>>* sink) {
              const auto& core_in_cell = rec.second.first;
              // Gather once, then one batched any-within query per point;
              // early termination (SS III-G2) at kernel-batch granularity.
              static thread_local std::vector<double> block;
              GatherCoords(*pts, core_in_cell, d, &block);
              uint64_t comparisons = 0;
              for (uint32_t p : rec.second.second) {
                comparisons += core_in_cell.size();
                const bool within =
                    any_within((*pts)[p].data(), block.data(),
                               core_in_cell.size(), eps2);
                sink->push_back({p, static_cast<uint8_t>(within ? 0 : 1)});
              }
              phase.distances.fetch_add(comparisons,
                                        std::memory_order_relaxed);
            },
            "GroupedFlags");
        break;
      }
      case JoinStrategy::kBroadcast: {
        auto to_check = non_core.FlatMap<GridRecord>(
            emit_to_core_neighbors, "EmitToCheck2");
        auto local = CollectGrouped(to_check, std::hash<uint32_t>());
        Broadcast<decltype(local)> checks_by_cell(std::move(local));
        flags = core_points.FlatMap<std::pair<uint32_t, uint8_t>>(
            [&phase, checks_by_cell, sqdist, eps2](
                const GridRecord& rec,
                std::vector<std::pair<uint32_t, uint8_t>>* sink) {
              auto it = checks_by_cell->find(rec.first);
              if (it == checks_by_cell->end()) {
                return;
              }
              const uint32_t q = rec.second;
              for (uint32_t p : it->second) {
                phase.distances.fetch_add(1, std::memory_order_relaxed);
                sink->push_back(
                    {p, static_cast<uint8_t>(sqdist(p, q) > eps2 ? 1 : 0)});
              }
            },
            "BroadcastFlags");
        break;
      }
    }
    auto reduced = ReduceByKey(
        flags, [](uint8_t a, uint8_t b) { return static_cast<uint8_t>(a & b); },
        parts, std::hash<uint32_t>(), "AndFlags");
    auto o_cn = reduced
                    .Filter([](const std::pair<uint32_t, uint8_t>& kv) {
                      return kv.second != 0;
                    })
                    .Map([](const std::pair<uint32_t, uint8_t>& kv) {
                      return kv.first;
                    });
    auto all = o_ncn.Union(o_cn, "UnionOutliers");
    outliers = all.Collect();
    phase.records = outliers.size();
  }

  // Finalize labels.
  std::sort(outliers.begin(), outliers.end());
  out.outliers = std::move(outliers);
  out.kinds.assign(n, PointKind::kBorder);
  for (size_t i = 0; i < n; ++i) {
    if (is_core[i]) {
      out.kinds[i] = PointKind::kCore;
      ++out.num_core;
    }
  }
  for (uint32_t p : out.outliers) {
    out.kinds[p] = PointKind::kOutlier;
  }
  out.num_border = n - out.num_core - out.outliers.size();
  out.phases = recorder.Take();
  out.shuffled_records = ctx->Summary().shuffled_records - shuffle_base;
  out.total_seconds = total_timer.ElapsedSeconds();
  return out;
}

}  // namespace dbscout::core
