#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>
#include <vector>

#include "common/key_table.h"
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

/// The stage names of one phase's distance join. Each strategy records
/// only its own stages, then `reduce`.
struct JoinStages {
  const char* plain_join;
  const char* group_checks;
  const char* group_targets;
  const char* grouped_join;
  const char* broadcast_checks;
  const char* reduce;
};

/// The distance join of phases 3 and 5 (SS III-G), one realization per
/// strategy. Each record (c, p) of `to_emit` goes to every neighbor cell nc
/// of c that `accept(nc)` admits, as (nc, p). The paper's algorithms emit
/// (N, (C, p)); since p determines its home cell C, the records carry only
/// (N, p), halving shuffle volume. The emit is fused into the stage that
/// reads it, so these records are never materialized. Each such p is
/// compared with every point q of `targets` in cell nc:
///  - kPlain joins the emitted records with `targets` record by record and
///    takes `pair_value(p, q)` per pair;
///  - kGrouped groups both sides by cell, joins the groups (moving them,
///    not copying), gathers each target cell's coordinates once and takes
///    `group_value(p's coords, block, count)` per point to check, so early
///    termination (SS III-G2) happens inside the batched kernel;
///  - kBroadcast collects the emitted records on the driver, grouped by
///    cell, and takes `pair_value` while streaming `targets` past them.
/// Values `keep` rejects are not sent on; the rest are combined per point
/// with `reduce`, in a stage that also runs the per-pair or per-group step.
/// Every comparison is added to `*distances`.
template <typename V, typename Accept, typename PairValue,
          typename GroupValue, typename Keep, typename Reduce>
Dataset<std::pair<uint32_t, V>> DistanceJoin(
    JoinStrategy join, const JoinStages& stages, const PointSet* pts,
    size_t parts, const Broadcast<grid::NeighborCells>& neighbors,
    const Dataset<GridRecord>& to_emit, Dataset<GridRecord> targets,
    Accept accept, PairValue pair_value, GroupValue group_value, Keep keep,
    Reduce reduce, std::atomic<uint64_t>* distances) {
  using Value = std::pair<uint32_t, V>;
  auto to_check = to_emit.FlatMap<GridRecord>(
      [neighbors, accept](const GridRecord& rec,
                          std::vector<GridRecord>* sink) {
        for (const grid::CellRun& run : neighbors->Of(rec.first)) {
          for (uint32_t nc = run.begin; nc < run.end; ++nc) {
            if (accept(nc)) {
              sink->push_back({nc, rec.second});
            }
          }
        }
      });
  const std::hash<uint32_t> hash;
  Dataset<Value> values;
  switch (join) {
    case JoinStrategy::kPlain:
      values = Join(std::move(targets), std::move(to_check), parts, hash,
                    stages.plain_join)
                   .template FlatMap<Value>(
                       [distances, pair_value, keep](
                           const std::pair<uint32_t, GridRecord>& rec,
                           std::vector<Value>* sink) {
                         distances->fetch_add(1, std::memory_order_relaxed);
                         const uint32_t q = rec.second.first;
                         const uint32_t p = rec.second.second;
                         const V value = pair_value(p, q);
                         if (keep(value)) {
                           sink->push_back({p, value});
                         }
                       });
      break;
    case JoinStrategy::kGrouped: {
      auto checks =
          GroupByKey(std::move(to_check), parts, hash, stages.group_checks);
      auto cells =
          GroupByKey(std::move(targets), parts, hash, stages.group_targets);
      values =
          Join(std::move(cells), std::move(checks), parts, hash,
               stages.grouped_join)
              .template FlatMap<Value>(
                  [pts, group_value, keep, distances](
                      const std::pair<uint32_t,
                                      std::pair<std::vector<uint32_t>,
                                                std::vector<uint32_t>>>& rec,
                      std::vector<Value>* sink) {
                    const auto& cell_points = rec.second.first;
                    static thread_local std::vector<double> block;
                    GatherCoords(*pts, cell_points, pts->dims(), &block);
                    for (uint32_t p : rec.second.second) {
                      const V value = group_value(
                          (*pts)[p].data(), block.data(), cell_points.size());
                      if (keep(value)) {
                        sink->push_back({p, value});
                      }
                    }
                    distances->fetch_add(
                        cell_points.size() * rec.second.second.size(),
                        std::memory_order_relaxed);
                  });
      break;
    }
    case JoinStrategy::kBroadcast: {
      // Cell ids are dense in [0, num_cells()), so the driver groups the
      // checks in a vector indexed by cell id.
      std::vector<std::vector<uint32_t>> by_cell(neighbors->num_cells());
      to_check.ForEach(
          [&by_cell](const GridRecord& rec) {
            by_cell[rec.first].push_back(rec.second);
          },
          stages.broadcast_checks);
      Broadcast checks_by_cell(std::move(by_cell));
      values = targets.FlatMap<Value>(
          [checks_by_cell, pair_value, keep, distances](
              const GridRecord& rec, std::vector<Value>* sink) {
            const std::vector<uint32_t>& checks = (*checks_by_cell)[rec.first];
            if (checks.empty()) {
              return;
            }
            const uint32_t q = rec.second;
            for (uint32_t p : checks) {
              const V value = pair_value(p, q);
              if (keep(value)) {
                sink->push_back({p, value});
              }
            }
            distances->fetch_add(checks.size(), std::memory_order_relaxed);
          });
      break;
    }
  }
  return ReduceByKey(std::move(values), reduce, parts, hash, stages.reduce);
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

  const PointSet* pts = &points;  // outlives every task of this call
  auto sqdist = [pts](uint32_t a, uint32_t b) {
    return PointSet::SquaredDistance((*pts)[a], (*pts)[b]);
  };

  // ---- Phase 1: grid definition (Algorithm 1). -------------------------
  // The point ids are a lazy dataset. Algorithm 1's (cell, point) records
  // are pipelined into phase 2's stages, as a Spark stage runs its narrow
  // maps fused: each task computes CellOfPoint where it needs the cell, so
  // no n-sized dataset keyed by CellCoord exists.
  Dataset<uint32_t> ids;
  {
    phases::ScopedPhase phase(&recorder, phases::kPhaseGrid);
    ids = Dataset<uint32_t>::Iota(ctx, static_cast<uint32_t>(n), parts);
    phase.records = n;
  }

  // ---- Phase 2: dense cell map construction (Algorithm 2). -------------
  // Each partition counts its points per cell, so at most #cells records
  // per partition reach the CountCells shuffle. The count also validates
  // the input: each partition stops at its first point CellOfPoint
  // rejects, and the lowest such point fails the call. Partitions are
  // contiguous slices of the ids, so that is the first bad point in input
  // order, the one Grid::Build reports. The driver sorts the cells it
  // collects and numbers them in that order, as Grid::Build does, so the
  // ids do not depend on the partition count. The dense cell map is then a
  // byte per cell id, broadcast with the neighbor runs (Definition 8) of
  // the non-dense cells. Phase 3 emits the points of non-dense cells to
  // their neighbor cells, and phase 5 those of non-core cells (all
  // non-dense) to their core ones. G is keyed by cell id, so every later
  // record is (cell id, point), 8 bytes. G is read by every later phase,
  // so it is the one dataset persisted.
  Dataset<GridRecord> g;
  Broadcast<std::vector<uint8_t>> cell_dense;
  Broadcast<grid::NeighborCells> neighbors;
  {
    phases::ScopedPhase phase(&recorder, phases::kPhaseDenseCellMap);
    using CellCount = std::pair<CellCoord, uint32_t>;
    std::atomic<uint32_t> first_bad{static_cast<uint32_t>(n)};
    auto counts = ReduceByKey(
        ids.TransformPartitions<CellCount>(
            [pts, side, &first_bad](const std::vector<uint32_t>& part,
                                    std::vector<CellCount>* sink) {
              KeyTable<CellCoord, CellCoordHash> local;
              std::vector<uint32_t> local_counts;  // by local id
              CellCoord cell;
              for (uint32_t i : part) {
                if (!grid::CellOfPoint((*pts)[i], side, &cell).ok()) {
                  uint32_t seen = first_bad.load();
                  while (i < seen &&
                         !first_bad.compare_exchange_weak(seen, i)) {
                  }
                  return;
                }
                const uint32_t id = local.IdOf(cell);
                if (id == local_counts.size()) {
                  local_counts.push_back(0);
                }
                ++local_counts[id];
              }
              for (size_t id = 0; id < local_counts.size(); ++id) {
                sink->emplace_back(local.keys()[id], local_counts[id]);
              }
            }),
        [](uint32_t a, uint32_t b) { return a + b; }, parts, CellCoordHash(),
        "CountCells");
    if (first_bad.load() < n) {
      CellCoord cell;
      return grid::CellOfPoint(points[first_bad.load()], side, &cell);
    }
    std::vector<CellCount> cells = counts.Collect();
    std::sort(cells.begin(), cells.end());  // the coordinates are distinct
    KeyTable<CellCoord, CellCoordHash> cell_ids;  // cell id <-> coordinates
    std::vector<uint8_t> dense, non_dense;
    for (const auto& [cell, count] : cells) {
      cell_ids.IdOf(cell);  // numbered in sorted order
      const bool is_dense = phases::IsDense(count, min_pts);
      dense.push_back(is_dense);
      non_dense.push_back(!is_dense);
      out.num_dense_cells += is_dense;
    }
    Broadcast<decltype(cell_ids)> id_of(std::move(cell_ids));
    neighbors = Broadcast<grid::NeighborCells>(
        grid::NeighborCells::Build(id_of->keys(), non_dense, &ctx->pool()));
    out.num_cells = id_of->size();
    phase.records = out.num_cells;
    cell_dense = Broadcast<std::vector<uint8_t>>(std::move(dense));
    g = ids.Map([pts, side, id_of](uint32_t i) {
             CellCoord cell;
             (void)grid::CellOfPoint((*pts)[i], side, &cell);  // validated
             return GridRecord(id_of->Find(cell), i);
           })
            .Persist("KeyByCellId");
  }

  // ---- Phase 3: core points identification (Algorithm 3). --------------
  std::vector<uint8_t> is_core(n, 0);
  {
    phases::ScopedPhase phase(&recorder, phases::kPhaseCorePoints);
    auto is_dense_cell = [cell_dense](const GridRecord& rec) {
      return phases::IsDenseCell(cell_dense->data(), rec.first);
    };
    // C_d: points of dense cells are core outright (Lemma 1).
    auto dense_core = g.Filter(is_dense_cell).Map(
        [](const GridRecord& rec) { return rec.second; });
    auto non_dense = g.Filter(
        [is_dense_cell](const GridRecord& rec) { return !is_dense_cell(rec); });

    // Every point of a non-dense cell counts its eps-neighbors in each cell
    // of N(c) (the grouped join caps each count at minPts, SS III-G2), and
    // the counts are summed.
    auto counts = DistanceJoin<uint32_t>(
        params.join,
        {"JoinGrid", "GroupChecks", "GroupGrid", "JoinGrouped",
         "CollectChecks", "SumNeighbors"},
        pts, parts, neighbors, non_dense, g, [](uint32_t) { return true; },
        [sqdist, eps2](uint32_t p, uint32_t q) {
          return sqdist(p, q) <= eps2 ? 1u : 0u;
        },
        [count_within, eps2, min_pts](const double* p, const double* block,
                                      size_t count) {
          return count_within(p, block, count, eps2, min_pts);
        },
        [](uint32_t count) { return count > 0; },
        [](uint32_t a, uint32_t b) { return a + b; }, &phase.distances);
    auto core_nd =
        counts
            .Filter([min_pts](const std::pair<uint32_t, uint32_t>& kv) {
              return phases::IsDense(kv.second, min_pts);
            })
            .Map([](const std::pair<uint32_t, uint32_t>& kv) {
              return kv.first;
            });
    // C = C_d UNION C_nd; collect the core flags to the driver.
    uint64_t core_count = 0;
    dense_core.Union(core_nd).ForEach(
        [&is_core, &core_count](uint32_t p) {
          is_core[p] = 1;
          ++core_count;
        },
        "CollectCore");
    phase.records = core_count;
  }

  // ---- Phase 4: core cell map construction (Algorithm 4). --------------
  // Phase 5 reads the core points again. They are filtered from G twice,
  // not persisted: persisting cost osm2d 7 MB of peak and saved no time.
  Broadcast<std::vector<uint8_t>> cell_core;
  Dataset<GridRecord> core_points;
  {
    phases::ScopedPhase phase(&recorder, phases::kPhaseCoreCellMap);
    Broadcast<std::vector<uint8_t>> core_flags(is_core);
    core_points = g.Filter([core_flags](const GridRecord& rec) {
      return (*core_flags)[rec.second] != 0;
    });
    std::vector<uint8_t> core = *cell_dense;  // dense cells are core
    core_points.ForEach(
        [&core](const GridRecord& rec) { core[rec.first] = 1; }, "CoreCells");
    out.num_core_cells = std::count(core.begin(), core.end(), uint8_t{1});
    phase.records = out.num_core_cells;
    cell_core = Broadcast<std::vector<uint8_t>>(std::move(core));
  }

  // ---- Phase 5: outliers identification (Algorithm 5). -----------------
  std::vector<uint32_t> outliers;
  {
    phases::ScopedPhase phase(&recorder, phases::kPhaseOutliers);
    auto non_core = g.Filter([cell_core](const GridRecord& rec) {
      return !phases::IsCoreCell(cell_core->data(), rec.first);
    });
    // O_ncn: no neighboring core cell at all -> outright outliers.
    auto o_ncn =
        non_core
            .Filter([cell_core, neighbors](const GridRecord& rec) {
              for (const grid::CellRun& run : neighbors->Of(rec.first)) {
                for (uint32_t nc = run.begin; nc < run.end; ++nc) {
                  if (phases::IsCoreCell(cell_core->data(), nc)) {
                    return false;
                  }
                }
              }
              return true;
            })
            .Map([](const GridRecord& rec) { return rec.second; });

    // Every point of a non-core cell flags whether it is beyond eps of
    // all core points in each core cell of N(c); it is an outlier when
    // every flag is set.
    auto reduced = DistanceJoin<uint8_t>(
        params.join,
        {"JoinCore", "GroupChecks2", "GroupCore", "JoinGrouped2",
         "CollectChecks2", "AndFlags"},
        pts, parts, neighbors, non_core, std::move(core_points),
        [cell_core](uint32_t nc) {
          return phases::IsCoreCell(cell_core->data(), nc);
        },
        [sqdist, eps2](uint32_t p, uint32_t q) {
          return static_cast<uint8_t>(sqdist(p, q) > eps2 ? 1 : 0);
        },
        [any_within, eps2](const double* p, const double* block,
                           size_t count) {
          return static_cast<uint8_t>(any_within(p, block, count, eps2) ? 0
                                                                        : 1);
        },
        [](uint8_t) { return true; },
        [](uint8_t a, uint8_t b) { return static_cast<uint8_t>(a & b); },
        &phase.distances);
    auto o_cn = reduced
                    .Filter([](const std::pair<uint32_t, uint8_t>& kv) {
                      return kv.second != 0;
                    })
                    .Map([](const std::pair<uint32_t, uint8_t>& kv) {
                      return kv.first;
                    });
    outliers = o_ncn.Union(o_cn).Collect("CollectOutliers");
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
