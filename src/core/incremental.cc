#include "core/incremental.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/phases/insert_kernels.h"
#include "core/phases/phase_kernels.h"
#include "grid/grid.h"
#include "grid/regions.h"

namespace dbscout::core {
namespace {

// The cell of `p`, a point ValidateCoordinates accepted.
grid::CellCoord CellCoordFor(std::span<const double> p, double side) {
  grid::CellCoord coord;
  (void)grid::CellOfPoint(p, side, &coord);  // validated on the way in
  return coord;
}

Status ValidateCoordinates(std::span<const double> point, size_t dims,
                           double side) {
  if (point.size() != dims) {
    return Status::InvalidArgument(
        StrFormat("point has %zu dims, detector expects %zu", point.size(),
                  dims));
  }
  grid::CellCoord coord;
  return grid::CellOfPoint(point, side, &coord);
}

}  // namespace

// ---------------------------------------------------------------------------
// IncrementalSnapshot.
// ---------------------------------------------------------------------------

std::vector<PointKind> IncrementalSnapshot::Kinds() const {
  std::vector<PointKind> out;
  out.reserve(epoch() - window_begin_);
  for (uint64_t id = window_begin_; id < epoch(); ++id) {
    out.push_back(KindOf(id));
  }
  return out;
}

std::vector<uint64_t> IncrementalSnapshot::Outliers() const {
  std::vector<uint64_t> out;
  for (uint64_t id = window_begin_; id < epoch(); ++id) {
    if (KindOf(id) == PointKind::kOutlier) {
      out.push_back(id);
    }
  }
  return out;
}

template <typename Visit>
void IncrementalSnapshot::ForEachNeighborCell(std::span<const double> point,
                                              Visit visit) const {
  thread_local std::vector<uint32_t> slots;
  slots.clear();
  cells_.AppendNeighbors(CellCoordFor(point, side_), &slots);
  for (uint32_t slot : slots) {
    visit(heads_[slot]);
  }
}

double IncrementalSnapshot::NearestCoreDistance(
    uint64_t id, uint64_t* distance_comps) const {
  if (KindOf(id) == PointKind::kCore) {
    return 0.0;
  }
  const auto pv = PointAt(id);
  double best2 = std::numeric_limits<double>::infinity();
  ForEachNeighborCell(pv, [&](const SnapCell& cell) {
    if (cell.core_points == 0) {
      return;
    }
    for (uint32_t q : *cell.points) {
      if (kinds_[q] != PointKind::kCore) {
        continue;
      }
      const double d2 = PointSet::SquaredDistance(pv, points_[q]);
      ++*distance_comps;
      if (d2 < best2) {
        best2 = d2;
      }
    }
  });
  return std::sqrt(best2);
}

Result<ProbeResult> IncrementalSnapshot::Classify(
    std::span<const double> point, bool want_score) const {
  DBSCOUT_RETURN_IF_ERROR(ValidateCoordinates(point, dims(), side_));
  const uint32_t min_pts = static_cast<uint32_t>(params_.min_pts);

  ProbeResult out;
  uint64_t count = 1;  // the probe itself (Definition 2)
  bool covered = false;
  double best2 = std::numeric_limits<double>::infinity();
  ForEachNeighborCell(point, [&](const SnapCell& cell) {
    for (uint32_t q : *cell.points) {
      const double d2 = PointSet::SquaredDistance(point, points_[q]);
      ++out.distance_comps;
      const bool within = d2 <= eps2_;
      // Promotion-aware core test: q is core in prefix+probe either when it
      // already is, or when the probe itself is the neighbor that pushes
      // q's count onto the minPts threshold.
      bool q_core = kinds_[q] == PointKind::kCore;
      if (within && !q_core) {
        q_core = phases::CrossesDensityThreshold(neighbor_counts_[q] + 1,
                                                 min_pts);
      }
      if (within) {
        ++count;
        covered |= q_core;
      }
      if (want_score && q_core && d2 < best2) {
        best2 = d2;
      }
    }
  });
  if (phases::IsDense(count, min_pts)) {
    out.kind = PointKind::kCore;
  } else {
    out.kind = covered ? PointKind::kBorder : PointKind::kOutlier;
  }
  if (want_score) {
    out.score = out.kind == PointKind::kCore ? 0.0 : std::sqrt(best2);
  }
  return out;
}

// ---------------------------------------------------------------------------
// IncrementalDetector.
// ---------------------------------------------------------------------------

Result<IncrementalDetector> IncrementalDetector::Create(size_t dims,
                                                        const Params& params,
                                                        uint64_t first_id) {
  DBSCOUT_RETURN_IF_ERROR(params.Validate());
  if (dims < 1 || dims > kMaxDims) {
    return Status::InvalidArgument(
        StrFormat("dims=%zu out of supported range [1, %zu]", dims, kMaxDims));
  }
  return IncrementalDetector(dims, params, first_id);
}

Status IncrementalDetector::CheckRowCapacity(uint64_t rows, uint64_t adding) {
  if (rows > kMaxRows || adding > kMaxRows - rows) {
    return Status::OutOfRange(StrFormat(
        "detector holds %llu rows since its creation; %llu more would pass "
        "its limit of %llu",
        static_cast<unsigned long long>(rows),
        static_cast<unsigned long long>(adding),
        static_cast<unsigned long long>(kMaxRows)));
  }
  return Status::OK();
}

IncrementalDetector::IncrementalDetector(size_t dims, const Params& params,
                                         uint64_t first_id)
    : params_(params),
      kernels_(phases::BindKernels(dims)),
      side_(params.eps / std::sqrt(static_cast<double>(dims))),
      eps2_(params.eps * params.eps),
      block_width_(grid::HaloSlabs(dims)),
      first_id_(first_id),
      window_begin_(first_id),
      points_(dims),
      index_(dims) {}

grid::CellCoord IncrementalDetector::CoordOf(
    std::span<const double> p) const {
  return CellCoordFor(p, side_);
}

void IncrementalDetector::EnsureOwnedCell(Cell* cell) {
  if (cell->points == nullptr) {
    cell->points = std::make_shared<std::vector<uint32_t>>();
  } else if (cell->serial != freeze_serial_) {
    // A snapshot still shares the index vector: clone before mutating so
    // its readers keep the frozen contents (appending in place could also
    // reallocate the buffer out from under them). The coords mirror is
    // detector-private — no snapshot reads it — so it never clones.
    cell->points = std::make_shared<std::vector<uint32_t>>(*cell->points);
  } else {
    return;
  }
  cell->serial = freeze_serial_;
  heads_.MutableSlot(cell->slot)->points = cell->points;
}

void IncrementalDetector::AddCorePoints(Cell* cell, int delta) {
  cell->core_points += delta;
  heads_.MutableSlot(cell->slot)->core_points = cell->core_points;
}

void IncrementalDetector::AppendToCell(Cell* cell, uint32_t x,
                                       std::span<const double> pv) {
  EnsureOwnedCell(cell);
  cell->points->push_back(x);
  cell->coords.insert(cell->coords.end(), pv.begin(), pv.end());
  cell->outlier_points += 1;  // provisional kOutlier label
}

IncrementalDetector::Cell* IncrementalDetector::GetOrCreateCell(
    const grid::CellCoord& coord) {
  if (const uint32_t slot = index_.Find(coord);
      slot != grid::CellIndex::kNoSlot) {
    return cells_[slot].get();
  }
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(cells_.size());
    cells_.push_back(std::make_unique<Cell>());
    heads_.PushBack({});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Cell* cell = cells_[slot].get();
  cell->slot = slot;
  const size_t dims = points_.width();
  for (size_t k = 0; k < dims; ++k) {
    cell->box_origin[k] = static_cast<double>(coord[k]) * side_;
  }
  // Wire the neighbor caches both ways: Definition 8 is symmetric (it
  // depends only on |j_i|), so this cell belongs in exactly the caches of
  // the cells it now caches. Each goes just before its owner's self entry.
  neighbor_scratch_.clear();
  index_.AppendNeighbors(coord, &neighbor_scratch_);
  cell->neighbors.reserve(neighbor_scratch_.size() + 1);
  for (uint32_t other_slot : neighbor_scratch_) {
    Cell* other = cells_[other_slot].get();
    std::vector<Link>& list = other->neighbors;
    const uint32_t at = static_cast<uint32_t>(list.size() - 1);
    list.push_back({other, at + 1});  // self, still last
    list[at] = {cell, static_cast<uint32_t>(cell->neighbors.size())};
    cell->neighbors.push_back({other, at});
  }
  cell->neighbors.push_back(
      {cell, static_cast<uint32_t>(cell->neighbors.size())});  // self, last
  index_.Insert(coord, slot);
  return cell;
}

void IncrementalDetector::Promote(PointInCell q_in, ApplyCtx* ctx) {
  const size_t dims = points_.width();
  const uint32_t q = q_in.id;
  Cell* home = q_in.cell;
  const auto qv = points_[q];
  if (kinds_[q] != PointKind::kCore) {
    ctx->core_delta += 1;
    if (kinds_[q] == PointKind::kOutlier) {
      ctx->outlier_delta -= 1;
      home->outlier_points -= 1;
    }
    kinds_.Set(q, PointKind::kCore);
  }
  AddCorePoints(home, 1);
  // Rescue: every current outlier within eps of the new core point becomes
  // a border point (Definition 3). Cells without outliers skip outright.
  for (const Link& link : home->neighbors) {
    Cell* cell = link.cell;
    if (cell->outlier_points == 0 ||
        phases::CellBoxBeyondEps(qv.data(), cell->box_origin.data(), dims,
                                 side_, eps2_)) {
      continue;
    }
    const std::vector<uint32_t>& idx = *cell->points;
    const double* block = cell->coords.data();
    for (size_t i = 0; i < idx.size(); ++i) {
      if (kinds_[idx[i]] != PointKind::kOutlier) {
        continue;
      }
      ++ctx->distance_comps;
      if (PointSet::SquaredDistance(qv, {block + i * dims, dims}) <= eps2_) {
        kinds_.Set(idx[i], PointKind::kBorder);
        ctx->outlier_delta -= 1;
        cell->outlier_points -= 1;
      }
    }
  }
}

template <typename Hit>
uint32_t IncrementalDetector::ForEachWithin(std::span<const double> pv,
                                            const Cell* cell, ApplyCtx* ctx,
                                            Hit hit) {
  const size_t n = cell->points == nullptr ? 0 : cell->points->size();
  if (n == 0 || phases::CellBoxBeyondEps(pv.data(), cell->box_origin.data(),
                                         points_.width(), side_, eps2_)) {
    return 0;
  }
  // Room for one full word past the block so the walk below can read the
  // flags 8 at a time; the pad is zeroed so it never reads as a hit.
  if (ctx->flags.size() < n + sizeof(uint64_t)) {
    ctx->flags.resize(n + sizeof(uint64_t));
  }
  const uint32_t hits = phases::NeighborFlagsScanCell(
      kernels_, pv.data(), cell->coords.data(), n, eps2_, ctx->flags.data(),
      &ctx->distance_comps);
  if (hits == 0) {
    return 0;
  }
  std::memset(ctx->flags.data() + n, 0, sizeof(uint64_t));
  const uint8_t* flags = ctx->flags.data();
  // Word-at-a-time walk of the 0/1 flag bytes: only flagged entries cost
  // anything (a set flag is a single bit at its byte's LSB position).
  uint32_t left = hits;
  for (size_t i = 0; left > 0; i += sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, flags + i, sizeof(word));
    while (word != 0) {
      hit(i + (static_cast<size_t>(std::countr_zero(word)) >> 3));
      word &= word - 1;
      --left;
    }
  }
  return hits;
}

void IncrementalDetector::ApplyPoint(uint32_t x, std::span<const double> pv,
                                     Cell* home_cell, ApplyCtx* ctx) {
  const uint32_t min_pts = static_cast<uint32_t>(params_.min_pts);
  ctx->promoted.clear();
  uint32_t count_x = 1;
  bool covered_by_core = false;
  // One pass over the cached neighbor cells: bump the counts of x's
  // eps-neighbors and collect the ones whose count just crossed minPts.
  for (const Link& link : home_cell->neighbors) {
    Cell* cell = link.cell;
    count_x += ForEachWithin(pv, cell, ctx, [&](size_t j) {
      const uint32_t q = (*cell->points)[j];
      if (!covered_by_core) {
        covered_by_core = kinds_[q] == PointKind::kCore;
      }
      if (phases::CrossesDensityThreshold(++*neighbor_counts_.MutableSlot(q),
                                          min_pts)) {
        ctx->promoted.push_back({q, cell});
      }
    });
  }
  neighbor_counts_.Set(x, count_x);
  // Register x only now, so the scan above never saw it.
  AppendToCell(home_cell, x, pv);

  for (const PointInCell& q : ctx->promoted) {
    Promote(q, ctx);
  }
  if (phases::IsDense(count_x, min_pts)) {
    Promote({x, home_cell}, ctx);
  } else if (covered_by_core || !ctx->promoted.empty()) {
    // Any point promoted by this insertion is within eps of x by
    // construction, so x is covered either way. A Promote above may have
    // already rescued x (it sits in its cell with a provisional outlier
    // label), in which case the counter was already adjusted.
    if (kinds_[x] == PointKind::kOutlier) {
      kinds_.Set(x, PointKind::kBorder);
      ctx->outlier_delta -= 1;
      home_cell->outlier_points -= 1;
    }
  }
}

void IncrementalDetector::MergeCtx(const ApplyCtx& ctx) {
  num_core_ = static_cast<size_t>(static_cast<int64_t>(num_core_) +
                                  ctx.core_delta);
  num_outliers_ = static_cast<size_t>(static_cast<int64_t>(num_outliers_) +
                                      ctx.outlier_delta);
  distance_comps_ += ctx.distance_comps;
}

Status IncrementalDetector::ValidatePoint(std::span<const double> point) const {
  return ValidateCoordinates(point, points_.width(), side_);
}

Result<uint64_t> IncrementalDetector::Add(std::span<const double> point) {
  DBSCOUT_RETURN_IF_ERROR(
      ValidateCoordinates(point, points_.width(), side_));
  DBSCOUT_RETURN_IF_ERROR(CheckRowCapacity(kinds_.size(), 1));
  const uint32_t x = static_cast<uint32_t>(kinds_.size());
  points_.PushBack(point);
  kinds_.PushBack(PointKind::kOutlier);  // provisional
  neighbor_counts_.PushBack(1);          // itself
  num_outliers_ += 1;

  Cell* home_cell = GetOrCreateCell(CoordOf(point));
  ApplyCtx ctx;
  ApplyPoint(x, point, home_cell, &ctx);
  MergeCtx(ctx);
  return first_id_ + x;
}

Status IncrementalDetector::AddBatchParallel(const PointSet& batch,
                                             ThreadPool* pool,
                                             ApplyStats* stats) {
  const size_t dims = points_.width();
  if (batch.dims() != dims) {
    return Status::InvalidArgument("batch dims mismatch");
  }
  if (stats != nullptr) {
    stats->task_seconds.clear();
  }
  const size_t n = batch.size();
  if (n == 0) {
    return Status::OK();
  }
  // Validate everything up front: the batch applies atomically or not at
  // all (the serial append below must never half-commit).
  for (size_t i = 0; i < n; ++i) {
    DBSCOUT_RETURN_IF_ERROR(ValidateCoordinates(batch[i], dims, side_));
  }
  DBSCOUT_RETURN_IF_ERROR(CheckRowCapacity(kinds_.size(), n));

  // ---- Serial pre-phase: append rows, order the points by home cell (a
  // stable sort by cell coordinate, so each cell's points ascend) and
  // create every home cell. The wave tasks then only read the index and
  // the (now stable) cached neighbor lists, never create or erase a cell,
  // so no index write or cache rewiring can happen under a concurrent
  // task. ----
  const uint32_t base = static_cast<uint32_t>(kinds_.size());
  std::vector<grid::CellCoord> homes(n);
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    const auto p = batch[i];
    points_.PushBack(p);
    kinds_.PushBack(PointKind::kOutlier);  // provisional
    neighbor_counts_.PushBack(1);          // itself
    homes[i] = CoordOf(p);
    order[i] = static_cast<uint32_t>(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return homes[a] < homes[b];
  });
  // The sort key starts with dim 0 and SlabBlock is monotone in it, so
  // each slab block's points are one run [begin, end) of `sorted`.
  struct Run {
    int64_t block;
    size_t begin;
    size_t end;
  };
  std::vector<PointInCell> sorted(n);
  std::vector<Run> runs;
  for (size_t r = 0; r < n; ++r) {
    const grid::CellCoord& home = homes[order[r]];
    Cell* cell = r > 0 && homes[order[r - 1]] == home
                     ? sorted[r - 1].cell
                     : GetOrCreateCell(home);
    sorted[r] = {base + order[r], cell};
    const int64_t block = grid::SlabBlock(home[0], block_width_);
    if (runs.empty() || runs.back().block != block) {
      runs.push_back({block, r, r});
    }
    runs.back().end = r + 1;
  }
  num_outliers_ += n;

  // ---- Three conflict-free waves (see grid/regions.h: same-wave blocks
  // are >= 3 apart, and a block task's read/write footprint spans at most
  // one block to each side). A wave is one RunTasks over its blocks, on
  // `pool` or in order on this thread; each block task applies its run's
  // points in sorted order, filling its own ApplyCtx and seconds slot,
  // merged serially once the wave has run. The next wave's blocks may
  // read state this wave wrote. ----
  std::vector<const Run*> wave_runs;
  for (int wave = 0; wave < grid::kNumWaves; ++wave) {
    wave_runs.clear();
    for (const Run& run : runs) {
      if (grid::WaveOf(run.block) == wave) {
        wave_runs.push_back(&run);
      }
    }
    // Longest runs first: workers claim tasks in index order, so a long
    // run claimed last would keep the wave open after the rest finished.
    std::stable_sort(wave_runs.begin(), wave_runs.end(),
                     [](const Run* a, const Run* b) {
                       return a->end - a->begin > b->end - b->begin;
                     });
    std::vector<ApplyCtx> ctxs(wave_runs.size());
    std::vector<double> seconds(wave_runs.size());
    RunTasks(pool, wave_runs.size(), [&](size_t t) {
      WallTimer timer;
      ApplyCtx ctx;
      for (size_t r = wave_runs[t]->begin; r < wave_runs[t]->end; ++r) {
        const PointInCell& p = sorted[r];
        ApplyPoint(p.id, points_[p.id], p.cell, &ctx);
      }
      // Stored once, at the end: neighboring slots share cache lines.
      ctxs[t] = std::move(ctx);
      seconds[t] = timer.ElapsedSeconds();
    });
    for (const ApplyCtx& ctx : ctxs) {
      MergeCtx(ctx);
    }
    if (stats != nullptr) {
      stats->task_seconds.insert(stats->task_seconds.end(), seconds.begin(),
                                 seconds.end());
    }
  }
  return Status::OK();
}

Status IncrementalDetector::Remove(uint64_t id) {
  if (id >= epoch()) {
    return Status::InvalidArgument(
        StrFormat("remove: id %llu was never inserted",
                  static_cast<unsigned long long>(id)));
  }
  if (id < window_begin_) {
    return Status::NotFound(
        StrFormat("remove: id %llu expired (ids below %llu are gone)",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(window_begin_)));
  }
  if (id != window_begin_) {
    return Status::FailedPrecondition(
        StrFormat("remove: id %llu is not the oldest live id %llu",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(window_begin_)));
  }
  return ExpireBefore(id + 1);
}

Status IncrementalDetector::ExpireBefore(uint64_t end) {
  if (end > epoch()) {
    return Status::InvalidArgument(StrFormat(
        "expire: end %llu is past the epoch %llu",
        static_cast<unsigned long long>(end),
        static_cast<unsigned long long>(epoch())));
  }
  if (end <= window_begin_) {
    return Status::OK();
  }
  for (; window_begin_ < end; ++window_begin_) {
    RemoveRow(Row(window_begin_));
  }
  // Every id below `end` is expired now, so no cell lists it any more and
  // nothing reads these rows again; held snapshots keep their own chunks.
  const size_t rows_end = Row(end);
  points_.DropChunksBelow(rows_end);
  kinds_.DropChunksBelow(rows_end);
  neighbor_counts_.DropChunksBelow(rows_end);
  return Status::OK();
}

void IncrementalDetector::RemoveRow(uint32_t id) {
  const size_t dims = points_.width();
  const uint32_t min_pts = static_cast<uint32_t>(params_.min_pts);
  const auto pv = points_[id];
  const grid::CellCoord home = CoordOf(pv);
  const PointKind old_kind = kinds_[id];
  ApplyCtx ctx;

  // ---- Unregister id from its home cell (swap-erase of both parallel
  // arrays) so the scans below never see it. ----
  Cell* home_cell = cells_[index_.Find(home)].get();
  EnsureOwnedCell(home_cell);
  {
    std::vector<uint32_t>& idx = *home_cell->points;
    std::vector<double>& coords = home_cell->coords;
    const size_t pos =
        std::find(idx.begin(), idx.end(), id) - idx.begin();
    const size_t last = idx.size() - 1;
    idx[pos] = idx[last];
    idx.pop_back();
    std::copy_n(coords.begin() + last * dims, dims,
                coords.begin() + pos * dims);
    coords.resize(last * dims);
  }
  if (old_kind == PointKind::kCore) {
    AddCorePoints(home_cell, -1);
    ctx.core_delta -= 1;
  } else if (old_kind == PointKind::kOutlier) {
    ctx.outlier_delta -= 1;
    home_cell->outlier_points -= 1;
  }

  // ---- Decrement the counts of id's eps-neighbors; a core point whose
  // count falls off the minPts threshold demotes. Border neighbors of a
  // removed core may have lost their cover: collect them for re-check. ----
  std::vector<PointInCell> demoted;
  std::vector<PointInCell> candidates;
  for (const Link& link : home_cell->neighbors) {
    Cell* cell = link.cell;
    ForEachWithin(pv, cell, &ctx, [&](size_t j) {
      const uint32_t q = (*cell->points)[j];
      const uint32_t old_count = neighbor_counts_[q];
      neighbor_counts_.Set(q, old_count - 1);
      if (phases::LeavesDensityThreshold(old_count, min_pts)) {
        demoted.push_back({q, cell});  // at the threshold: core until now
      } else if (old_kind == PointKind::kCore &&
                 kinds_[q] == PointKind::kBorder) {
        candidates.push_back({q, cell});
      }
    });
  }

  // ---- Demotions: core -> provisional border, then re-derive coverage
  // for every border point in reach of a lost core (the demoted points
  // themselves included). Demotions never cascade — neighbor counts are
  // independent of core status — so one round settles the core set. ----
  for (const PointInCell& q : demoted) {
    kinds_.Set(q.id, PointKind::kBorder);
    ctx.core_delta -= 1;
    AddCorePoints(q.cell, -1);
    candidates.push_back(q);
  }
  for (const PointInCell& q : demoted) {
    const auto qv = points_[q.id];
    for (const Link& link : q.cell->neighbors) {
      Cell* cell = link.cell;
      ForEachWithin(qv, cell, &ctx, [&](size_t j) {
        const uint32_t r = (*cell->points)[j];
        if (kinds_[r] == PointKind::kBorder) {
          candidates.push_back({r, cell});
        }
      });
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const PointInCell& a, const PointInCell& b) {
              return a.id < b.id;
            });
  candidates.erase(
      std::unique(candidates.begin(), candidates.end(),
                  [](const PointInCell& a, const PointInCell& b) {
                    return a.id == b.id;
                  }),
      candidates.end());
  for (const auto& [c, candidate_home] : candidates) {
    if (kinds_[c] != PointKind::kBorder) {
      continue;  // promoted-away or already handled
    }
    const auto cv = points_[c];
    bool covered = false;
    for (const Link& link : candidate_home->neighbors) {
      Cell* cell = link.cell;
      if (cell->core_points == 0 || cell->points == nullptr ||
          phases::CellBoxBeyondEps(cv.data(), cell->box_origin.data(), dims,
                                   side_, eps2_)) {
        continue;
      }
      if (phases::AnyCoreWithinCell(
              cv, cell->coords.data(), cell->points->data(),
              cell->points->size(), dims, eps2_,
              [this](uint32_t r) { return kinds_[r]; },
              &ctx.distance_comps)) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      kinds_.Set(c, PointKind::kOutlier);
      ctx.outlier_delta += 1;
      candidate_home->outlier_points += 1;
    }
  }
  if (home_cell->points->empty()) {
    EraseCell(home, home_cell);
  }
  MergeCtx(ctx);
}

void IncrementalDetector::EraseCell(const grid::CellCoord& coord,
                                    Cell* cell) {
  // The caches are symmetric, so `cell` sits in exactly the caches of the
  // cells in its own, at the positions its links record. Swap-erase it
  // from each: the owner's second-to-last entry fills the hole (its
  // partner learns the new position) and the self entry moves up to stay
  // last.
  for (const Link& link : cell->neighbors) {
    Cell* owner = link.cell;
    if (owner == cell) {
      continue;
    }
    std::vector<Link>& list = owner->neighbors;
    const uint32_t pos = link.back;
    const uint32_t last = static_cast<uint32_t>(list.size() - 1);
    if (pos != last - 1) {
      list[pos] = list[last - 1];
      list[pos].cell->neighbors[list[pos].back].back = pos;
    }
    list[last - 1] = {owner, last - 1};
    list.pop_back();
  }
  index_.Erase(coord);
  // Snapshots keep the point vector through their own head copies.
  heads_.Set(cell->slot, {});
  const uint32_t slot = cell->slot;
  *cell = Cell();
  free_slots_.push_back(slot);
}

std::vector<PointKind> IncrementalDetector::kinds() const {
  std::vector<PointKind> out;
  out.reserve(epoch() - window_begin_);
  for (uint64_t id = window_begin_; id < epoch(); ++id) {
    out.push_back(KindOf(id));
  }
  return out;
}

std::vector<uint64_t> IncrementalDetector::Outliers() const {
  std::vector<uint64_t> out;
  for (uint64_t id = window_begin_; id < epoch(); ++id) {
    if (KindOf(id) == PointKind::kOutlier) {
      out.push_back(id);
    }
  }
  return out;
}

std::shared_ptr<const IncrementalSnapshot> IncrementalDetector::SnapshotNow() {
  auto snap = std::make_shared<IncrementalSnapshot>();
  snap->params_ = params_;
  snap->side_ = side_;
  snap->eps2_ = eps2_;
  snap->first_id_ = first_id_;
  snap->window_begin_ = window_begin_;
  snap->points_ = points_.Freeze();
  snap->kinds_ = kinds_.Freeze();
  snap->neighbor_counts_ = neighbor_counts_.Freeze();
  snap->cells_ = index_.Freeze();
  snap->heads_ = heads_.Freeze();
  snap->num_core_ = num_core_;
  snap->num_outliers_ = num_outliers_;
  // From here on, the first write into any chunk, index node or cell the
  // snapshot shares must clone it.
  ++freeze_serial_;
  return snap;
}

}  // namespace dbscout::core
