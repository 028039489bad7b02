#ifndef DBSCOUT_CORE_INCREMENTAL_H_
#define DBSCOUT_CORE_INCREMENTAL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/cow.h"
#include "common/result.h"
#include "core/detection.h"
#include "core/params.h"
#include "core/phases/phase_kernels.h"
#include "data/point_set.h"
#include "grid/cell_coord.h"
#include "grid/cell_index.h"

namespace dbscout {
class ThreadPool;
}

namespace dbscout::core {

/// Result of classifying a hypothetical ("probe") point against a frozen
/// epoch of the incremental detector, without inserting it.
struct ProbeResult {
  /// The label the probe point would receive from DetectSequential run on
  /// the epoch's points plus the probe point itself (promotion-aware: a
  /// prefix point that the probe would push onto the minPts threshold
  /// counts as core for coverage).
  PointKind kind = PointKind::kOutlier;
  /// Distance to the nearest core point within the neighbor-cell horizon
  /// (0 for core probes, +infinity when no core point is in range). Only
  /// filled when requested; mirrors Detection::core_distance semantics.
  double score = 0.0;
  /// Point-to-point distance evaluations this classification performed.
  uint64_t distance_comps = 0;
};

/// Per-pass statistics of one batch apply: the wall time of each dim-0
/// slab-block task, wave by wave, whether it ran on a pool or inline.
/// Feeds the service's dbscout_apply_task_seconds histogram.
struct ApplyStats {
  std::vector<double> task_seconds;
};

/// An immutable view of the incremental detector's state at one epoch (=
/// one past the last id inserted when the snapshot was taken). It holds
/// the window [window_begin(), epoch()): every id below window_begin()
/// has expired and has no row to read. Snapshots share storage with the
/// live detector via copy-on-write: the cell index is a root pointer
/// (grid::CellIndex), the per-cell heads and the per-id rows are chunk
/// lists, so taking one costs O(1) for the cells plus O((window + cell
/// slots) / chunk-size) pointer copies. Any number of
/// threads may read a snapshot concurrently with further insertions into
/// the producing detector — provided the snapshot pointer itself is
/// published with release/acquire ordering (the detection service stores
/// it in a std::atomic shared_ptr).
class IncrementalSnapshot {
 public:
  IncrementalSnapshot() = default;

  /// One past the last id this snapshot covers; an id is live iff it is in
  /// [window_begin(), epoch()), and labels answer for exactly those ids.
  uint64_t epoch() const { return first_id_ + kinds_.size(); }
  /// First id not expired at this epoch; ids below it have no row.
  uint64_t window_begin() const { return window_begin_; }
  size_t dims() const { return points_.width(); }
  size_t num_core() const { return num_core_; }
  size_t num_outliers() const { return num_outliers_; }
  /// Occupied grid cells at this epoch (cells emptied by removals are
  /// erased, so this tracks the live window, not lifetime ingest).
  size_t num_cells() const { return cells_.size(); }
  /// Points in the window at this epoch.
  size_t live_points() const { return epoch() - window_begin_; }
  const Params& params() const { return params_; }

  /// Label of point `id` (in [window_begin(), epoch())) at this epoch.
  PointKind KindOf(uint64_t id) const { return kinds_[Row(id)]; }

  /// Materialized copy of the labels of ids [window_begin(), epoch()), in
  /// id order.
  std::vector<PointKind> Kinds() const;

  /// Outlier ids of [window_begin(), epoch()) at this epoch, ascending.
  std::vector<uint64_t> Outliers() const;

  /// Coordinates of point `id` (in [window_begin(), epoch())).
  std::span<const double> PointAt(uint64_t id) const {
    return points_[Row(id)];
  }

  /// Chunks the three per-id row lists hold: O(window / chunk-size), not
  /// O(epoch), once the detector expires its prefix.
  size_t chunks_held() const {
    return points_.chunks_held() + kinds_.chunks_held() +
           neighbor_counts_.chunks_held();
  }

  /// Classifies a point NOT in the set against this epoch: the label it
  /// would receive from DetectSequential on the epoch's live points +
  /// probe. Fails on dims mismatch or non-finite coordinates.
  /// `want_score` additionally computes the nearest-core distance. The
  /// scan visits the occupied Definition 8 neighbor cells of the probe's
  /// cell, found by the index descent, never the k_d stencil.
  Result<ProbeResult> Classify(std::span<const double> point,
                               bool want_score) const;

  /// Distance from existing point `id` (in [window_begin(), epoch())) to
  /// its nearest core point within the neighbor-cell horizon —
  /// Detection::core_distance semantics: 0 for core points, +infinity when
  /// no core point is in range. Adds the distance evaluations performed to
  /// *distance_comps.
  double NearestCoreDistance(uint64_t id, uint64_t* distance_comps) const;

 private:
  friend class IncrementalDetector;

  /// What a reader needs of one cell: its live point indices and its
  /// core count. One head per cell slot of the detector.
  struct SnapCell {
    std::shared_ptr<const std::vector<uint32_t>> points;
    uint32_t core_points = 0;
  };

  /// Calls visit(head) for every occupied neighbor cell of the cell of
  /// `point`.
  template <typename Visit>
  void ForEachNeighborCell(std::span<const double> point, Visit visit) const;

  /// Row offset of `id` in the per-id vectors.
  uint32_t Row(uint64_t id) const {
    return static_cast<uint32_t>(id - first_id_);
  }

  Params params_;
  double side_ = 0.0;
  double eps2_ = 0.0;
  uint64_t first_id_ = 0;
  uint64_t window_begin_ = 0;

  ChunkedRows::Frozen points_;
  CowChunkedVector<PointKind>::Frozen kinds_;
  CowChunkedVector<uint32_t>::Frozen neighbor_counts_;
  grid::CellIndex::Frozen cells_;  // cell coordinate -> slot in heads_
  CowChunkedVector<SnapCell>::Frozen heads_;
  size_t num_core_ = 0;
  size_t num_outliers_ = 0;
};

/// Exact incremental DBSCOUT for online streams (the paper's motivation of
/// data "generated and collected in a daily manner"): points are added one
/// batch at a time — and, for sliding-window workloads, expired again
/// oldest first — while the outlier labeling is maintained exactly after
/// every mutation: equal, at any moment, to what DetectSequential would
/// produce on the live points (enforced by tests).
///
/// Insertions are monotone under Definitions 1-3: neighbor counts only
/// grow, so core points stay core and non-outliers stay non-outliers; the
/// only transitions are non-core -> core (a count crossing minPts) and
/// outlier -> border (a rescue by a newly-core point). Each insertion
/// therefore costs one neighbor-cell scan for the new point plus one per
/// point it promotes to core — O(minPts) cell scans amortized over at most
/// k_d cells each, the same bound as the batch algorithm's per-point cost.
/// A cell finds its neighbor cells once, when it is created, by a
/// Definition 8 descent over the sorted cell index (grid::CellIndex), so
/// the cost is bounded by the occupied cells, never by k_d.
///
/// Ids are global: the detector's first point gets `first_id` (Create),
/// so a detector recovered at a window's start keeps the ids its points
/// had before. An id is live iff it is in [window_begin(), epoch()): the
/// only removal is ExpireBefore(end), the sliding window, which removes
/// every id below `end` and releases the per-id rows of whole chunks below
/// it, so memory follows the window, not lifetime ingest. Rows are uint32
/// offsets from first_id, so one detector takes at most kMaxRows
/// insertions over its lifetime.
///
/// Removals break the insertion monotonicity, so each expired point's
/// removal re-derives the affected transitions: counts of its
/// eps-neighbors decrement (demoting cores that fall off the minPts
/// threshold), and border points that were covered only by the
/// removed/demoted cores are re-checked and may fall to outlier. Cells
/// hold only live points, so scans never see an expired one.
///
/// Threading contract: all mutating calls (Add/AddBatchParallel/Remove/
/// ExpireBefore/SnapshotNow) must come from one writer at a time;
/// SnapshotNow() hands out immutable views that other threads may read
/// concurrently with subsequent writes (the storage is copy-on-write at
/// chunk, index node and cell granularity, see common/cow.h and
/// grid/cell_index.h).
/// AddBatchParallel additionally fans the batch out over a caller-provided
/// ThreadPool: the batch is ordered by home cell, so each dim-0 slab block
/// of width 2*ceil(sqrt(d)) cells is one run of that order, and the runs
/// go in three waves colored so that concurrently running tasks'
/// read/write footprints never overlap (see grid/regions.h). Each task
/// inserts its run's points one at a time, exactly as Add does. The final
/// state is identical to sequential insertion — point labels are an
/// order-independent function of the point set — and no snapshot is taken
/// mid-batch, so readers only ever observe exact epochs.
class IncrementalDetector {
 public:
  /// Insertions one detector can take over its lifetime: its rows are
  /// uint32 offsets from its first id.
  static constexpr uint64_t kMaxRows = uint64_t{1} << 32;

  /// Fails on invalid params or dims outside [1, kMaxDims]. The first
  /// inserted point gets id `first_id`; every id below it reads as
  /// expired.
  static Result<IncrementalDetector> Create(size_t dims, const Params& params,
                                            uint64_t first_id = 0);

  /// OutOfRange when a detector holding `rows` rows since its creation
  /// cannot take `adding` more (the total would pass kMaxRows).
  static Status CheckRowCapacity(uint64_t rows, uint64_t adding);

  IncrementalDetector(IncrementalDetector&&) noexcept = default;
  IncrementalDetector& operator=(IncrementalDetector&&) noexcept = default;

  /// Inserts one point; returns its id. The label of the new point and
  /// every affected older point is updated before returning.
  Result<uint64_t> Add(std::span<const double> point);

  /// Inserts every point of `batch` (same dims) in slab-block wave tasks
  /// on `pool` (nullptr runs the same waves inline, single-threaded). The
  /// whole batch is validated first (coordinates and CheckRowCapacity), so
  /// on error the detector is unchanged. `stats`, when non-null, receives
  /// the seconds of every task: one per slab block the batch lands in.
  Status AddBatchParallel(const PointSet& batch, ThreadPool* pool,
                          ApplyStats* stats = nullptr);

  /// Checks one candidate row against this detector's dims and coordinate
  /// domain without mutating anything. The service pre-validates client
  /// batches with this so one malformed batch cannot poison a coalesced
  /// apply pass.
  Status ValidatePoint(std::span<const double> point) const;

  /// Expires the oldest live id: exactly ExpireBefore(id + 1), accepted
  /// only for id == window_begin(). InvalidArgument when id was never
  /// inserted; NotFound when it has expired; FailedPrecondition when it
  /// is not the oldest live id.
  Status Remove(uint64_t id);

  /// Expires every id in [window_begin(), end): each is removed and every
  /// affected label re-derived (core -> non-core demotions of points whose
  /// neighbor count falls off the minPts threshold, border -> outlier
  /// demotions of points that lose their last covering core),
  /// window_begin() becomes `end`, and the per-id rows of every chunk
  /// wholly below `end` are released. Snapshots taken earlier keep the
  /// rows they cover. A no-op when end <= window_begin(); InvalidArgument
  /// when end > epoch().
  Status ExpireBefore(uint64_t end);

  size_t dims() const { return points_.width(); }

  /// Epoch = one past the last id inserted (the id range a snapshot taken
  /// now would cover ends here). Expiry does not rewind the epoch: ids are
  /// stable for the detector's lifetime.
  uint64_t epoch() const { return first_id_ + kinds_.size(); }
  /// First id not expired: ids below it have no row.
  uint64_t window_begin() const { return window_begin_; }
  /// Per-id rows the live chunk lists hold (the same in each of the three
  /// row vectors): the window plus at most one partly expired chunk.
  size_t rows_held() const { return kinds_.size() - kinds_.held_begin(); }

  /// Points in the window.
  size_t live_points() const { return epoch() - window_begin_; }

  /// Current classification of point `id` (in [window_begin(), epoch())).
  PointKind KindOf(uint64_t id) const { return kinds_[Row(id)]; }
  /// Materialized copy of the labels of ids [window_begin(), epoch()), in
  /// id order.
  std::vector<PointKind> kinds() const;

  /// Current outlier ids of [window_begin(), epoch()), ascending.
  std::vector<uint64_t> Outliers() const;

  size_t num_core() const { return num_core_; }
  size_t num_outliers() const { return num_outliers_; }
  /// Occupied grid cells: expiry erases a cell it empties.
  size_t num_cells() const { return index_.size(); }

  /// Total point-to-point distance evaluations performed by mutations
  /// (monotone; the service's STATS verb reports deltas per apply pass).
  uint64_t distance_computations() const { return distance_comps_; }

  /// Freezes the current state into an immutable snapshot: a root pointer
  /// for the cell index plus O((rows_held() + cell slots) / chunk-size)
  /// chunk pointers; subsequent writes copy-on-write only the index nodes,
  /// chunks and cells they touch. Must be called from the writer thread,
  /// never concurrently with AddBatchParallel wave tasks.
  std::shared_ptr<const IncrementalSnapshot> SnapshotNow();

 private:
  struct Cell;

  /// One entry of a cell's neighbor cache: the neighbor, and where the
  /// reverse entry sits in the neighbor's own cache (unused for the self
  /// entry), so unlinking an erased cell costs O(1) per neighbor.
  struct Link {
    Cell* cell;
    uint32_t back;
  };

  struct Cell {
    /// Point indices and their packed row-major coordinates (parallel
    /// arrays: coords rows line up with points entries), so neighborhood
    /// scans run the SIMD block kernels over one contiguous block per
    /// cell. Only `points` is COW (snapshots share it through the cell's
    /// head in heads_, and it clones on first mutation after a
    /// SnapshotNow()); `coords` is a detector-private scan mirror no
    /// snapshot ever reads — readers resolve coordinates through the
    /// frozen row store — so it mutates in place across snapshots.
    std::shared_ptr<std::vector<uint32_t>> points;
    std::vector<double> coords;
    /// Neighbor cells (Definition 8; self included, last), found once at
    /// creation by the index descent and kept symmetric as later cells
    /// appear and as emptied cells are erased (EraseCell unlinks them) —
    /// the mutation paths never search for neighbor cells per point.
    /// Cells live behind unique_ptrs in cells_, so the pointers stay valid
    /// while their cell exists.
    std::vector<Link> neighbors;
    /// Lower corner of the cell's box (coord * side per axis), so scans can
    /// skip this cell outright when the whole box lies beyond eps of the
    /// query (phases::CellBoxBeyondEps). Fixed at creation.
    std::array<double, kMaxDims> box_origin{};
    uint32_t core_points = 0;     // core cell iff > 0; mirrored in heads_
    uint32_t outlier_points = 0;  // rescue scans skip cells with none
    uint64_t serial = 0;          // freeze serial at last clone/create
    uint32_t slot = 0;            // position in cells_ and heads_
  };

  /// A point and the cell that holds it, so the label passes reach the
  /// cell without an index lookup.
  struct PointInCell {
    uint32_t id;
    Cell* cell;
  };

  /// Mutable per-task state of one apply task: counter deltas (merged
  /// serially under the merge mutex — wave tasks never touch the
  /// detector-level counters) and reusable scratch buffers.
  struct ApplyCtx {
    int64_t core_delta = 0;
    int64_t outlier_delta = 0;
    uint64_t distance_comps = 0;
    std::vector<PointInCell> promoted;
    std::vector<uint8_t> flags;  // ForEachWithin's per-cell hit flags
  };

  IncrementalDetector(size_t dims, const Params& params, uint64_t first_id);

  /// Row offset of `id` in the per-id vectors.
  uint32_t Row(uint64_t id) const {
    return static_cast<uint32_t>(id - first_id_);
  }

  grid::CellCoord CoordOf(std::span<const double> p) const;

  /// Removes the live point at `row` and re-derives the labels it
  /// affected (ExpireBefore's step for one id).
  void RemoveRow(uint32_t row);

  /// Clones the cell's point vector if a snapshot still shares it (or
  /// creates it when absent), publishing the new one in the cell's head.
  void EnsureOwnedCell(Cell* cell);

  /// Adds `delta` to the cell's core count and its head's.
  void AddCorePoints(Cell* cell, int delta);

  /// Registers point x (row pv) in `cell` as a provisional outlier.
  void AppendToCell(Cell* cell, uint32_t x, std::span<const double> pv);

  /// Finds or creates the cell at `coord`, wiring the (symmetric)
  /// neighbor caches on creation. Structural: serial contexts only.
  Cell* GetOrCreateCell(const grid::CellCoord& coord);

  /// Unlinks the (emptied) cell at `coord` from its neighbors' caches and
  /// erases it from the index, so the index holds only occupied cells; its
  /// slot is recycled. O(its neighbors).
  void EraseCell(const grid::CellCoord& coord, Cell* cell);

  /// Unless `cell` is empty or its box lies beyond eps of `pv`, flags the
  /// cell's points within eps of `pv` (SIMD kernel, counted in
  /// ctx->distance_comps) and calls hit(j) for each, ascending by position
  /// j in cell->points. Returns the number of hits. `hit` must not touch
  /// ctx->flags or the cell's point arrays.
  template <typename Hit>
  uint32_t ForEachWithin(std::span<const double> pv, const Cell* cell,
                         ApplyCtx* ctx, Hit hit);

  /// Full insertion of one appended point x: neighborhood scan (count +
  /// cover + neighbor count bumps), registration, promotions. The one
  /// insertion routine: Add and every AddBatchParallel task call it.
  void ApplyPoint(uint32_t x, std::span<const double> pv, Cell* home_cell,
                  ApplyCtx* ctx);

  /// Marks q core and rescues outliers within eps of it.
  void Promote(PointInCell q, ApplyCtx* ctx);

  /// Folds a task's counter deltas into the detector-level counters.
  void MergeCtx(const ApplyCtx& ctx);

  Params params_;
  phases::BoundKernels kernels_{};
  double side_ = 0.0;
  double eps2_ = 0.0;
  /// Slab-block width of the wave apply (2 * neighbor reach along dim
  /// 0): wide enough that a block task writes at most one block to each
  /// side, so three wave colors make same-wave tasks conflict-free.
  int64_t block_width_ = 2;

  uint64_t first_id_ = 0;
  uint64_t window_begin_ = 0;
  /// Per-id rows by offset from first_id_; chunks wholly below
  /// window_begin_ are released.
  ChunkedRows points_;
  CowChunkedVector<PointKind> kinds_;
  CowChunkedVector<uint32_t> neighbor_counts_;  // |{q: dist <= eps}|, self incl.
  /// Occupied cell coordinate -> slot. Structural writes (creating and
  /// erasing cells) happen in serial contexts only.
  grid::CellIndex index_;
  /// Cells by slot; a slot freed by EraseCell is reused by the next
  /// created cell.
  std::vector<std::unique_ptr<Cell>> cells_;
  std::vector<uint32_t> free_slots_;
  /// Per-slot heads (point vector + core count) that snapshots read. Wave
  /// tasks write the heads of their own cells, disjoint by construction.
  CowChunkedVector<IncrementalSnapshot::SnapCell> heads_;
  std::vector<uint32_t> neighbor_scratch_;  // GetOrCreateCell's descent
  size_t num_core_ = 0;
  size_t num_outliers_ = 0;
  uint64_t freeze_serial_ = 0;
  uint64_t distance_comps_ = 0;
};

}  // namespace dbscout::core

#endif  // DBSCOUT_CORE_INCREMENTAL_H_
