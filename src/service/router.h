#ifndef DBSCOUT_SERVICE_ROUTER_H_
#define DBSCOUT_SERVICE_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cow.h"
#include "common/result.h"
#include "common/status.h"
#include "core/incremental.h"
#include "data/point_set.h"
#include "grid/partition.h"
#include "obs/metrics.h"
#include "service/shard.h"

namespace dbscout::service {

/// Where a global point lives: which shard holds it and under which
/// shard-local insertion id.
struct PointLoc {
  uint32_t local = 0;
  uint32_t shard = 0;
};

/// An epoch-consistent merged view over all shard snapshots of one
/// collection: the read-side companion of ShardRouter. Presents the same
/// surface as IncrementalSnapshot (epoch, labels, alive mask, probes) in
/// GLOBAL insertion-id space; lookups route through the global-id ->
/// PointLoc table to the owning shard, whose labels for owned points are
/// exact by the ghost-halo argument (DESIGN.md section 14).
///
/// With one shard this is a thin wrapper over the single shard snapshot
/// (local id = global id - base), byte-for-byte identical answers to the
/// pre-shard service.
///
/// Global ids below base() were expired before the collection was
/// recovered, and no shard holds a row for them: IsAlive is false and
/// Kinds() reports kOutlier there. The by-id readers (KindOf,
/// NearestCoreDistance) require base() <= i < epoch().
class MergedSnapshot {
 public:
  uint64_t epoch() const { return epoch_; }
  /// First global id a shard holds a row for (see ShardRouter::SetBase).
  uint64_t base() const { return base_; }
  size_t dims() const { return dims_; }
  size_t live_points() const;
  /// Live core / outlier counts over OWNED points (ghost replicas are
  /// never counted). Computed lazily on first use and cached.
  size_t num_core() const;
  size_t num_outliers() const;
  /// Sum of per-shard cell counts. With several shards, cells straddling
  /// a ghost halo are counted once per holding shard, so this is an upper
  /// bound on the distinct-cell count (exact with one shard).
  size_t num_cells() const;

  core::PointKind KindOf(uint32_t i) const;
  bool IsAlive(uint32_t i) const;
  std::vector<core::PointKind> Kinds() const;
  double NearestCoreDistance(uint32_t i, uint64_t* distance_comps) const;

  /// Probe classification, routed to the shard owning the probe's dim-0
  /// slab — which holds every live point within the neighbor-cell horizon
  /// of any slab it owns, so the answer matches the unsharded detector.
  Result<core::ProbeResult> Classify(std::span<const double> point,
                                     bool want_score) const;

  size_t num_shards() const { return shards_.size(); }
  /// Shard s's snapshot at this epoch (per-shard STATS rows).
  const core::IncrementalSnapshot& shard_view(size_t s) const {
    return *shards_[s];
  }

 private:
  friend class ShardRouter;
  MergedSnapshot() = default;

  const core::IncrementalSnapshot& Home(uint32_t i, uint32_t* local) const;

  std::vector<std::shared_ptr<const core::IncrementalSnapshot>> shards_;
  CowChunkedVector<PointLoc>::Frozen locs_;  // unused in single-shard mode
  std::shared_ptr<const grid::RegionPlan> plan_;  // null until first batch
  bool single_ = true;
  uint64_t base_ = 0;
  uint64_t epoch_ = 0;
  size_t dims_ = 0;
  size_t live_ = 0;
  double side_ = 0.0;

  mutable std::once_flag counts_once_;
  mutable size_t num_core_ = 0;
  mutable size_t num_outliers_ = 0;
};

/// Routes one collection's mutations to N detector shards and gathers
/// their snapshots back into MergedSnapshots. Cell space is partitioned
/// into contiguous dim-0 slab regions (RegionPlan, balanced over the first
/// batch's slab histogram); INGEST points go to their home region's shard
/// plus a ghost replica in every region within grid::HaloSlabs(d) slabs
/// (RegionPlan::CoveringRegions), which keeps every shard's owned labels —
/// and therefore the merged outlier set — exactly equal to a single
/// detector over the same stream.
///
/// Threading: Create() and all mutators (ApplyPass, PublishableSnapshot)
/// are coordinator-thread-only (the service apply loop). ApplyPass
/// scatters work to the shard loops and barriers on every touched shard
/// (DetectorShard::AwaitApply) before returning — the epoch barrier — so
/// PublishableSnapshot() always observes a quiescent, mutually consistent
/// set of shard snapshots. ValidatePoint and shard_queue_depth are safe
/// from any thread.
class ShardRouter {
 public:
  /// What one ApplyPass did, for the service's metrics and phase rows.
  struct PassStats {
    uint64_t ghost_points = 0;  // replicas created by this pass
    uint64_t ghost_bytes = 0;   // ghost_points * dims * sizeof(double)
    uint64_t expired = 0;       // owned points removed (window expiry)
    uint64_t remove_failures = 0;
    double scatter_seconds = 0;  // routing + ghost exchange (coordinator)
    double expire_seconds = 0;   // sum of shard removal segments
    size_t shards_touched = 0;
    core::ApplyStats apply_stats;  // merged over touched shards
  };

  /// Builds `num_shards` detector shards (min 1) and resolves the
  /// per-shard observability series against `registry`.
  static Result<ShardRouter> Create(const std::string& collection,
                                    size_t dims, const core::Params& params,
                                    size_t num_shards,
                                    obs::Registry* registry);

  ShardRouter(ShardRouter&&) = default;
  ShardRouter& operator=(ShardRouter&&) = default;

  /// Attaches a span sink (null detaches) to the router and every shard.
  /// The router emits a ghost_exchange span per multi-shard pass; the
  /// shards emit shard_apply spans on their loop threads. Coordinator
  /// only, between passes.
  void AttachTrace(obs::TraceCollector* trace, const std::string& scope) {
    trace_ = trace;
    trace_scope_ = scope;
    for (auto& shard : shards_) {
      shard->AttachTrace(trace, scope);
    }
  }

  /// Sets the request trace id the NEXT ApplyPass's spans are attributed
  /// to (0 = untraced). A setter rather than an ApplyPass parameter so
  /// replay and test call sites stay untouched. Coordinator only.
  void SetPassTraceId(uint64_t trace_id) { pass_trace_id_ = trace_id; }

  size_t dims() const { return dims_; }
  size_t num_shards() const { return shards_.size(); }
  /// Global insertion epoch (= points ever ingested). Coordinator only.
  uint64_t epoch() const { return epoch_; }

  /// Starts the global id space at `base`: the first ingested point gets
  /// global id `base`, and ids below it have no rows anywhere (they
  /// expired before a restart, and recovery loads only the live window).
  /// Coordinator only, on a router that has applied nothing yet.
  void SetBase(uint64_t base) { base_ = epoch_ = base; }
  /// Sum of shard distance-computation counters. Coordinator only, and
  /// only while quiescent (after the last pass's barrier).
  uint64_t distance_computations() const;

  Status ValidatePoint(std::span<const double> point) const {
    return shards_[0]->ValidatePoint(point);
  }
  uint64_t shard_queue_depth(size_t s) const {
    return shards_[s]->queue_depth();
  }

  /// One epoch-barriered pass: removes global ids [expire_begin,
  /// expire_end) (never below the base) — home copy and every ghost
  /// replica — and ingests `adds`
  /// (global ids epoch()..epoch()+adds.size()), scattering each point to
  /// its covering regions. Blocks until every touched shard has applied
  /// and republished its snapshot. `inner_pool` is forwarded to the
  /// single-shard fast path only; with several shards each detector runs
  /// its waves serially (see DetectorShard::BeginApply).
  Status ApplyPass(const PointSet& adds, uint64_t expire_begin,
                   uint64_t expire_end, ThreadPool* inner_pool,
                   PassStats* stats);

  /// Merged view of the current shard snapshots. Call after ApplyPass's
  /// barrier (or before any pass) for an epoch-consistent view.
  std::shared_ptr<const MergedSnapshot> PublishableSnapshot();

 private:
  ShardRouter() = default;

  /// Plans the region partition from the first non-empty batch's dim-0
  /// slab histogram. The plan is immutable once built.
  void EnsurePlan(const PointSet& adds);

  size_t dims_ = 0;
  double side_ = 0.0;
  obs::TraceCollector* trace_ = nullptr;  // coordinator-thread only
  std::string trace_scope_;
  uint64_t pass_trace_id_ = 0;
  std::shared_ptr<const grid::RegionPlan> plan_;
  std::vector<std::unique_ptr<DetectorShard>> shards_;

  // Multi-shard routing state (coordinator-thread only; locs_ is frozen
  // into every published snapshot). locs_[k] places global id base_ + k.
  uint64_t base_ = 0;
  CowChunkedVector<PointLoc> locs_;
  std::unordered_map<uint32_t, std::vector<PointLoc>> ghosts_;
  std::vector<uint32_t> next_local_;
  uint64_t epoch_ = 0;
  uint64_t live_ = 0;
  std::vector<size_t> covering_scratch_;

  std::vector<obs::Gauge*> shard_points_;
  obs::Histogram* shard_apply_seconds_ = nullptr;
  obs::Histogram* snapshot_freeze_seconds_ = nullptr;
  obs::Counter* ghost_points_total_ = nullptr;
  obs::Counter* ghost_bytes_total_ = nullptr;
  obs::Histogram* ghost_exchange_seconds_ = nullptr;
};

}  // namespace dbscout::service

#endif  // DBSCOUT_SERVICE_ROUTER_H_
