#ifndef DBSCOUT_SERVICE_SHARD_H_
#define DBSCOUT_SERVICE_SHARD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/incremental.h"
#include "data/point_set.h"
#include "obs/trace.h"

namespace dbscout::service {

/// One detector shard: an IncrementalDetector plus its own single-thread
/// apply loop. A ShardRouter owns N of these and partitions cell space
/// between them; each shard holds the points homed in its region plus
/// ghost replicas of every point within grid::HaloSlabs(d) slabs of its
/// owned range, which makes its labels for owned points exact (DESIGN.md
/// section 14).
///
/// Threading contract (no locks — the barrier IS the synchronization):
///   - The coordinator (the service apply thread) is the only caller of
///     BeginApply()/AwaitApply(), and alternates them: one BeginApply,
///     then one AwaitApply, per shard per pass.
///   - BeginApply() hands the work to the shard's private loop thread;
///     AwaitApply() blocks on ThreadPool::WaitIdle(), which establishes a
///     happens-before edge from everything the loop thread wrote. After
///     AwaitApply() returns, the coordinator may freely read outcome()
///     and detector() until the next BeginApply().
///   - snapshot() may be called from any thread at any time; the shard
///     publishes each new snapshot with a release store and readers load
///     with acquire (the same discipline as the service's collection
///     snapshot pointer).
class DetectorShard {
 public:
  /// One pass worth of work for this shard. Removals are shard-local ids
  /// (owned points and ghost replicas alike) and are applied before the
  /// adds; labels are an order-independent function of the live set, so
  /// the order only affects constants. Local insertion ids are assigned
  /// in `adds` row order, continuing from the shard detector's epoch.
  struct Work {
    PointSet adds{1};
    std::vector<uint32_t> removals;
    /// Request trace id this pass is attributed to (0 = untraced). Set by
    /// the router from the pass context; the shard loop tags its
    /// shard_apply span with it.
    uint64_t trace_id = 0;
  };

  /// What one pass did, read by the coordinator after AwaitApply().
  struct Outcome {
    Status status;             // first add-path failure, else OK
    double apply_seconds = 0;  // the AddBatchParallel segment
    double remove_seconds = 0;
    double freeze_seconds = 0;  // the SnapshotNow that republishes
    uint64_t removed = 0;
    uint64_t remove_failures = 0;
    core::ApplyStats apply_stats;
  };

  DetectorShard(size_t index, core::IncrementalDetector detector);

  DetectorShard(const DetectorShard&) = delete;
  DetectorShard& operator=(const DetectorShard&) = delete;

  /// Attaches a span sink (null detaches). The shard loop emits one
  /// shard_apply span per pass with nonzero work, timed on the loop thread
  /// itself — the true per-shard apply segment, not the coordinator's view
  /// of it — followed by a snapshot_freeze span for the SnapshotNow that
  /// republishes the shard. Coordinator only, while the shard is
  /// quiescent; `scope` is the owning collection's name.
  void AttachTrace(obs::TraceCollector* trace, std::string scope) {
    trace_ = trace;
    trace_scope_ = std::move(scope);
  }

  /// Enqueues one pass on the shard loop. `inner_pool` parallelizes the
  /// detector's slab-block waves and must be null when several shards run
  /// concurrently: AddBatchParallel's wave barriers use WaitIdle() on the
  /// inner pool, so a pool shared across concurrently-applying detectors
  /// would barrier on each other's work.
  void BeginApply(Work work, ThreadPool* inner_pool);

  /// Blocks until the shard loop drains (the epoch barrier), then returns
  /// the pass outcome. Also safe to call when no pass is in flight.
  const Outcome& AwaitApply();

  /// Latest published snapshot (acquire load; callable from any thread).
  std::shared_ptr<const core::IncrementalSnapshot> snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// Pending + in-flight passes on the shard loop (0 or 1 under the
  /// coordinator's alternation contract). Any thread.
  uint64_t queue_depth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }

  /// Validates dims/finiteness against the detector's immutable geometry.
  /// Reads only construction-time state, so it is safe concurrently with
  /// an in-flight pass.
  Status ValidatePoint(std::span<const double> point) const {
    return detector_.ValidatePoint(point);
  }

  /// The underlying detector. Coordinator only, and only while the shard
  /// is quiescent (between AwaitApply() and the next BeginApply()).
  const core::IncrementalDetector& detector() const { return detector_; }

  size_t index() const { return index_; }

 private:
  void RunApply(ThreadPool* inner_pool);

  const size_t index_;
  obs::TraceCollector* trace_ = nullptr;  // written while quiescent only
  std::string trace_scope_;
  core::IncrementalDetector detector_;  // mutated on loop_ thread only
  Work work_;     // handoff slot: written by BeginApply, read by RunApply
  Outcome outcome_;  // written by RunApply, read after AwaitApply
  std::atomic<std::shared_ptr<const core::IncrementalSnapshot>> snapshot_;
  std::atomic<uint64_t> queue_depth_{0};
  ThreadPool loop_{1};  // declared last: drains before members destruct
};

}  // namespace dbscout::service

#endif  // DBSCOUT_SERVICE_SHARD_H_
