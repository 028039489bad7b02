#include "service/shard.h"

#include <utility>

#include "common/logging.h"
#include "common/timer.h"

namespace dbscout::service {

DetectorShard::DetectorShard(size_t index, core::IncrementalDetector detector)
    : index_(index), detector_(std::move(detector)) {
  // The loop has no tasks yet, so the constructing thread owns the
  // detector; publish the epoch-0 snapshot before anyone can read it.
  snapshot_.store(detector_.SnapshotNow(), std::memory_order_release);
}

void DetectorShard::BeginApply(Work work, ThreadPool* inner_pool) {
  work_ = std::move(work);
  queue_depth_.fetch_add(1, std::memory_order_relaxed);
  // Submit() publishes work_ to the loop thread (the pool's queue mutex
  // provides the happens-before edge).
  loop_.Submit([this, inner_pool] { RunApply(inner_pool); });
}

const DetectorShard::Outcome& DetectorShard::AwaitApply() {
  loop_.WaitIdle();
  return outcome_;
}

void DetectorShard::RunApply(ThreadPool* inner_pool) {
  Outcome outcome;
  {
    WallTimer timer;
    for (const uint32_t id : work_.removals) {
      const Status removed = detector_.Remove(id);
      if (removed.ok()) {
        ++outcome.removed;
      } else {
        ++outcome.remove_failures;
        DBSCOUT_LOG(kWarning) << "shard " << index_ << ": remove id=" << id
                              << " failed: " << removed.ToString();
      }
    }
    outcome.remove_seconds = timer.ElapsedSeconds();
  }
  if (work_.adds.size() > 0) {
    WallTimer timer;
    outcome.status = detector_.AddBatchParallel(work_.adds, inner_pool,
                                                &outcome.apply_stats);
    outcome.apply_seconds = timer.ElapsedSeconds();
  }
  // One span per pass with real work, timed on this (the shard loop)
  // thread so the trace shows the shards' true overlap. The span name
  // carries no shard number; tid + the records arg distinguish shards.
  if (trace_ != nullptr &&
      (work_.adds.size() > 0 || !work_.removals.empty())) {
    trace_->AddTracedSpan("shard_apply", "shard", work_.trace_id,
                          trace_scope_,
                          outcome.apply_seconds + outcome.remove_seconds,
                          work_.adds.size());
  }
  {
    WallTimer timer;
    snapshot_.store(detector_.SnapshotNow(), std::memory_order_release);
    outcome.freeze_seconds = timer.ElapsedSeconds();
  }
  if (trace_ != nullptr) {
    trace_->AddTracedSpan("snapshot_freeze", "shard", work_.trace_id,
                          trace_scope_, outcome.freeze_seconds);
  }
  outcome_ = outcome;
  queue_depth_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace dbscout::service
