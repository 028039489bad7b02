#ifndef DBSCOUT_DATAFLOW_CONTEXT_H_
#define DBSCOUT_DATAFLOW_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace dbscout::dataflow {

/// One stage's accounting, the analogue of a Spark stage row in the web UI:
/// a fused pipeline of narrow transformations plus the shuffle or action
/// that ran it, named by that shuffle or action. Aggregated by
/// ExecutionContext.
struct StageMetrics {
  std::string name;
  /// The whole stage: the fused steps, the shuffle's map and reduce sides.
  double seconds = 0.0;
  /// Records the fused steps handed to the shuffle or action.
  uint64_t records_in = 0;
  /// Records the stage produced (a shuffle's output, an action's records).
  uint64_t records_out = 0;
  /// Records moved across partitions by a shuffle (ReduceByKey, GroupByKey,
  /// Join); 0 for actions. ReduceByKey counts its records after the
  /// map-side combine.
  uint64_t shuffled_records = 0;
};

/// Totals over a sequence of stages.
struct MetricsSummary {
  double seconds = 0.0;
  uint64_t shuffled_records = 0;
  size_t stages = 0;
};

/// Execution environment for datasets: a worker pool (the "executors") and a
/// metrics sink. One context typically lives for a whole experiment; the
/// default partition count plays the role of Spark's RDD partitioning knob
/// and is the variable swept by the Fig. 13 reproduction.
class ExecutionContext {
 public:
  /// `num_threads` = 0 selects the hardware concurrency.
  /// `default_partitions` = 0 selects 2x the thread count.
  explicit ExecutionContext(size_t num_threads = 0,
                            size_t default_partitions = 0);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  ThreadPool& pool() { return *pool_; }
  size_t default_partitions() const { return default_partitions_; }
  void set_default_partitions(size_t n) {
    default_partitions_ = n == 0 ? 1 : n;
  }

  /// Attaches a trace collector: every task of every stage then emits one
  /// span (name = the stage name, cat = `category`) from the worker thread
  /// that ran it — the per-worker view of the dataflow engine's phases.
  /// Pass nullptr to detach. Must not be called while a stage is running
  /// (attach before evaluating the pipeline, detach after collecting).
  void AttachTrace(obs::TraceCollector* trace,
                   std::string category = "dataflow") {
    trace_ = trace;
    trace_category_ = std::move(category);
  }
  obs::TraceCollector* trace() const { return trace_; }
  const std::string& trace_category() const { return trace_category_; }

  /// Appends one stage record (thread-safe).
  void RecordStage(StageMetrics metrics);

  /// Snapshot of all recorded stages.
  std::vector<StageMetrics> stages() const;

  /// Aggregate of all recorded stages.
  MetricsSummary Summary() const;

  /// Clears recorded stages (e.g. between benchmark repetitions).
  void ResetMetrics();

 private:
  std::unique_ptr<ThreadPool> pool_;
  size_t default_partitions_;
  obs::TraceCollector* trace_ = nullptr;
  std::string trace_category_ = "dataflow";
  mutable Mutex mu_;
  std::vector<StageMetrics> stages_ DBSCOUT_GUARDED_BY(mu_);
};

}  // namespace dbscout::dataflow

#endif  // DBSCOUT_DATAFLOW_CONTEXT_H_
