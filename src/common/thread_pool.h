#ifndef DBSCOUT_COMMON_THREAD_POOL_H_
#define DBSCOUT_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace dbscout {

/// Fixed-size worker pool. Loops fan out over it through the two free
/// functions below, never through Submit: ParallelForDynamic, where workers
/// claim chunks of an index range, and RunTasks, the same with chunks of
/// one index. Both take a nullable pool and run inline without one. Their
/// users: the dataflow stages (one task per partition, dataflow/dataset.h
/// and pair_ops.h), Grid::Build, NeighborCells::Build, the per-cell loops
/// of core::phases::RunPhases, DetectExternal's streaming passes and the
/// slab-block waves of IncrementalDetector::AddBatchParallel. Submit and
/// WaitIdle serve only long-lived loops and their shutdown: the server's
/// accept and session loops and the service's apply loop.
///
/// Nesting is per pool. A loop called from a worker of the same pool runs
/// inline, since every other worker may be waiting in the very loop that
/// called it. A loop called from a worker of another pool fans out onto
/// its own pool as usual (the service's apply loop, a worker of a pool of
/// one, spreads each wave over the apply workers this way). So a task must
/// never fan out onto a pool one of whose workers is blocked waiting for
/// that task: with that pool's workers all blocked, nothing would claim
/// the chunks.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (minimum 1).
  explicit ThreadPool(size_t num_threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  /// Enqueues one task. Tasks must not throw; a throwing task aborts the
  /// process (the library itself is exception-free).
  void Submit(std::function<void()> task) DBSCOUT_EXCLUDES(mu_);

  /// Blocks until the queue is empty and no task is running.
  void WaitIdle() DBSCOUT_EXCLUDES(mu_);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop() DBSCOUT_EXCLUDES(mu_);

  Mutex mu_;
  CondVar task_available_;
  CondVar idle_;
  std::deque<std::function<void()>> queue_ DBSCOUT_GUARDED_BY(mu_);
  size_t active_ DBSCOUT_GUARDED_BY(mu_) = 0;
  bool shutting_down_ DBSCOUT_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;  // immutable after the constructor
};

/// Runs fn(begin, end) over chunks of `chunk_size` indices covering
/// [0, count) and returns when all have run. `pool`'s workers claim the
/// chunks one at a time from a shared counter, so skewed per-index costs
/// (grid cells with wildly different populations) still balance. Runs
/// fn(0, count) once on this thread when `pool` is null or has one thread,
/// when the range fits one chunk, or when this thread is a worker of
/// `pool` (see the class comment). chunk_size 0 picks
/// count / (8 * threads), min 1.
void ParallelForDynamic(ThreadPool* pool, size_t count, size_t chunk_size,
                        const std::function<void(size_t, size_t)>& fn);

/// Runs fn(t) for every task t < tasks: ParallelForDynamic with chunks of
/// one, so inline and in order when it runs inline.
void RunTasks(ThreadPool* pool, size_t tasks,
              const std::function<void(size_t)>& fn);

}  // namespace dbscout

#endif  // DBSCOUT_COMMON_THREAD_POOL_H_
