#ifndef DBSCOUT_COMMON_THREAD_POOL_H_
#define DBSCOUT_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace dbscout {

/// Fixed-size worker pool. Tasks are arbitrary void() callables; WaitIdle()
/// blocks until every submitted task has finished. Every parallel path runs
/// on one: the dataflow engine's partitions (dataflow/context.h), the grid
/// and neighbor-list builds, the phase loops of core::phases::RunPhases, the
/// out-of-core passes and the service's apply waves. APIs that take a
/// `ThreadPool*` run inline when it is null.
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

  /// Runs fn(i) for i in [0, count), distributing contiguous chunks over the
  /// workers, and waits for completion. Reentrant calls (fn itself calling
  /// ParallelFor on the same pool) run inline to avoid deadlock.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

  /// Runs fn(chunk_begin, chunk_end) over ~num_threads contiguous chunks and
  /// waits. Lower overhead than per-index ParallelFor.
  void ParallelForChunked(
      size_t count, const std::function<void(size_t, size_t)>& fn);

  /// Like ParallelForChunked, but dynamically load-balanced: workers claim
  /// chunks of `chunk_size` indices from a shared atomic counter until the
  /// range is exhausted. Use when per-index cost is skewed (e.g. grid cells
  /// with wildly different populations), where static chunking leaves
  /// workers idle. chunk_size 0 picks count / (8 * num_threads), min 1.
  /// Reentrant calls run inline, like ParallelForChunked.
  void ParallelForDynamic(
      size_t count, size_t chunk_size,
      const std::function<void(size_t, size_t)>& fn);

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

/// Runs fn(t) for every task t < tasks: on `pool`'s workers when there is
/// one, in order on this thread otherwise. The "tasks on a pool, or inline"
/// helper of the code that splits its input into one task per pool thread
/// (Grid::Build, DetectExternal's streaming passes).
void RunTasks(ThreadPool* pool, size_t tasks,
              const std::function<void(size_t)>& fn);

}  // namespace dbscout

#endif  // DBSCOUT_COMMON_THREAD_POOL_H_
