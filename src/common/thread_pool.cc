#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace dbscout {
namespace {

// The pool whose worker the current thread is; null on any other thread.
// A loop fanned out onto this same pool runs inline (see the class
// comment), one onto any other pool does not.
thread_local const ThreadPool* t_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  WaitIdle();
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  task_available_.NotifyAll();
  for (auto& t : threads_) {
    t.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  task_available_.NotifyOne();
}

void ThreadPool::WaitIdle() {
  MutexLock lock(mu_);
  while (!queue_.empty() || active_ != 0) {
    idle_.Wait(mu_);
  }
}

void ThreadPool::WorkerLoop() {
  t_worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && queue_.empty()) {
        task_available_.Wait(mu_);
      }
      if (queue_.empty()) {
        return;  // Shutting down with a drained queue.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      MutexLock lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) {
        idle_.NotifyAll();
      }
    }
  }
}

void ParallelForDynamic(ThreadPool* pool, size_t count, size_t chunk_size,
                        const std::function<void(size_t, size_t)>& fn) {
  if (count == 0) {
    return;
  }
  const size_t threads = pool == nullptr ? 1 : pool->num_threads();
  if (chunk_size == 0) {
    chunk_size = std::max<size_t>(1, count / (8 * threads));
  }
  if (threads == 1 || t_worker_of == pool || count <= chunk_size) {
    fn(0, count);
    return;
  }
  const size_t num_workers =
      std::min(threads, (count + chunk_size - 1) / chunk_size);
  std::atomic<size_t> next{0};
  // `done` must be mutated and read under done_mu (not a bare atomic): the
  // caller may only pass the wait after the final worker has released the
  // lock, making that unlock the worker's last touch of these locals —
  // otherwise the caller can destroy them while the worker still holds or
  // is about to take the mutex.
  size_t done = 0;
  Mutex done_mu;
  CondVar done_cv;
  for (size_t w = 0; w < num_workers; ++w) {
    pool->Submit([&, chunk_size] {
      for (;;) {
        const size_t begin = next.fetch_add(chunk_size);
        if (begin >= count) {
          break;
        }
        fn(begin, std::min(count, begin + chunk_size));
      }
      MutexLock lock(done_mu);
      if (++done == num_workers) {
        done_cv.NotifyAll();
      }
    });
  }
  MutexLock lock(done_mu);
  while (done != num_workers) {
    done_cv.Wait(done_mu);
  }
}

void RunTasks(ThreadPool* pool, size_t tasks,
              const std::function<void(size_t)>& fn) {
  ParallelForDynamic(pool, tasks, 1, [&fn](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      fn(t);
    }
  });
}

}  // namespace dbscout
