#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_annotations.h"

namespace dbscout {
namespace {

/// Identifies the calling thread: each thread has its own `tag`.
const void* ThisThread() {
  thread_local const char tag = 0;
  return &tag;
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 1);
}

// RunTasks is the pool's parallel for: one index per task.
TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  RunTasks(&pool, n, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  RunTasks(&pool, 0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, NullPoolRunsInlineInOrder) {
  const void* const caller = ThisThread();
  std::vector<size_t> order;
  RunTasks(nullptr, 5, [&](size_t t) {
    EXPECT_EQ(ThisThread(), caller);
    order.push_back(t);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  int calls = 0;
  ParallelForDynamic(nullptr, 100, 1, [&](size_t begin, size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 100u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Every worker may be busy in the outer loop, so a loop nested on the
  // same pool must run inline on the thread that calls it.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::atomic<int> moved{0};
  RunTasks(&pool, 8, [&](size_t) {
    const void* const outer = ThisThread();
    RunTasks(&pool, 8, [&](size_t) {
      moved.fetch_add(ThisThread() != outer);
      counter.fetch_add(1);
    });
  });
  EXPECT_EQ(counter.load(), 64);
  EXPECT_EQ(moved.load(), 0);
}

TEST(ThreadPoolTest, RunTasksFromAnotherPoolsTaskFansOut) {
  // Nesting is per pool: a task on pool A that fans out onto pool B gets
  // B's workers. Each B task waits until a second one has started, which
  // only a concurrent worker can satisfy; the deadline turns a regression
  // (the loop run inline on A's worker) into a failure, not a hang.
  ThreadPool a(1);
  ThreadPool b(3);
  Mutex mu;
  std::set<const void*> b_threads;
  const void* a_thread = nullptr;
  std::atomic<int> started{0};
  a.Submit([&] {
    a_thread = ThisThread();
    RunTasks(&b, 2, [&](size_t) {
      started.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      MutexLock lock(mu);
      b_threads.insert(ThisThread());
    });
  });
  a.WaitIdle();
  MutexLock lock(mu);
  EXPECT_GE(b_threads.size(), 2u);
  EXPECT_EQ(b_threads.count(a_thread), 0u);
}

TEST(ThreadPoolTest, ParallelForDynamicCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (size_t chunk : {size_t{0}, size_t{1}, size_t{7}, size_t{5000}}) {
    std::vector<std::atomic<int>> hits(1777);
    ParallelForDynamic(&pool, hits.size(), chunk,
                       [&hits](size_t begin, size_t end) {
                         ASSERT_LE(begin, end);
                         for (size_t i = begin; i < end; ++i) {
                           hits[i].fetch_add(1);
                         }
                       });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "chunk " << chunk << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForDynamicZeroCountIsNoop) {
  ThreadPool pool(2);
  ParallelForDynamic(&pool, 0, 4, [](size_t, size_t) {
    FAIL() << "must not be called";
  });
}

TEST(ThreadPoolTest, ParallelForDynamicBalancesSkewedWork) {
  // One giant index plus many tiny ones: every index must still run once,
  // and a worker stuck on the giant chunk must not strand the rest.
  ThreadPool pool(4);
  std::atomic<long> benchmark_sink{0};
  std::vector<std::atomic<int>> hits(256);
  ParallelForDynamic(&pool, hits.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (i == 0) {
        for (int spin = 0; spin < 100000; ++spin) {
          benchmark_sink.fetch_add(1, std::memory_order_relaxed);
        }
      }
      hits[i].fetch_add(1);
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPoolTest, NestedParallelForDynamicRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  ParallelForDynamic(&pool, 4, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ParallelForDynamic(&pool, 4, 1, [&](size_t b, size_t e) {
        counter.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPoolTest, ParallelForDynamicSingleThreadRunsWholeRange) {
  ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  ParallelForDynamic(&pool, hits.size(), 8, [&hits](size_t begin,
                                                    size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ++hits[i];
    }
  });
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPoolTest, WaitIdleThenReuse) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, WaitIdleOnFreshPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.WaitIdle();  // nothing submitted: must not block
}

TEST(ThreadPoolTest, DestructorDrainsPendingQueue) {
  // Shutdown contract: tasks still queued when the destructor runs are
  // executed, not dropped.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolDeathTest, ThrowingTaskAbortsProcess) {
  // The library is exception-free: a task that throws escapes WorkerLoop
  // and must terminate the process rather than corrupt the pool.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.Submit([] { throw 42; });
        pool.WaitIdle();
      },
      "");
}

TEST(ThreadPoolTest, ParallelForDynamicSingleItem) {
  // count == 1 <= any chunk size: runs inline on the caller thread.
  ThreadPool pool(4);
  int calls = 0;
  size_t seen_begin = 99, seen_end = 99;
  ParallelForDynamic(&pool, 1, 0, [&](size_t begin, size_t end) {
    ++calls;
    seen_begin = begin;
    seen_end = end;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_begin, 0u);
  EXPECT_EQ(seen_end, 1u);
}

TEST(ThreadPoolTest, ParallelForDynamicMoreChunksThanThreads) {
  // 100 chunks over 2 workers: workers must loop back to the claim counter
  // until the range is exhausted, covering every index exactly once.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(100);
  std::atomic<int> invocations{0};
  ParallelForDynamic(&pool, hits.size(), 1, [&](size_t begin, size_t end) {
    invocations.fetch_add(1);
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(invocations.load(), 100);
}

TEST(ThreadPoolTest, ParallelForDynamicChunkLargerThanCountRunsInline) {
  ThreadPool pool(4);
  std::vector<int> hits(10, 0);
  ParallelForDynamic(&pool, hits.size(), 64, [&hits](size_t begin,
                                                     size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ++hits[i];
    }
  });
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

}  // namespace
}  // namespace dbscout
