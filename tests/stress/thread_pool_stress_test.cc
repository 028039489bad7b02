// TSan stress tests for ParallelForDynamic (common/thread_pool.h) and its
// atomic chunk-claiming protocol. These run (and must pass) in every
// build mode, but their purpose is a ThreadSanitizer build
// (-DDBSCOUT_SANITIZE=thread): the loop bodies write to plain, non-atomic
// memory so that any double claim, lost completion signal, or premature
// return from the parallel-for shows up as a data race or a failed
// assertion.

#include "common/thread_pool.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace dbscout {
namespace {

// Tiny chunks maximize contention on the shared claim counter; every index
// must still be visited exactly once. The non-atomic writes are the race
// detector's bait: two workers claiming the same chunk write the same slot.
TEST(ThreadPoolStressTest, DynamicTinyChunksHammerClaimCounter) {
  ThreadPool pool(8);
  for (int round = 0; round < 20; ++round) {
    std::vector<uint32_t> hits(4096, 0);
    ParallelForDynamic(&pool, hits.size(), 1,
                       [&hits](size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i) {
                           hits[i] += 1;
                         }
                       });
    const uint64_t total =
        std::accumulate(hits.begin(), hits.end(), uint64_t{0});
    ASSERT_EQ(total, hits.size()) << "round " << round;
  }
}

// ParallelForDynamic must be a full barrier: writes made inside the loop
// body must be visible to the caller right after it returns, without any
// extra synchronization on the caller's side.
TEST(ThreadPoolStressTest, DynamicPublishesResultsToCaller) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::vector<uint64_t> out(257, 0);
    ParallelForDynamic(&pool, out.size(), 3,
                       [&out](size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i) {
                           out[i] = i * i;
                         }
                       });
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], i * i) << "round " << round;
    }
  }
}

// Several client threads (tasks on an outer pool) each drive their own
// dynamic loops on a shared inner pool, concurrently with direct calls
// from the main thread. Nesting is per pool, so the outer tasks' loops
// fan out onto the inner workers too: up to five loops at a time share
// one pool's queue and each keeps its own claim counter and completion
// signal.
TEST(ThreadPoolStressTest, ConcurrentClientsShareOnePool) {
  ThreadPool inner(4);
  ThreadPool outer(4);
  std::atomic<uint64_t> grand_total{0};
  for (int client = 0; client < 4; ++client) {
    outer.Submit([&inner, &grand_total] {
      uint64_t local = 0;
      for (int round = 0; round < 10; ++round) {
        std::vector<uint32_t> hits(512, 0);
        ParallelForDynamic(&inner, hits.size(), 2,
                           [&hits](size_t begin, size_t end) {
                             for (size_t i = begin; i < end; ++i) {
                               hits[i] += 1;
                             }
                           });
        local += std::accumulate(hits.begin(), hits.end(), uint64_t{0});
      }
      grand_total.fetch_add(local);
    });
  }
  for (int round = 0; round < 10; ++round) {
    std::vector<uint32_t> hits(512, 0);
    ParallelForDynamic(&inner, hits.size(), 2,
                       [&hits](size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i) {
                           hits[i] += 1;
                         }
                       });
    grand_total.fetch_add(std::accumulate(hits.begin(), hits.end(),
                                          uint64_t{0}));
  }
  outer.WaitIdle();
  EXPECT_EQ(grand_total.load(), uint64_t{5} * 10 * 512);
}

// Interleaves Submit/WaitIdle traffic with dynamic loops on the same pool:
// the completion signalling of ParallelForDynamic must not be confused by
// unrelated queue activity.
TEST(ThreadPoolStressTest, DynamicInterleavedWithPlainSubmits) {
  ThreadPool pool(4);
  std::atomic<uint64_t> submitted_work{0};
  for (int round = 0; round < 20; ++round) {
    for (int s = 0; s < 8; ++s) {
      pool.Submit([&submitted_work] { submitted_work.fetch_add(1); });
    }
    std::vector<uint32_t> hits(301, 0);
    ParallelForDynamic(&pool, hits.size(), 4,
                       [&hits](size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i) {
                           hits[i] += 1;
                         }
                       });
    ASSERT_EQ(std::accumulate(hits.begin(), hits.end(), uint64_t{0}),
              hits.size());
  }
  pool.WaitIdle();
  EXPECT_EQ(submitted_work.load(), 20u * 8u);
}

// Construction/destruction churn under load: the destructor must drain the
// queue and join cleanly even when the pool is torn down immediately after
// a burst of work.
TEST(ThreadPoolStressTest, TeardownAfterBurst) {
  for (int round = 0; round < 25; ++round) {
    std::atomic<int> counter{0};
    {
      ThreadPool pool(4);
      for (int i = 0; i < 64; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
      // No WaitIdle: the destructor is responsible for the drain.
    }
    ASSERT_EQ(counter.load(), 64) << "round " << round;
  }
}

}  // namespace
}  // namespace dbscout
