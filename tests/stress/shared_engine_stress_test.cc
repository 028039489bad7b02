// TSan stress test for the shared-memory engine's phase-3/5 cell loops.
// The dataset is deliberately skewed (most points packed into a handful of
// grid cells, the rest scattered across many sparse cells) so that
// ParallelForDynamic's chunk claiming actually rebalances: dense cells keep
// one worker busy while others race ahead through empty neighborhoods —
// exactly the interleaving where a racy label write or core-CSR fill would
// surface under ThreadSanitizer. Results are checked against the sequential
// engine, so a silent race that corrupts output fails in every build mode.

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dbscout.h"
#include "testutil.h"

namespace dbscout::core {
namespace {

// ~85% of points in two tight blobs (few very dense cells), the rest spread
// over a wide area (many cells with 0-2 points).
PointSet SkewedPoints(Rng* rng, size_t n) {
  PointSet ps(2);
  for (size_t i = 0; i < n; ++i) {
    const double pick = rng->NextDouble();
    if (pick < 0.6) {
      ps.Add({rng->NextGaussian() * 0.05, rng->NextGaussian() * 0.05});
    } else if (pick < 0.85) {
      ps.Add({30.0 + rng->NextGaussian() * 0.05,
              30.0 + rng->NextGaussian() * 0.05});
    } else {
      ps.Add({rng->Uniform(-50.0, 50.0), rng->Uniform(-50.0, 50.0)});
    }
  }
  return ps;
}

TEST(SharedEngineStressTest, SkewedCellsMatchSequentialUnderContention) {
  Rng rng(20260806);
  const PointSet ps = SkewedPoints(&rng, 4000);
  Params params;
  params.eps = 1.0;
  params.min_pts = 10;
  auto expected = DetectSequential(ps, params);
  ASSERT_TRUE(expected.ok());
  // Oversubscribed pool (more threads than cores on CI machines) plus
  // repeated runs: each run re-races the phase-3/5 loops.
  ThreadPool pool(8);
  for (int round = 0; round < 8; ++round) {
    auto r = DetectSharedMemory(ps, params, &pool);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->kinds, expected->kinds) << "round " << round;
    ASSERT_EQ(r->outliers, expected->outliers) << "round " << round;
  }
}

TEST(SharedEngineStressTest, ScoresPathRacesAllCells) {
  // compute_scores makes phase 5 visit every cell (including core cells)
  // and exercises the min-distance kernel path plus the core_distance
  // vector, whose slots must be written by exactly one worker.
  Rng rng(20260807);
  const PointSet ps = SkewedPoints(&rng, 2500);
  Params params;
  params.eps = 1.5;
  params.min_pts = 8;
  params.compute_scores = true;
  auto expected = DetectSequential(ps, params);
  ASSERT_TRUE(expected.ok());
  ThreadPool pool(8);
  for (int round = 0; round < 5; ++round) {
    auto r = DetectSharedMemory(ps, params, &pool);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->kinds, expected->kinds) << "round " << round;
    ASSERT_EQ(r->core_distance, expected->core_distance) << "round " << round;
  }
}

TEST(SharedEngineStressTest, ConcurrentDetectionsOnSeparatePools) {
  // Two fully-parallel detections running at once (separate pools, shared
  // immutable input) must not interfere: the engine may only write through
  // its own Detection and locals. A stray static or global would race here.
  // The drivers are raw threads, so each engine's loops fan out over its
  // own pool's workers.
  Rng rng(20260808);
  const PointSet ps = SkewedPoints(&rng, 2000);
  Params params;
  params.eps = 1.0;
  params.min_pts = 6;
  auto expected = DetectSequential(ps, params);
  ASSERT_TRUE(expected.ok());
  ThreadPool pool_a(4);
  ThreadPool pool_b(4);
  std::vector<int> mismatches(2, 0);
  ThreadPool* pools[2] = {&pool_a, &pool_b};
  std::vector<std::thread> drivers;  // lint:allow(raw-thread) see above
  for (int slot = 0; slot < 2; ++slot) {
    drivers.emplace_back([&, slot] {
      for (int round = 0; round < 4; ++round) {
        auto r = DetectSharedMemory(ps, params, pools[slot]);
        if (!r.ok() || r->kinds != expected->kinds) {
          ++mismatches[slot];
        }
      }
    });
  }
  for (auto& t : drivers) {
    t.join();
  }
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
}

}  // namespace
}  // namespace dbscout::core
