#include <gtest/gtest.h>

#include "core/dbscout.h"
#include "testutil.h"

namespace dbscout::core {
namespace {

TEST(SharedMemoryTest, RejectsInvalidParams) {
  PointSet ps(2);
  ps.Add({0, 0});
  ThreadPool pool(2);
  Params params;
  params.eps = -1.0;
  EXPECT_FALSE(DetectSharedMemory(ps, params, &pool).ok());
}

TEST(SharedMemoryTest, EmptyInput) {
  PointSet ps(2);
  ThreadPool pool(2);
  Params params;
  auto r = DetectSharedMemory(ps, params, &pool);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->outliers.empty());
}

TEST(SharedMemoryTest, MatchesSequentialOnClusteredData) {
  Rng rng(61);
  const PointSet ps = testing::ClusteredPoints(&rng, 1500, 2, 5, 0.2);
  ThreadPool pool(4);
  for (double eps : {0.8, 1.5, 3.0}) {
    for (int min_pts : {3, 8, 20}) {
      Params params;
      params.eps = eps;
      params.min_pts = min_pts;
      auto expected = DetectSequential(ps, params);
      ASSERT_TRUE(expected.ok());
      auto shared = DetectSharedMemory(ps, params, &pool);
      ASSERT_TRUE(shared.ok());
      EXPECT_EQ(shared->kinds, expected->kinds)
          << "eps=" << eps << " minPts=" << min_pts;
      EXPECT_EQ(shared->outliers, expected->outliers);
      EXPECT_EQ(shared->num_cells, expected->num_cells);
      EXPECT_EQ(shared->num_dense_cells, expected->num_dense_cells);
      EXPECT_EQ(shared->num_core_cells, expected->num_core_cells);
    }
  }
}

TEST(SharedMemoryTest, DeterministicAcrossThreadCounts) {
  Rng rng(62);
  const PointSet ps = testing::ClusteredPoints(&rng, 1000, 3, 4, 0.3);
  Params params;
  params.eps = 2.0;
  params.min_pts = 8;
  std::vector<std::vector<uint32_t>> results;
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    auto r = DetectSharedMemory(ps, params, &pool);
    ASSERT_TRUE(r.ok());
    results.push_back(r->outliers);
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(SharedMemoryTest, FacadeDispatch) {
  Rng rng(63);
  const PointSet ps = testing::ClusteredPoints(&rng, 500, 2, 3, 0.2);
  Params params;
  params.eps = 1.0;
  params.min_pts = 5;
  params.engine = Engine::kSharedMemory;
  auto via_facade = Detect(ps, params);
  ASSERT_TRUE(via_facade.ok());
  params.engine = Engine::kSequential;
  auto reference = Detect(ps, params);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(via_facade->outliers, reference->outliers);
  EXPECT_EQ(std::string(EngineName(Engine::kSharedMemory)), "shared-memory");
}

TEST(SharedMemoryTest, MatchesBruteForce) {
  Rng rng(64);
  const PointSet ps = testing::UniformPoints(&rng, 400, 2, -6, 6);
  ThreadPool pool(4);
  Params params;
  params.eps = 1.0;
  params.min_pts = 4;
  auto r = DetectSharedMemory(ps, params, &pool);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kinds,
            testing::BruteForceKinds(ps, params.eps, params.min_pts));
}

TEST(SharedMemoryTest, PhaseStatsPopulated) {
  Rng rng(65);
  const PointSet ps = testing::ClusteredPoints(&rng, 800, 2, 3, 0.2);
  ThreadPool pool(4);
  Params params;
  params.eps = 1.2;
  params.min_pts = 6;
  auto r = DetectSharedMemory(ps, params, &pool);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->phases.size(), 5u);
  EXPECT_GT(r->phases[2].distance_computations, 0u);
}

TEST(SharedMemoryTest, NullPoolRunsInlineLikeSequential) {
  Rng rng(66);
  const PointSet ps = testing::ClusteredPoints(&rng, 1200, 2, 4, 0.2);
  Params params;
  params.eps = 1.2;
  params.min_pts = 6;
  auto expected = DetectSequential(ps, params);
  ASSERT_TRUE(expected.ok());
  auto r = DetectSharedMemory(ps, params, /*pool=*/nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->outliers, expected->outliers);
  ASSERT_EQ(r->phases.size(), expected->phases.size());
  for (size_t i = 0; i < r->phases.size(); ++i) {
    EXPECT_EQ(r->phases[i].name, expected->phases[i].name);
    EXPECT_EQ(r->phases[i].distance_computations,
              expected->phases[i].distance_computations)
        << r->phases[i].name;
  }
}

}  // namespace
}  // namespace dbscout::core
