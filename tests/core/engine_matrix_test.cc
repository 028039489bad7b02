// Cross-engine matrix: every pair of engines (sequential, shared-memory,
// dataflow x 3 join strategies, external, incremental) must agree exactly
// on the same data — the library's strongest consistency guarantee,
// swept over parameters.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/dbscout.h"
#include "core/incremental.h"
#include "data/io.h"
#include "external/external_detector.h"
#include "testutil.h"

namespace dbscout::core {
namespace {

using Case = std::tuple<double /*eps*/, int /*min_pts*/>;

class EngineMatrixTest : public ::testing::TestWithParam<Case> {};

TEST_P(EngineMatrixTest, AllSevenPathsAgree) {
  const auto [eps, min_pts] = GetParam();
  Rng rng(777);
  const PointSet ps = testing::ClusteredPoints(&rng, 1200, 2, 4, 0.25);
  Params params;
  params.eps = eps;
  params.min_pts = min_pts;

  auto sequential = DetectSequential(ps, params);
  ASSERT_TRUE(sequential.ok());
  const auto& expected = sequential->outliers;

  // Shared memory.
  {
    ThreadPool pool(3);
    auto r = DetectSharedMemory(ps, params, &pool);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->outliers, expected) << "shared-memory";
    EXPECT_EQ(r->kinds, sequential->kinds);
  }
  // Dataflow, all join strategies.
  dataflow::ExecutionContext ctx(2, 6);
  for (JoinStrategy join : {JoinStrategy::kPlain, JoinStrategy::kBroadcast,
                            JoinStrategy::kGrouped}) {
    Params pp = params;
    pp.engine = Engine::kParallel;
    pp.join = join;
    auto r = DetectParallel(ps, pp, &ctx);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->outliers, expected) << JoinStrategyName(join);
  }
  // External (via a temp file, forced multi-stripe).
  {
    // Pid-unique path: the three sweep cases run as sibling processes
    // against the same TempDir, and a fixed name lets one case remove or
    // truncate the file while another is streaming it.
    const std::string path = ::testing::TempDir() + "/engine_matrix_" +
                             std::to_string(::getpid()) + ".dbsc";
    ASSERT_TRUE(SavePointsBinary(path, ps).ok());
    external::ExternalParams ext;
    ext.eps = eps;
    ext.min_pts = min_pts;
    ext.target_stripe_points = 150;
    ext.tmp_dir = ::testing::TempDir();
    ThreadPool pool(2);
    auto r = external::DetectExternal(path, ext, &pool);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->outliers, expected) << "external";
    std::remove(path.c_str());
  }
  // Incremental.
  {
    auto det = IncrementalDetector::Create(2, params);
    ASSERT_TRUE(det.ok());
    ASSERT_TRUE(det->AddBatchParallel(ps, nullptr).ok());
    EXPECT_EQ(det->Outliers(), testing::Widen(expected)) << "incremental";
    EXPECT_EQ(det->kinds(), sequential->kinds);
  }
}

TEST_P(EngineMatrixTest, ScoringEnginesAgreeOnDistances) {
  const auto [eps, min_pts] = GetParam();
  Rng rng(778);
  const PointSet ps = testing::ClusteredPoints(&rng, 800, 3, 3, 0.3);
  Params params;
  params.eps = eps;
  params.min_pts = min_pts;
  params.compute_scores = true;
  auto sequential = DetectSequential(ps, params);
  ASSERT_TRUE(sequential.ok());
  ThreadPool pool(3);
  auto shared = DetectSharedMemory(ps, params, &pool);
  ASSERT_TRUE(shared.ok());
  ASSERT_EQ(shared->core_distance.size(), sequential->core_distance.size());
  for (size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(shared->core_distance[i], sequential->core_distance[i])
        << "point " << i;
  }
  // The dataflow engine rejects scoring explicitly.
  dataflow::ExecutionContext ctx(2, 4);
  Params pp = params;
  pp.engine = Engine::kParallel;
  auto rejected = DetectParallel(ps, pp, &ctx);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineMatrixTest,
                         ::testing::Values(Case{0.9, 4}, Case{1.8, 10},
                                           Case{4.0, 25}),
                         [](const auto& info) {
                           return "case" + std::to_string(info.index);
                         });

// Every engine maps a point to its cell through grid::CellOfPoint, so each
// rejects the same bad inputs with the same code: a NaN coordinate is
// InvalidArgument, a coordinate whose cell index would overflow int64 is
// OutOfRange. Each set puts the bad point in the second of the shared
// engine's two grid-build tasks, and in the second of the external
// engine's two tasks of its one batch; the large ones also split the
// cells. The last two sets add a second bad point of the other kind to
// the first task's range: the earlier point's code wins.
TEST(EngineInputTest, EveryEngineRejectsNanAndOverflowingCoordinates) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    const char* name;
    double bad;
    StatusCode code;
    size_t n;
    std::optional<double> earlier;  // at n / 4, deciding the code
  } cases[] = {
      {"NaN", kNan, StatusCode::kInvalidArgument, 4, std::nullopt},
      {"1e300", 1e300, StatusCode::kOutOfRange, 4, std::nullopt},
      {"NaN", kNan, StatusCode::kInvalidArgument, 30000, std::nullopt},
      {"1e300", 1e300, StatusCode::kOutOfRange, 30000, std::nullopt},
      {"1e300 then NaN", kNan, StatusCode::kOutOfRange, 30000, 1e300},
      {"NaN then 1e300", 1e300, StatusCode::kInvalidArgument, 30000, kNan}};
  for (const auto& c : cases) {
    PointSet ps(2);
    for (size_t i = 0; i < c.n; ++i) {
      const double x = 0.5 * static_cast<double>(i % 7);
      const double y = 0.5 * static_cast<double>(i % 5);
      if (i == c.n * 3 / 4) {
        ps.Add({c.bad, y});
      } else if (i == c.n / 4 && c.earlier.has_value()) {
        ps.Add({*c.earlier, y});
      } else {
        ps.Add({x, y});
      }
    }
    Params params;
    params.eps = 1.0;
    params.min_pts = 2;
    const std::string what = std::string("bad coordinate ") + c.name +
                             ", n=" + std::to_string(c.n);

    EXPECT_EQ(DetectSequential(ps, params).status().code(), c.code) << what;
    ThreadPool pool(2);
    EXPECT_EQ(DetectSharedMemory(ps, params, &pool).status().code(), c.code)
        << what;
    dataflow::ExecutionContext ctx(2, 4);
    for (JoinStrategy join : {JoinStrategy::kPlain, JoinStrategy::kBroadcast,
                              JoinStrategy::kGrouped}) {
      Params pp = params;
      pp.engine = Engine::kParallel;
      pp.join = join;
      EXPECT_EQ(DetectParallel(ps, pp, &ctx).status().code(), c.code)
          << what << ", " << JoinStrategyName(join);
    }
    const std::string path = ::testing::TempDir() + "/engine_input_" +
                             std::to_string(::getpid()) + ".dbsc";
    ASSERT_TRUE(SavePointsBinary(path, ps).ok());
    external::ExternalParams ext;
    ext.eps = params.eps;
    ext.min_pts = params.min_pts;
    ext.batch_points = c.n;
    ext.tmp_dir = ::testing::TempDir();
    EXPECT_EQ(external::DetectExternal(path, ext).status().code(), c.code)
        << what << ", external";
    EXPECT_EQ(external::DetectExternal(path, ext, &pool).status().code(),
              c.code)
        << what << ", external on a pool of 2";
    std::remove(path.c_str());
    auto det = IncrementalDetector::Create(2, params);
    ASSERT_TRUE(det.ok());
    EXPECT_EQ(det->AddBatchParallel(ps, nullptr).code(), c.code)
        << what << ", incremental";
    EXPECT_EQ(det->live_points(), 0u) << "a rejected batch applies nothing";
  }
}

// At d = 7 and 9 the stencil has 472k and 8.1M offsets (Table I); the
// batch engines find neighbor cells from the occupied cells instead, so
// their exactness is affordable to check against the brute-force oracle.
class HighDimEngineTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HighDimEngineTest, BatchEnginesEqualBruteForce) {
  const size_t d = GetParam();
  Rng rng(900 + d);
  const PointSet ps = testing::ClusteredPoints(&rng, 300, d, 3, 0.15);
  Params params;
  params.eps = 5.0;
  params.min_pts = 6;
  const auto expected_kinds =
      testing::BruteForceKinds(ps, params.eps, params.min_pts);
  const auto expected =
      testing::BruteForceOutliers(ps, params.eps, params.min_pts);
  // The oracle's answer has all three kinds, so every phase decides.
  for (PointKind kind :
       {PointKind::kCore, PointKind::kBorder, PointKind::kOutlier}) {
    EXPECT_NE(std::count(expected_kinds.begin(), expected_kinds.end(), kind),
              0);
  }

  auto sequential = DetectSequential(ps, params);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  EXPECT_EQ(sequential->kinds, expected_kinds) << "sequential";
  {
    ThreadPool pool(3);
    auto r = DetectSharedMemory(ps, params, &pool);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->kinds, expected_kinds) << "shared-memory";
  }
  dataflow::ExecutionContext ctx(2, 4);
  for (JoinStrategy join : {JoinStrategy::kPlain, JoinStrategy::kBroadcast,
                            JoinStrategy::kGrouped}) {
    Params pp = params;
    pp.engine = Engine::kParallel;
    pp.join = join;
    auto r = DetectParallel(ps, pp, &ctx);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->kinds, expected_kinds) << JoinStrategyName(join);
  }
  {
    const std::string path = ::testing::TempDir() + "/engine_matrix_highdim_" +
                             std::to_string(::getpid()) + ".dbsc";
    ASSERT_TRUE(SavePointsBinary(path, ps).ok());
    external::ExternalParams ext;
    ext.eps = params.eps;
    ext.min_pts = params.min_pts;
    ext.target_stripe_points = 100;  // several stripes
    ext.tmp_dir = ::testing::TempDir();
    ThreadPool pool(2);
    auto r = external::DetectExternal(path, ext, &pool);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_GT(r->stripes, 1u);
    EXPECT_EQ(r->outliers, expected) << "external";
    std::remove(path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, HighDimEngineTest, ::testing::Values(7, 9),
                         [](const auto& info) {
                           return std::to_string(info.param) + "d";
                         });

}  // namespace
}  // namespace dbscout::core
