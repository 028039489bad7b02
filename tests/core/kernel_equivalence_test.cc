// Engine-level kernel equivalence: Detection output must be bit-identical
// whether the distance kernels are forced to the scalar reference or left
// to the runtime CPU dispatch (AVX2 or scalar), for every engine and for score
// mode. This is the guarantee that lets the SIMD path replace the scalar
// hot loops without perturbing the paper's exact outlier semantics.
#include <vector>

#include <gtest/gtest.h>

#include "core/dbscout.h"
#include "simd/distance_kernel.h"
#include "testutil.h"

namespace dbscout::core {
namespace {

/// Restores the force-scalar flag on scope exit so test order can't leak.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(bool force_scalar)
      : saved_(simd::ScalarKernelsForced()) {
    simd::ForceScalarKernels(force_scalar);
  }
  ~ScopedKernelMode() { simd::ForceScalarKernels(saved_); }

 private:
  bool saved_;
};

struct EngineRun {
  Detection sequential;
  Detection shared;
  Detection parallel;
};

EngineRun RunAllEngines(const PointSet& ps, const Params& params) {
  EngineRun run;
  auto seq = DetectSequential(ps, params);
  EXPECT_TRUE(seq.ok());
  run.sequential = std::move(*seq);

  ThreadPool pool(3);
  auto sh = DetectSharedMemory(ps, params, &pool);
  EXPECT_TRUE(sh.ok());
  run.shared = std::move(*sh);

  if (!params.compute_scores) {
    dataflow::ExecutionContext ctx(2, 6);
    Params pp = params;
    pp.engine = Engine::kParallel;
    pp.join = JoinStrategy::kGrouped;
    auto par = DetectParallel(ps, pp, &ctx);
    EXPECT_TRUE(par.ok());
    run.parallel = std::move(*par);
  }
  return run;
}

void ExpectIdentical(const Detection& a, const Detection& b,
                     const char* label) {
  EXPECT_EQ(a.outliers, b.outliers) << label;
  EXPECT_EQ(a.kinds, b.kinds) << label;
  EXPECT_EQ(a.num_core, b.num_core) << label;
  EXPECT_EQ(a.num_border, b.num_border) << label;
  // Bit-identical scores (vector<double> operator== is exact).
  EXPECT_EQ(a.core_distance, b.core_distance) << label;
}

class KernelEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(KernelEquivalenceTest, ScalarAndDispatchedDetectionsMatch) {
  const auto [eps, min_pts] = GetParam();
  Rng rng(4242);
  const PointSet ps = testing::ClusteredPoints(&rng, 1500, 2, 5, 0.3);
  Params params;
  params.eps = eps;
  params.min_pts = min_pts;

  EngineRun scalar_run = [&] {
    ScopedKernelMode mode(/*force_scalar=*/true);
    return RunAllEngines(ps, params);
  }();
  EngineRun simd_run = [&] {
    ScopedKernelMode mode(/*force_scalar=*/false);
    return RunAllEngines(ps, params);
  }();

  ExpectIdentical(scalar_run.sequential, simd_run.sequential, "sequential");
  ExpectIdentical(scalar_run.shared, simd_run.shared, "shared");
  ExpectIdentical(scalar_run.parallel, simd_run.parallel, "parallel");
  // And across engines within each mode (the sequential engine stays the
  // oracle regardless of kernel selection).
  ExpectIdentical(scalar_run.sequential, scalar_run.shared, "scalar x-eng");
  ExpectIdentical(simd_run.sequential, simd_run.shared, "simd x-eng");
  EXPECT_EQ(simd_run.sequential.outliers, simd_run.parallel.outliers);
}

TEST_P(KernelEquivalenceTest, ScoreModeIsBitIdenticalAcrossKernels) {
  const auto [eps, min_pts] = GetParam();
  Rng rng(777);
  const PointSet ps = testing::ClusteredPoints(&rng, 900, 3, 4, 0.35);
  Params params;
  params.eps = eps;
  params.min_pts = min_pts;
  params.compute_scores = true;

  EngineRun scalar_run = [&] {
    ScopedKernelMode mode(/*force_scalar=*/true);
    return RunAllEngines(ps, params);
  }();
  EngineRun simd_run = [&] {
    ScopedKernelMode mode(/*force_scalar=*/false);
    return RunAllEngines(ps, params);
  }();

  ExpectIdentical(scalar_run.sequential, simd_run.sequential, "sequential");
  ExpectIdentical(scalar_run.shared, simd_run.shared, "shared");
  ASSERT_EQ(simd_run.sequential.core_distance.size(), ps.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelEquivalenceTest,
    ::testing::Combine(::testing::Values(0.05, 0.15, 0.4),
                       ::testing::Values(2, 5, 20)));

TEST(KernelEquivalenceBoundaryTest, LatticePointsOnCellEdges) {
  // Lattice coordinates land exactly on cell boundaries and produce many
  // equal distances — the worst case for rounding-sensitive comparisons.
  const PointSet ps = testing::LatticePoints(12, 2, 0.5);
  Params params;
  params.eps = 1.0;
  params.min_pts = 5;

  Detection scalar_det = [&] {
    ScopedKernelMode mode(true);
    auto r = DetectSequential(ps, params);
    EXPECT_TRUE(r.ok());
    return std::move(*r);
  }();
  Detection simd_det = [&] {
    ScopedKernelMode mode(false);
    auto r = DetectSequential(ps, params);
    EXPECT_TRUE(r.ok());
    return std::move(*r);
  }();
  ExpectIdentical(scalar_det, simd_det, "lattice");
  EXPECT_EQ(simd_det.kinds, testing::BruteForceKinds(ps, 1.0, 5));
}

}  // namespace
}  // namespace dbscout::core
