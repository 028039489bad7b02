// Property-based sweeps: for randomized datasets across dimensionalities,
// distributions, eps, and minPts, every DBSCOUT engine and join strategy
// must reproduce the brute-force O(n^2) oracle exactly, and structural
// invariants of the detection must hold.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <deque>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include "core/dbscout.h"
#include "core/incremental.h"
#include "data/io.h"
#include "external/external_detector.h"
#include "grid/grid.h"
#include "grid/regions.h"
#include "testutil.h"

namespace dbscout::core {
namespace {

enum class Distribution { kUniform, kClustered, kLattice, kDuplicateHeavy };

const char* DistributionName(Distribution d) {
  switch (d) {
    case Distribution::kUniform:
      return "uniform";
    case Distribution::kClustered:
      return "clustered";
    case Distribution::kLattice:
      return "lattice";
    case Distribution::kDuplicateHeavy:
      return "duplicates";
  }
  return "?";
}

PointSet MakeDataset(Distribution distribution, size_t dims, uint64_t seed) {
  Rng rng(seed);
  switch (distribution) {
    case Distribution::kUniform:
      return testing::UniformPoints(&rng, 220, dims, -8.0, 8.0);
    case Distribution::kClustered:
      return testing::ClusteredPoints(&rng, 260, dims, 3, 0.2);
    case Distribution::kLattice: {
      // Points exactly on cell boundaries stress floor() handling.
      const size_t per_side = dims <= 2 ? 14 : (dims == 3 ? 6 : 4);
      return testing::LatticePoints(per_side, dims, 0.7);
    }
    case Distribution::kDuplicateHeavy: {
      PointSet base = testing::UniformPoints(&rng, 40, dims, -3.0, 3.0);
      PointSet out(dims);
      for (int rep = 0; rep < 5; ++rep) {
        out.Append(base);
      }
      return out;
    }
  }
  return PointSet(dims);
}

using Case = std::tuple<Distribution, size_t /*dims*/, double /*eps*/,
                        int /*min_pts*/>;

class DbscoutPropertyTest : public ::testing::TestWithParam<Case> {};

TEST_P(DbscoutPropertyTest, SequentialMatchesBruteForce) {
  const auto [distribution, dims, eps, min_pts] = GetParam();
  const PointSet ps = MakeDataset(distribution, dims, 1234 + dims);
  Params params;
  params.eps = eps;
  params.min_pts = min_pts;
  auto r = DetectSequential(ps, params);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->kinds, testing::BruteForceKinds(ps, eps, min_pts));
}

TEST_P(DbscoutPropertyTest, ParallelStrategiesMatchSequential) {
  const auto [distribution, dims, eps, min_pts] = GetParam();
  const PointSet ps = MakeDataset(distribution, dims, 1234 + dims);
  Params params;
  params.eps = eps;
  params.min_pts = min_pts;
  auto expected = DetectSequential(ps, params);
  ASSERT_TRUE(expected.ok());
  dataflow::ExecutionContext ctx(2, 6);
  for (JoinStrategy join : {JoinStrategy::kPlain, JoinStrategy::kBroadcast,
                            JoinStrategy::kGrouped}) {
    Params pp = params;
    pp.engine = Engine::kParallel;
    pp.join = join;
    auto r = DetectParallel(ps, pp, &ctx);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->kinds, expected->kinds)
        << "strategy=" << JoinStrategyName(join);
  }
}

// Out-of-core and incremental engines swept through the same grid as the
// in-memory ones: identical outlier sets on every (distribution, dims,
// eps, minPts) combination, including duplicates and lattice boundary
// points. All engines now drive the same phase kernels, so a divergence
// here means an engine's orchestration (striping, insertion order) broke.
TEST_P(DbscoutPropertyTest, ExternalAndIncrementalMatchSequential) {
  const auto [distribution, dims, eps, min_pts] = GetParam();
  const PointSet ps = MakeDataset(distribution, dims, 1234 + dims);
  Params params;
  params.eps = eps;
  params.min_pts = min_pts;
  auto expected = DetectSequential(ps, params);
  ASSERT_TRUE(expected.ok());

  // External, forced multi-stripe (70 points per stripe target).
  {
    const std::string path = ::testing::TempDir() + "/prop_ext_" +
                             std::to_string(::getpid()) + ".dbsc";
    ASSERT_TRUE(SavePointsBinary(path, ps).ok());
    external::ExternalParams ext;
    ext.eps = eps;
    ext.min_pts = min_pts;
    ext.target_stripe_points = 70;
    ext.tmp_dir = ::testing::TempDir();
    auto r = external::DetectExternal(path, ext);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->outliers, expected->outliers) << "external";
    EXPECT_EQ(r->num_core, expected->num_core);
    EXPECT_EQ(r->num_border, expected->num_border);
    EXPECT_EQ(r->num_cells, expected->num_cells);
    EXPECT_EQ(r->num_dense_cells, expected->num_dense_cells);
    std::remove(path.c_str());
  }
  // Incremental, the whole dataset as one batch.
  {
    auto det = IncrementalDetector::Create(ps.dims(), params);
    ASSERT_TRUE(det.ok());
    ASSERT_TRUE(det->AddBatchParallel(ps, nullptr).ok());
    EXPECT_EQ(det->Outliers(), testing::Widen(expected->outliers))
        << "incremental";
    EXPECT_EQ(det->kinds(), expected->kinds);
  }
}

// The sequential and pooled drivers execute the same cell kernels, so
// every deterministic PhaseRecorder counter — names, order, records, and
// distance-computation counts — must agree exactly (only seconds may
// differ). Distance counts are schedule-independent because early exits
// happen at cell/batch granularity inside the kernels, never across cells.
TEST_P(DbscoutPropertyTest, PhaseCountersMatchAcrossInMemoryEngines) {
  const auto [distribution, dims, eps, min_pts] = GetParam();
  const PointSet ps = MakeDataset(distribution, dims, 1234 + dims);
  Params params;
  params.eps = eps;
  params.min_pts = min_pts;
  auto seq = DetectSequential(ps, params);
  ASSERT_TRUE(seq.ok());
  ThreadPool pool(3);
  auto shared = DetectSharedMemory(ps, params, &pool);
  ASSERT_TRUE(shared.ok());
  ASSERT_EQ(seq->phases.size(), 5u);
  ASSERT_EQ(shared->phases.size(), 5u);
  const char* kCanonical[] = {"grid", "dense_cell_map", "core_points",
                              "core_cell_map", "outliers"};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(seq->phases[i].name, kCanonical[i]);
    EXPECT_EQ(shared->phases[i].name, kCanonical[i]);
    EXPECT_EQ(seq->phases[i].records, shared->phases[i].records)
        << "phase " << kCanonical[i];
    EXPECT_EQ(seq->phases[i].distance_computations,
              shared->phases[i].distance_computations)
        << "phase " << kCanonical[i];
  }
}

TEST_P(DbscoutPropertyTest, StructuralInvariants) {
  const auto [distribution, dims, eps, min_pts] = GetParam();
  const PointSet ps = MakeDataset(distribution, dims, 1234 + dims);
  Params params;
  params.eps = eps;
  params.min_pts = min_pts;
  auto r = DetectSequential(ps, params);
  ASSERT_TRUE(r.ok());

  // Labels partition the dataset.
  EXPECT_EQ(r->num_core + r->num_border + r->outliers.size(), ps.size());

  // Dense cells are a subset of core cells, core cells of all cells.
  EXPECT_LE(r->num_dense_cells, r->num_core_cells);
  EXPECT_LE(r->num_core_cells, r->num_cells);

  // No outlier may lie within eps of a core point; every border point must.
  const double eps2 = eps * eps;
  for (size_t i = 0; i < ps.size(); ++i) {
    if (r->kinds[i] == PointKind::kCore) {
      continue;
    }
    bool near_core = false;
    for (size_t j = 0; j < ps.size(); ++j) {
      if (r->kinds[j] == PointKind::kCore &&
          ps.SquaredDistance(i, j) <= eps2) {
        near_core = true;
        break;
      }
    }
    if (r->kinds[i] == PointKind::kOutlier) {
      EXPECT_FALSE(near_core) << "outlier " << i << " near a core point";
    } else {
      EXPECT_TRUE(near_core) << "border " << i << " not near any core point";
    }
  }

  // Outlier list is sorted, unique, and consistent with kinds.
  EXPECT_TRUE(std::is_sorted(r->outliers.begin(), r->outliers.end()));
  for (size_t k = 1; k < r->outliers.size(); ++k) {
    EXPECT_NE(r->outliers[k - 1], r->outliers[k]);
  }
  for (uint32_t p : r->outliers) {
    EXPECT_EQ(r->kinds[p], PointKind::kOutlier);
  }
}

// Monotonicity: growing eps (or shrinking minPts) can only shrink the
// outlier set.
TEST_P(DbscoutPropertyTest, OutliersMonotoneInParameters) {
  const auto [distribution, dims, eps, min_pts] = GetParam();
  const PointSet ps = MakeDataset(distribution, dims, 1234 + dims);
  Params params;
  params.eps = eps;
  params.min_pts = min_pts;
  auto base = DetectSequential(ps, params);
  ASSERT_TRUE(base.ok());

  Params wider = params;
  wider.eps = eps * 1.5;
  auto wide = DetectSequential(ps, wider);
  ASSERT_TRUE(wide.ok());
  EXPECT_LE(wide->outliers.size(), base->outliers.size());
  // Subset relation: every wide-eps outlier is also a base outlier.
  for (uint32_t p : wide->outliers) {
    EXPECT_EQ(base->kinds[p], PointKind::kOutlier);
  }

  if (min_pts > 1) {
    Params looser = params;
    looser.min_pts = min_pts - 1;
    auto loose = DetectSequential(ps, looser);
    ASSERT_TRUE(loose.ok());
    EXPECT_LE(loose->outliers.size(), base->outliers.size());
    for (uint32_t p : loose->outliers) {
      EXPECT_EQ(base->kinds[p], PointKind::kOutlier);
    }
  }
}

// The parallel apply pipeline (home-cell order, slab-block tasks over a
// real ThreadPool, three-wave scheduling) must be invisible: after every
// randomized batch the detector state equals the sequential oracle on the
// full prefix. Batch sizes are drawn at random, so a pass holds anywhere
// from one point to many points per home cell.
TEST(ShardedApplyPropertyTest, RandomBatchesMatchOracleAtEveryEpoch) {
  for (const uint64_t seed : {101u, 202u}) {
    Rng rng(seed);
    const PointSet stream = testing::ClusteredPoints(&rng, 420, 2, 3, 0.25);
    Params params;
    params.eps = 0.9;
    params.min_pts = 5;
    auto det = IncrementalDetector::Create(2, params);
    ASSERT_TRUE(det.ok());
    ThreadPool pool(3);
    size_t pos = 0;
    bool saw_multi_task = false;
    while (pos < stream.size()) {
      const size_t take = std::min<size_t>(1 + rng.NextBounded(96),
                                           stream.size() - pos);
      PointSet batch(2);
      for (size_t i = 0; i < take; ++i) {
        batch.Add(stream[pos + i]);
      }
      pos += take;
      ApplyStats stats;
      ASSERT_TRUE(det->AddBatchParallel(batch, &pool, &stats).ok());
      saw_multi_task |= stats.task_seconds.size() > 1;
      PointSet prefix(2);
      for (size_t j = 0; j < pos; ++j) {
        prefix.Add(stream[j]);
      }
      auto oracle = DetectSequential(prefix, params);
      ASSERT_TRUE(oracle.ok());
      ASSERT_EQ(det->kinds(), oracle->kinds) << "epoch " << pos;
      ASSERT_EQ(det->Outliers(), testing::Widen(oracle->outliers))
          << "epoch " << pos;
      ASSERT_EQ(det->num_core(), oracle->num_core) << "epoch " << pos;
    }
    // The point of the sweep is exercising the concurrent path; a stream
    // this size must split into several tasks (blocks >= 2) at least once.
    EXPECT_TRUE(saw_multi_task) << "seed " << seed;
  }
}

// Each slab block of a batch is one run of the home-cell order and one
// task: ApplyStats holds exactly one entry per distinct
// SlabBlock(home[0], HaloSlabs(2)), on a pool and inline. The batches
// land in chosen blocks (one block; adjacent blocks; blocks of all three
// waves, several per wave, negative ones included), and the labels must
// equal the oracle after each.
TEST(ShardedApplyPropertyTest, OneTaskPerSlabBlockOfTheBatch) {
  Params params;
  params.eps = 0.9;
  params.min_pts = 5;
  const double side = params.eps / std::sqrt(2.0);
  const int64_t width = grid::HaloSlabs(2);
  const std::vector<std::vector<int64_t>> batches_blocks = {
      {0}, {1, 2, 3}, {-4, -2, 0, 1, 5, 6, 8}};
  ThreadPool pool(3);
  for (ThreadPool* on : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    auto det = IncrementalDetector::Create(2, params);
    ASSERT_TRUE(det.ok());
    Rng rng(4242);
    PointSet prefix(2);
    for (const std::vector<int64_t>& blocks : batches_blocks) {
      PointSet batch(2);
      for (const int64_t block : blocks) {
        for (int i = 0; i < 30; ++i) {
          // Any slab of the block, clear of the slab's edges.
          const int64_t slab =
              block * width + static_cast<int64_t>(rng.NextBounded(width));
          batch.Add({(static_cast<double>(slab) + rng.Uniform(0.05, 0.95)) *
                         side,
                     rng.Uniform(0.0, 6.0)});
        }
      }
      std::set<int64_t> homes;
      for (size_t i = 0; i < batch.size(); ++i) {
        grid::CellCoord cell;
        ASSERT_TRUE(grid::CellOfPoint(batch[i], side, &cell).ok());
        homes.insert(grid::SlabBlock(cell[0], width));
      }
      ASSERT_EQ(homes, std::set<int64_t>(blocks.begin(), blocks.end()));
      ApplyStats stats;
      ASSERT_TRUE(det->AddBatchParallel(batch, on, &stats).ok());
      EXPECT_EQ(stats.task_seconds.size(), blocks.size())
          << blocks.size() << " blocks, pool " << (on != nullptr);
      prefix.Append(batch);
      auto oracle = DetectSequential(prefix, params);
      ASSERT_TRUE(oracle.ok());
      ASSERT_EQ(det->kinds(), oracle->kinds) << "epoch " << prefix.size();
      ASSERT_EQ(det->Outliers(), testing::Widen(oracle->outliers))
          << "epoch " << prefix.size();
    }
  }
}

// The service calls AddBatchParallel from its apply loop, a task on
// another pool. Nesting is per pool, so the waves still fan out over the
// pool passed in rather than running inline on the calling worker; the
// labels must equal the sequential oracle at every epoch all the same.
TEST(ShardedApplyPropertyTest, CalledFromAnotherPoolsTaskMatchesOracle) {
  Rng rng(303);
  const PointSet stream = testing::ClusteredPoints(&rng, 420, 2, 3, 0.25);
  Params params;
  params.eps = 0.9;
  params.min_pts = 5;
  auto det = IncrementalDetector::Create(2, params);
  ASSERT_TRUE(det.ok());
  ThreadPool apply_loop(1);
  ThreadPool workers(3);
  size_t pos = 0;
  while (pos < stream.size()) {
    const size_t take = std::min<size_t>(1 + rng.NextBounded(96),
                                         stream.size() - pos);
    PointSet batch(2);
    for (size_t i = 0; i < take; ++i) {
      batch.Add(stream[pos + i]);
    }
    pos += take;
    Status added = Status::Internal("not run");
    apply_loop.Submit(
        [&] { added = det->AddBatchParallel(batch, &workers); });
    apply_loop.WaitIdle();
    ASSERT_TRUE(added.ok()) << added;
    PointSet prefix(2);
    for (size_t j = 0; j < pos; ++j) {
      prefix.Add(stream[j]);
    }
    auto oracle = DetectSequential(prefix, params);
    ASSERT_TRUE(oracle.ok());
    ASSERT_EQ(det->kinds(), oracle->kinds) << "epoch " << pos;
    ASSERT_EQ(det->Outliers(), testing::Widen(oracle->outliers))
        << "epoch " << pos;
    ASSERT_EQ(det->num_core(), oracle->num_core) << "epoch " << pos;
  }
}

// Sliding-window shape: sharded inserts interleaved with oldest-first
// expiry through ExpireBefore (exactly what TTL expiry does). After every
// step the live window must label identically to a from-scratch
// sequential detection of just the live points.
TEST(ShardedApplyPropertyTest, WindowedRemovalsMatchOracleOnLiveWindow) {
  Rng rng(77);
  const PointSet stream = testing::ClusteredPoints(&rng, 360, 2, 3, 0.25);
  Params params;
  params.eps = 0.9;
  params.min_pts = 5;
  auto det = IncrementalDetector::Create(2, params);
  ASSERT_TRUE(det.ok());
  ThreadPool pool(3);
  std::deque<uint32_t> live;  // ids in insertion order (= ascending)
  size_t pos = 0;
  while (pos < stream.size()) {
    const size_t take = std::min<size_t>(1 + rng.NextBounded(64),
                                         stream.size() - pos);
    PointSet batch(2);
    for (size_t i = 0; i < take; ++i) {
      batch.Add(stream[pos + i]);
      live.push_back(static_cast<uint32_t>(pos + i));
    }
    pos += take;
    ASSERT_TRUE(det->AddBatchParallel(batch, &pool).ok());
    // Expire the oldest third of the window, batch-style.
    const size_t drop = live.size() / 3;
    ASSERT_TRUE(det->ExpireBefore(live[drop]).ok());
    live.erase(live.begin(), live.begin() + static_cast<std::ptrdiff_t>(drop));
    ASSERT_EQ(det->window_begin(), live.front());
    PointSet window(2);
    for (const uint32_t id : live) {
      window.Add(stream[id]);
    }
    auto oracle = DetectSequential(window, params);
    ASSERT_TRUE(oracle.ok());
    ASSERT_EQ(det->live_points(), live.size());
    ASSERT_EQ(det->num_core(), oracle->num_core) << "epoch " << pos;
    std::vector<uint64_t> expected_outliers;
    for (size_t k = 0; k < live.size(); ++k) {
      ASSERT_EQ(det->KindOf(live[k]), oracle->kinds[k])
          << "epoch " << pos << " live id " << live[k];
      if (oracle->kinds[k] == PointKind::kOutlier) {
        expected_outliers.push_back(live[k]);
      }
    }
    ASSERT_EQ(det->Outliers(), expected_outliers) << "epoch " << pos;
  }
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  const auto [distribution, dims, eps, min_pts] = info.param;
  std::string eps_tag = std::to_string(eps);
  for (auto& c : eps_tag) {
    if (c == '.' || c == '-') {
      c = '_';
    }
  }
  return std::string(DistributionName(distribution)) + "_d" +
         std::to_string(dims) + "_eps" + eps_tag + "_m" +
         std::to_string(min_pts);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DbscoutPropertyTest,
    ::testing::Combine(
        ::testing::Values(Distribution::kUniform, Distribution::kClustered,
                          Distribution::kLattice,
                          Distribution::kDuplicateHeavy),
        ::testing::Values(size_t{1}, size_t{2}, size_t{3}, size_t{5}),
        ::testing::Values(0.7, 1.6),
        ::testing::Values(2, 6)),
    CaseName);

}  // namespace
}  // namespace dbscout::core
