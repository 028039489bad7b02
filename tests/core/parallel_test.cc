#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dbscout.h"
#include "grid/grid.h"
#include "grid/neighbor_cells.h"
#include "testutil.h"

namespace dbscout::core {
namespace {

class ParallelTest : public ::testing::Test {
 protected:
  dataflow::ExecutionContext ctx_{/*num_threads=*/4,
                                  /*default_partitions=*/8};
};

Params MakeParams(double eps, int min_pts, JoinStrategy join,
                  size_t partitions = 0) {
  Params params;
  params.eps = eps;
  params.min_pts = min_pts;
  params.engine = Engine::kParallel;
  params.join = join;
  params.num_partitions = partitions;
  return params;
}

TEST_F(ParallelTest, RejectsInvalidParams) {
  PointSet ps(2);
  ps.Add({0, 0});
  auto bad = MakeParams(-1.0, 5, JoinStrategy::kGrouped);
  EXPECT_FALSE(DetectParallel(ps, bad, &ctx_).ok());
}

TEST_F(ParallelTest, RejectsNonFinitePoints) {
  PointSet ps(2);
  ps.Add({0.0, std::numeric_limits<double>::quiet_NaN()});
  auto params = MakeParams(1.0, 5, JoinStrategy::kGrouped);
  EXPECT_FALSE(DetectParallel(ps, params, &ctx_).ok());
}

TEST_F(ParallelTest, EmptyInput) {
  PointSet ps(2);
  auto params = MakeParams(1.0, 5, JoinStrategy::kGrouped);
  auto r = DetectParallel(ps, params, &ctx_);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->outliers.empty());
}

TEST_F(ParallelTest, AllStrategiesMatchSequentialOnClusteredData) {
  Rng rng(101);
  const PointSet ps = testing::ClusteredPoints(&rng, 800, 2, 5, 0.2);
  Params seq;
  seq.eps = 1.5;
  seq.min_pts = 10;
  auto expected = DetectSequential(ps, seq);
  ASSERT_TRUE(expected.ok());
  for (JoinStrategy join : {JoinStrategy::kPlain, JoinStrategy::kBroadcast,
                            JoinStrategy::kGrouped}) {
    auto params = MakeParams(seq.eps, seq.min_pts, join);
    auto r = DetectParallel(ps, params, &ctx_);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->kinds, expected->kinds)
        << "strategy=" << JoinStrategyName(join);
    EXPECT_EQ(r->outliers, expected->outliers);
    EXPECT_EQ(r->num_core, expected->num_core);
    EXPECT_EQ(r->num_cells, expected->num_cells);
    EXPECT_EQ(r->num_dense_cells, expected->num_dense_cells);
    EXPECT_EQ(r->num_core_cells, expected->num_core_cells);
  }
}

TEST_F(ParallelTest, ResultIndependentOfPartitionCount) {
  Rng rng(77);
  const PointSet ps = testing::ClusteredPoints(&rng, 500, 3, 4, 0.25);
  Params seq;
  seq.eps = 2.0;
  seq.min_pts = 8;
  auto expected = DetectSequential(ps, seq);
  ASSERT_TRUE(expected.ok());
  for (size_t partitions : {1u, 2u, 7u, 32u}) {
    auto params =
        MakeParams(seq.eps, seq.min_pts, JoinStrategy::kGrouped, partitions);
    auto r = DetectParallel(ps, params, &ctx_);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->outliers, expected->outliers)
        << "partitions=" << partitions;
    EXPECT_EQ(r->kinds, expected->kinds);
  }
}

TEST_F(ParallelTest, RecordsPhaseAndShuffleStats) {
  Rng rng(3);
  const PointSet ps = testing::ClusteredPoints(&rng, 300, 2, 3, 0.3);
  auto params = MakeParams(1.0, 6, JoinStrategy::kGrouped);
  ctx_.ResetMetrics();
  auto r = DetectParallel(ps, params, &ctx_);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->phases.size(), 5u);
  EXPECT_EQ(r->phases[0].name, "grid");
  EXPECT_EQ(r->phases[2].name, "core_points");
  EXPECT_EQ(r->phases[4].name, "outliers");
  EXPECT_GT(r->shuffled_records, 0u);
  EXPECT_FALSE(ctx_.stages().empty());
}

// Phase 2 counts cells inside each partition before the CountCells shuffle,
// so that stage sees at most one record per (partition, cell), not one per
// point.
TEST_F(ParallelTest, CountCellsShufflesPerPartitionCounts) {
  Rng rng(5);
  const PointSet ps = testing::ClusteredPoints(&rng, 4000, 2, 3, 0.02);
  const size_t partitions = 4;
  ctx_.ResetMetrics();
  auto r = DetectParallel(
      ps, MakeParams(2.0, 6, JoinStrategy::kGrouped, partitions), &ctx_);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_LT(partitions * r->num_cells, ps.size());
  size_t count_cells_stages = 0;
  for (const auto& stage : ctx_.stages()) {
    if (stage.name == "CountCells") {
      ++count_cells_stages;
      EXPECT_LE(stage.records_in, partitions * r->num_cells);
      EXPECT_LE(stage.shuffled_records, stage.records_in);
      EXPECT_EQ(stage.records_out, r->num_cells);
    }
  }
  EXPECT_EQ(count_cells_stages, 1u);
}

// The records phases 3 and 5 emit, counted from the sequential grid: a
// point of a non-dense cell c goes to every cell of N(c), a point of a
// non-core cell to every core cell of N(c). Every join strategy emits the
// same records.
TEST_F(ParallelTest, EmitCountsFollowTheNeighborLists) {
  Rng rng(21);
  const PointSet ps = testing::ClusteredPoints(&rng, 600, 2, 4, 0.3);
  const double eps = 1.0;
  const uint32_t min_pts = 6;
  auto g = grid::Grid::Build(ps, eps);
  ASSERT_TRUE(g.ok()) << g.status();
  const grid::NeighborCells lists =
      grid::NeighborCells::Build(g->CellCoords());
  Params seq;
  seq.eps = eps;
  seq.min_pts = min_pts;
  auto expected = DetectSequential(ps, seq);
  ASSERT_TRUE(expected.ok());
  std::vector<uint8_t> core_cell(g->num_cells(), 0);
  for (uint32_t p = 0; p < ps.size(); ++p) {
    if (expected->kinds[p] == PointKind::kCore) {
      core_cell[g->CellIdOfPoint(p)] = 1;
    }
  }
  uint64_t to_check = 0;
  uint64_t to_check2 = 0;
  size_t sparse_core_cells = 0;
  for (uint32_t c = 0; c < g->num_cells(); ++c) {
    const uint64_t size = g->CellSize(c);
    const std::vector<uint32_t> neighbor_cells =
        testing::ExpandRuns(lists.Of(c));
    if (size < min_pts) {
      to_check += size * neighbor_cells.size();
      sparse_core_cells += core_cell[c];
    }
    if (!core_cell[c]) {
      for (uint32_t nc : neighbor_cells) {
        to_check2 += size * core_cell[nc];
      }
    }
  }
  // Both phases have work, and some sparse cells are core, so the two
  // emits differ.
  ASSERT_GT(to_check2, 0u);
  ASSERT_GT(sparse_core_cells, 0u);

  // The emit is fused into the stage that reads it: the grouped join's
  // GroupChecks shuffle, the broadcast join's collect, and the plain join's
  // shuffle, which also ships the targets (G in phase 3, the core points in
  // phase 5).
  struct EmitStages {
    JoinStrategy join;
    const char* phase3;
    const char* phase5;
    uint64_t targets3;
    uint64_t targets5;
  };
  for (const EmitStages& s :
       {EmitStages{JoinStrategy::kPlain, "JoinGrid", "JoinCore", ps.size(),
                   expected->num_core},
        EmitStages{JoinStrategy::kBroadcast, "CollectChecks",
                   "CollectChecks2", 0, 0},
        EmitStages{JoinStrategy::kGrouped, "GroupChecks", "GroupChecks2", 0,
                   0}}) {
    ctx_.ResetMetrics();
    auto r = DetectParallel(ps, MakeParams(eps, min_pts, s.join), &ctx_);
    ASSERT_TRUE(r.ok()) << r.status();
    std::map<std::string, uint64_t> records_in;
    for (const auto& stage : ctx_.stages()) {
      records_in[stage.name] += stage.records_in;
    }
    EXPECT_EQ(records_in[s.phase3], s.targets3 + to_check)
        << JoinStrategyName(s.join);
    EXPECT_EQ(records_in[s.phase5], s.targets5 + to_check2)
        << JoinStrategyName(s.join);
  }
}

// Phases 3 and 5 run one distance join whichever strategy realizes it, so
// the strategies compare the same pairs and reduce the same points (the
// counters Ablation A reports as equal).
TEST_F(ParallelTest, StrategiesShareDistanceCountsAndReducedRecords) {
  Rng rng(31);
  const PointSet ps = testing::ClusteredPoints(&rng, 1200, 2, 4, 0.3);
  struct Counters {
    uint64_t core_distances = 0;
    uint64_t outlier_distances = 0;
    uint64_t sum_neighbors_out = 0;
    uint64_t and_flags_out = 0;
  };
  std::vector<Counters> seen;
  for (JoinStrategy join : {JoinStrategy::kPlain, JoinStrategy::kBroadcast,
                            JoinStrategy::kGrouped}) {
    ctx_.ResetMetrics();
    auto r = DetectParallel(ps, MakeParams(1.0, 6, join), &ctx_);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->phases.size(), 5u);
    Counters c;
    c.core_distances = r->phases[2].distance_computations;
    c.outlier_distances = r->phases[4].distance_computations;
    for (const auto& stage : ctx_.stages()) {
      if (stage.name == "SumNeighbors") {
        c.sum_neighbors_out += stage.records_out;
      } else if (stage.name == "AndFlags") {
        c.and_flags_out += stage.records_out;
      }
    }
    seen.push_back(c);
  }
  // Both phases compare pairs and reduce points on this input.
  ASSERT_GT(seen[0].core_distances, 0u);
  ASSERT_GT(seen[0].outlier_distances, 0u);
  ASSERT_GT(seen[0].sum_neighbors_out, 0u);
  ASSERT_GT(seen[0].and_flags_out, 0u);
  for (size_t i = 1; i < seen.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(seen[i].core_distances, seen[0].core_distances);
    EXPECT_EQ(seen[i].outlier_distances, seen[0].outlier_distances);
    EXPECT_EQ(seen[i].sum_neighbors_out, seen[0].sum_neighbors_out);
    EXPECT_EQ(seen[i].and_flags_out, seen[0].and_flags_out);
  }
}

TEST_F(ParallelTest, FacadeDispatchesBothEngines) {
  Rng rng(9);
  const PointSet ps = testing::ClusteredPoints(&rng, 200, 2, 2, 0.3);
  Params params;
  params.eps = 1.0;
  params.min_pts = 5;
  params.engine = Engine::kSequential;
  auto seq = Detect(ps, params);
  ASSERT_TRUE(seq.ok());
  params.engine = Engine::kParallel;
  auto par = Detect(ps, params);
  ASSERT_TRUE(par.ok());
  EXPECT_EQ(seq->outliers, par->outliers);
  EXPECT_EQ(seq->kinds, par->kinds);
}

TEST_F(ParallelTest, MatchesBruteForceDirectly) {
  Rng rng(55);
  const PointSet ps = testing::UniformPoints(&rng, 250, 2, -5, 5);
  const double eps = 1.1;
  const int min_pts = 4;
  for (JoinStrategy join : {JoinStrategy::kPlain, JoinStrategy::kBroadcast,
                            JoinStrategy::kGrouped}) {
    auto r = DetectParallel(ps, MakeParams(eps, min_pts, join), &ctx_);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->kinds, testing::BruteForceKinds(ps, eps, min_pts))
        << "strategy=" << JoinStrategyName(join);
  }
}

}  // namespace
}  // namespace dbscout::core
