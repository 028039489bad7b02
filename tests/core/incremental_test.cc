#include "core/incremental.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/dbscout.h"
#include "datasets/synthetic.h"
#include "testutil.h"

namespace dbscout::core {
namespace {

Params MakeParams(double eps, int min_pts) {
  Params params;
  params.eps = eps;
  params.min_pts = min_pts;
  return params;
}

TEST(IncrementalTest, RejectsInvalidConfig) {
  EXPECT_FALSE(IncrementalDetector::Create(0, MakeParams(1.0, 5)).ok());
  EXPECT_FALSE(IncrementalDetector::Create(2, MakeParams(0.0, 5)).ok());
  EXPECT_FALSE(IncrementalDetector::Create(2, MakeParams(1.0, 0)).ok());
  EXPECT_FALSE(
      IncrementalDetector::Create(kMaxDims + 1, MakeParams(1.0, 5)).ok());
}

TEST(IncrementalTest, RejectsBadPoints) {
  auto det = IncrementalDetector::Create(2, MakeParams(1.0, 5));
  ASSERT_TRUE(det.ok());
  const double wrong_dims[] = {1.0};
  EXPECT_FALSE(det->Add({wrong_dims, 1}).ok());
  const double nan_point[] = {1.0, std::nan("")};
  EXPECT_FALSE(det->Add({nan_point, 2}).ok());
}

TEST(IncrementalTest, SinglePointLifecycle) {
  auto det = IncrementalDetector::Create(1, MakeParams(1.0, 2));
  ASSERT_TRUE(det.ok());
  const double p0[] = {0.0};
  auto idx = det->Add({p0, 1});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 0u);
  EXPECT_EQ(det->KindOf(0), PointKind::kOutlier);
  // A second point within eps promotes both to core (count 2 >= minPts 2).
  const double p1[] = {0.5};
  ASSERT_TRUE(det->Add({p1, 1}).ok());
  EXPECT_EQ(det->KindOf(0), PointKind::kCore);
  EXPECT_EQ(det->KindOf(1), PointKind::kCore);
  EXPECT_TRUE(det->Outliers().empty());
}

TEST(IncrementalTest, OutlierRescuedByLaterInsertions) {
  // A lone point is an outlier until enough mass arrives nearby to form a
  // dense region that covers it.
  auto det = IncrementalDetector::Create(1, MakeParams(1.0, 4));
  ASSERT_TRUE(det.ok());
  const double lone[] = {0.9};
  ASSERT_TRUE(det->Add({lone, 1}).ok());
  EXPECT_EQ(det->KindOf(0), PointKind::kOutlier);
  for (int i = 0; i < 4; ++i) {
    const double p[] = {0.0};
    ASSERT_TRUE(det->Add({p, 1}).ok());
  }
  // The stack of four at 0.0 plus the lone point at 0.9: stack counts are
  // 5 >= 4 -> core; the lone point (count 5, also >= 4) becomes core too.
  EXPECT_EQ(det->KindOf(0), PointKind::kCore);
}

class IncrementalEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<double, int, uint64_t>> {};

TEST_P(IncrementalEquivalenceTest, MatchesBatchDetectionAtEveryCheckpoint) {
  const auto [eps, min_pts, seed] = GetParam();
  Rng rng(seed);
  const PointSet stream = testing::ClusteredPoints(&rng, 600, 2, 3, 0.25);
  auto det = IncrementalDetector::Create(2, MakeParams(eps, min_pts));
  ASSERT_TRUE(det.ok());
  const Params batch_params = MakeParams(eps, min_pts);
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(det->Add(stream[i]).ok());
    // Checkpoint at several prefixes, including awkward ones.
    if (i == 0 || i == 7 || i == 99 || i == 350 || i + 1 == stream.size()) {
      PointSet prefix(2);
      for (size_t j = 0; j <= i; ++j) {
        prefix.Add(stream[j]);
      }
      auto batch = DetectSequential(prefix, batch_params);
      ASSERT_TRUE(batch.ok());
      EXPECT_EQ(det->kinds(), batch->kinds) << "prefix " << i + 1;
      EXPECT_EQ(det->Outliers(), testing::Widen(batch->outliers));
      EXPECT_EQ(det->num_core(), batch->num_core);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementalEquivalenceTest,
    ::testing::Values(std::make_tuple(0.8, 4, 11u),
                      std::make_tuple(1.5, 8, 12u),
                      std::make_tuple(3.0, 2, 13u),
                      std::make_tuple(0.5, 15, 14u)),
    [](const auto& info) {
      return "case" + std::to_string(info.index);
    });

TEST(IncrementalTest, AddBatchEqualsPointwiseAdds) {
  const auto data = datasets::Blobs(800, 0.02, 21);
  auto a = IncrementalDetector::Create(2, MakeParams(0.7, 5));
  auto b = IncrementalDetector::Create(2, MakeParams(0.7, 5));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a->AddBatchParallel(data.points, nullptr).ok());
  for (size_t i = 0; i < data.points.size(); ++i) {
    ASSERT_TRUE(b->Add(data.points[i]).ok());
  }
  EXPECT_EQ(a->kinds(), b->kinds());
}

TEST(IncrementalTest, InsertionOrderDoesNotMatter) {
  Rng rng(31);
  const PointSet stream = testing::ClusteredPoints(&rng, 300, 2, 2, 0.3);
  const Params params = MakeParams(1.2, 6);
  auto forward = IncrementalDetector::Create(2, params);
  auto backward = IncrementalDetector::Create(2, params);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(forward->Add(stream[i]).ok());
    ASSERT_TRUE(backward->Add(stream[stream.size() - 1 - i]).ok());
  }
  // Same multiset of points -> same number of outliers/core points (the
  // index labels differ because the order differs).
  EXPECT_EQ(forward->Outliers().size(), backward->Outliers().size());
  EXPECT_EQ(forward->num_core(), backward->num_core());
}

TEST(IncrementalTest, RemoveRejectsUnknownAndDoubleRemoves) {
  auto det = IncrementalDetector::Create(1, MakeParams(1.0, 2));
  ASSERT_TRUE(det.ok());
  EXPECT_FALSE(det->Remove(0).ok());  // never inserted
  const double p[] = {0.0};
  ASSERT_TRUE(det->Add({p, 1}).ok());
  ASSERT_TRUE(det->Remove(0).ok());
  const Status again = det->Remove(0);
  EXPECT_EQ(again.code(), StatusCode::kNotFound);
}

TEST(IncrementalTest, RemoveUpdatesLivenessNotEpoch) {
  auto det = IncrementalDetector::Create(1, MakeParams(1.0, 3));
  ASSERT_TRUE(det.ok());
  for (int i = 0; i < 4; ++i) {
    const double p[] = {static_cast<double>(i) * 10.0};  // isolated outliers
    ASSERT_TRUE(det->Add({p, 1}).ok());
  }
  ASSERT_TRUE(det->Remove(0).ok());
  EXPECT_EQ(det->epoch(), 4u);  // indices never rewind
  EXPECT_EQ(det->window_begin(), 1u);
  EXPECT_EQ(det->live_points(), 3u);
  // The removed id leaves the window, and with it the outlier list.
  EXPECT_EQ(det->Outliers(), (std::vector<uint64_t>{1, 2, 3}));
  auto snap = det->SnapshotNow();
  EXPECT_EQ(snap->window_begin(), 1u);
  EXPECT_EQ(snap->live_points(), 3u);
  EXPECT_EQ(snap->Outliers(), (std::vector<uint64_t>{1, 2, 3}));
}

// Remove takes only the oldest live id, and taking it is exactly
// ExpireBefore(id + 1): a twin detector that expires instead ends with the
// same labels after every step, demotions and uncoverings included.
TEST(IncrementalTest, RemoveTakesOnlyTheOldestLiveId) {
  const Params params = MakeParams(1.0, 5);
  auto det = IncrementalDetector::Create(2, params);
  auto twin = IncrementalDetector::Create(2, params);
  ASSERT_TRUE(det.ok() && twin.ok());
  Rng rng(0x01d);
  const PointSet points = testing::ClusteredPoints(&rng, 300, 2, 3, 0.4);
  ASSERT_TRUE(det->AddBatchParallel(points, nullptr).ok());
  ASSERT_TRUE(twin->AddBatchParallel(points, nullptr).ok());
  bool saw_demotion = false;
  while (det->live_points() > 1) {
    const uint64_t epoch = det->epoch();
    const uint64_t begin = det->window_begin();
    const std::vector<PointKind> kinds = det->kinds();
    const uint64_t comps = det->distance_computations();
    EXPECT_EQ(det->Remove(begin + 1).code(), StatusCode::kFailedPrecondition);
    ASSERT_EQ(det->epoch(), epoch);
    ASSERT_EQ(det->window_begin(), begin);
    ASSERT_EQ(det->kinds(), kinds);
    ASSERT_EQ(det->distance_computations(), comps);

    const size_t cores = det->num_core();
    const size_t removed_cores = kinds.front() == PointKind::kCore ? 1 : 0;
    ASSERT_TRUE(det->Remove(begin).ok());
    ASSERT_TRUE(twin->ExpireBefore(begin + 1).ok());
    EXPECT_EQ(det->Remove(begin).code(), StatusCode::kNotFound);
    ASSERT_EQ(det->window_begin(), begin + 1);
    ASSERT_EQ(det->kinds(), twin->kinds()) << "removed id " << begin;
    ASSERT_EQ(det->Outliers(), twin->Outliers());
    ASSERT_EQ(det->num_core(), twin->num_core());
    saw_demotion |= det->num_core() + removed_cores < cores;
  }
  EXPECT_TRUE(saw_demotion);
}

// Layout (1D, eps = 1, minPts = 6): four copies of A at 0.0, one helper at
// -0.5, one border point d at 0.95. Each A reaches all six points (count 6,
// core); the helper (count 5) and d (count 5) are border, covered only by
// the A cores. Ids follow insertion: A copies 0..3, helper 4, d 5 — or,
// with `d_first`, d 0 (the oldest id, the one Remove takes), A copies
// 1..4, helper 5.
void BuildCoveredCluster(IncrementalDetector* det, bool d_first = false) {
  const double a[] = {0.0};
  const double helper[] = {-0.5};
  const double d[] = {0.95};
  if (d_first) {
    ASSERT_TRUE(det->Add({d, 1}).ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(det->Add({a, 1}).ok());
  }
  ASSERT_TRUE(det->Add({helper, 1}).ok());
  if (!d_first) {
    ASSERT_TRUE(det->Add({d, 1}).ok());
  }
  ASSERT_EQ(det->num_core(), 4u);
  ASSERT_EQ(det->KindOf(d_first ? 5 : 4), PointKind::kBorder);  // helper
  ASSERT_EQ(det->KindOf(d_first ? 0 : 5), PointKind::kBorder);  // d
}

TEST(IncrementalTest, RemoveCoreDemotesToNonCoreAndUncoversBorders) {
  auto det = IncrementalDetector::Create(1, MakeParams(1.0, 6));
  ASSERT_TRUE(det.ok());
  BuildCoveredCluster(&*det);
  // Removing one A drops every remaining count below minPts: the three
  // surviving A copies demote core -> non-core, and with no cores left the
  // whole live set falls to outlier.
  ASSERT_TRUE(det->Remove(0).ok());
  EXPECT_EQ(det->num_core(), 0u);
  EXPECT_EQ(det->Outliers(), (std::vector<uint64_t>{1, 2, 3, 4, 5}));
}

TEST(IncrementalTest, RemoveBorderCanDemoteCoresItSupported) {
  auto det = IncrementalDetector::Create(1, MakeParams(1.0, 6));
  ASSERT_TRUE(det.ok());
  BuildCoveredCluster(&*det, /*d_first=*/true);
  // d is only a border point, but its neighbor count is what keeps the A
  // copies on the minPts threshold: removing it demotes all four cores and
  // the helper falls border -> outlier with them.
  ASSERT_TRUE(det->Remove(0).ok());
  EXPECT_EQ(det->num_core(), 0u);
  EXPECT_EQ(det->Outliers(), (std::vector<uint64_t>{1, 2, 3, 4, 5}));
}

TEST(IncrementalTest, RemoveThenReinsertRebuildsTheCluster) {
  auto det = IncrementalDetector::Create(1, MakeParams(1.0, 6));
  ASSERT_TRUE(det.ok());
  BuildCoveredCluster(&*det);
  ASSERT_TRUE(det->Remove(0).ok());
  ASSERT_EQ(det->num_core(), 0u);
  EXPECT_EQ(det->Outliers(), (std::vector<uint64_t>{1, 2, 3, 4, 5}));
  // A new copy of A restores every count; labels recover exactly.
  const double a[] = {0.0};
  ASSERT_TRUE(det->Add({a, 1}).ok());  // id 6
  EXPECT_EQ(det->num_core(), 4u);
  EXPECT_EQ(det->KindOf(4), PointKind::kBorder);
  EXPECT_EQ(det->KindOf(5), PointKind::kBorder);
  EXPECT_TRUE(det->Outliers().empty());
}

TEST(IncrementalTest, DuplicateFlood) {
  auto det = IncrementalDetector::Create(3, MakeParams(0.5, 10));
  ASSERT_TRUE(det.ok());
  const double p[] = {1.0, 2.0, 3.0};
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(det->Add({p, 3}).ok());
  }
  EXPECT_EQ(det->num_core(), 25u);
  EXPECT_TRUE(det->Outliers().empty());
  EXPECT_EQ(det->num_cells(), 1u);
}

// Sliding-window turnover at every supported dimension: the stream moves
// between two sites every window, so each turnover empties every cell of
// the old site (erasing it) and re-creates the cells it held two windows
// earlier. After every pass the labels of the live points equal
// DetectSequential on them, and the cell map holds exactly the occupied
// cells — it does not grow with the number of turnovers.
// One batch of a two-site turnover stream: `n` points at `site` along dim
// 0, spanning 4 cells along dim 0 and 2 along dim 1, so every turnover
// creates and erases real cells at every d.
PointSet TurnoverBatch(Rng* rng, size_t dims, double side, double site,
                       size_t n) {
  const uint64_t span0 = 4;
  const uint64_t span1 = dims < 2 ? 1 : 2;
  PointSet batch(dims);
  std::vector<double> p(dims);
  for (size_t i = 0; i < n; ++i) {
    // Cell-aligned offsets plus a jitter inside the cell: uneven cell
    // counts give core, border and outlier points alike.
    const uint64_t k0 = rng->NextBounded(span0);
    const uint64_t k1 = rng->NextBounded(span1);
    p[0] = site + (static_cast<double>(k0) + rng->NextDouble()) * side;
    for (size_t k = 1; k < dims; ++k) {
      p[k] = (k == 1 ? static_cast<double>(k1) * side : 0.0) +
             rng->NextDouble() * side * 0.999;
    }
    batch.Add(p);
  }
  return batch;
}

class WindowTurnoverTest : public ::testing::TestWithParam<size_t> {};

TEST_P(WindowTurnoverTest, LabelsAndCellsTrackTheLiveWindow) {
  const size_t dims = GetParam();
  const Params params = MakeParams(1.0, 4);
  const double side = params.eps / std::sqrt(static_cast<double>(dims));
  auto det = IncrementalDetector::Create(dims, params);
  ASSERT_TRUE(det.ok());
  ThreadPool pool(2);
  Rng rng(0x7a11 + dims);
  constexpr size_t kWindow = 24;
  constexpr size_t kBatch = 8;
  constexpr int kTurnovers = 20;
  PointSet all(dims);
  std::deque<uint32_t> live;
  bool saw_border = false;
  bool saw_outlier = false;
  for (int batch = 0; batch < kTurnovers * static_cast<int>(kWindow / kBatch);
       ++batch) {
    const int turnover = batch / static_cast<int>(kWindow / kBatch);
    const double site = turnover % 2 == 0 ? 0.0 : 40.0;
    const PointSet adds = TurnoverBatch(&rng, dims, side, site, kBatch);
    for (size_t i = 0; i < adds.size(); ++i) {
      all.Add(adds[i]);
      live.push_back(static_cast<uint32_t>(all.size() - 1));
    }
    ASSERT_TRUE(det->AddBatchParallel(adds, &pool).ok());
    while (live.size() > kWindow) {
      ASSERT_TRUE(det->Remove(live.front()).ok());
      live.pop_front();
    }

    PointSet window(dims);
    std::set<std::vector<int64_t>> occupied;
    for (const uint32_t id : live) {
      window.Add(all[id]);
      std::vector<int64_t> cell(dims);
      for (size_t k = 0; k < dims; ++k) {
        cell[k] = static_cast<int64_t>(std::floor(all[id][k] / side));
      }
      occupied.insert(cell);
    }
    auto oracle = DetectSequential(window, params);
    ASSERT_TRUE(oracle.ok());
    for (size_t k = 0; k < live.size(); ++k) {
      ASSERT_EQ(det->KindOf(live[k]), oracle->kinds[k])
          << "d=" << dims << " batch " << batch << " live id " << live[k];
      saw_border |= oracle->kinds[k] == PointKind::kBorder;
      saw_outlier |= oracle->kinds[k] == PointKind::kOutlier;
    }
    ASSERT_EQ(det->num_core(), oracle->num_core) << "batch " << batch;
    ASSERT_EQ(det->num_cells(), occupied.size()) << "batch " << batch;
    ASSERT_EQ(det->SnapshotNow()->num_cells(), occupied.size());
  }
  EXPECT_EQ(det->live_points(), kWindow);
  if (dims <= 5) {
    EXPECT_TRUE(saw_border && saw_outlier) << "d=" << dims;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, WindowTurnoverTest,
                         ::testing::Range(size_t{1}, kMaxDims + 1),
                         [](const auto& info) {
                           std::string name = "d";
                           name += std::to_string(info.param);
                           return name;
                         });

// ---------------------------------------------------------------------------
// ExpireBefore: the detector owns its window. Expired ids hold no row, so
// memory follows the window, not lifetime ingest.
// ---------------------------------------------------------------------------

TEST(ExpireBeforeTest, StartsAtFirstIdAndExpiresAPrefix) {
  auto det = IncrementalDetector::Create(1, MakeParams(1.0, 3), 1000);
  ASSERT_TRUE(det.ok());
  EXPECT_EQ(det->epoch(), 1000u);
  EXPECT_EQ(det->window_begin(), 1000u);
  ASSERT_TRUE(det->ExpireBefore(5).ok());  // below the first id: no-op
  EXPECT_EQ(det->window_begin(), 1000u);
  for (int i = 0; i < 6; ++i) {
    const double p[] = {static_cast<double>(i) * 10.0};  // isolated outliers
    auto id = det->Add({p, 1});
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, 1000u + static_cast<uint64_t>(i));
  }
  EXPECT_EQ(det->Remove(999).code(), StatusCode::kNotFound);
  EXPECT_EQ(det->Remove(1006).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(det->Remove(1001).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(det->Remove(1000).ok());  // the oldest: ExpireBefore(1001)
  EXPECT_EQ(det->window_begin(), 1001u);

  EXPECT_EQ(det->ExpireBefore(1007).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(det->ExpireBefore(1003).ok());
  EXPECT_EQ(det->window_begin(), 1003u);
  EXPECT_EQ(det->live_points(), 3u);
  EXPECT_EQ(det->Outliers(), (std::vector<uint64_t>{1003, 1004, 1005}));
  EXPECT_EQ(det->kinds().size(), 3u);
  EXPECT_EQ(det->Remove(1002).code(), StatusCode::kNotFound);
  ASSERT_TRUE(det->ExpireBefore(1002).ok());  // behind the window: no-op
  EXPECT_EQ(det->window_begin(), 1003u);

  auto snap = det->SnapshotNow();
  EXPECT_EQ(snap->epoch(), 1006u);
  EXPECT_EQ(snap->window_begin(), 1003u);
  EXPECT_EQ(snap->Outliers(), (std::vector<uint64_t>{1003, 1004, 1005}));
  EXPECT_EQ(snap->PointAt(1004)[0], 40.0);
  ASSERT_TRUE(det->ExpireBefore(1006).ok());
  EXPECT_EQ(det->live_points(), 0u);
  EXPECT_EQ(det->num_cells(), 0u);
  EXPECT_EQ(snap->live_points(), 3u);  // the held snapshot is unchanged
  EXPECT_EQ(snap->KindOf(1005), PointKind::kOutlier);
}

TEST(ExpireBeforeTest, RowCapacityIsTwoToTheThirtyTwoInsertions) {
  const uint64_t max = IncrementalDetector::kMaxRows;
  ASSERT_EQ(max, uint64_t{1} << 32);
  EXPECT_TRUE(IncrementalDetector::CheckRowCapacity(max - 2, 1).ok());
  EXPECT_TRUE(IncrementalDetector::CheckRowCapacity(max - 1, 1).ok());
  EXPECT_EQ(IncrementalDetector::CheckRowCapacity(max, 1).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(IncrementalDetector::CheckRowCapacity(0, max).ok());
  EXPECT_EQ(IncrementalDetector::CheckRowCapacity(1, max).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(IncrementalDetector::CheckRowCapacity(max + 1, 0).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(IncrementalDetector::CheckRowCapacity(
                2, std::numeric_limits<uint64_t>::max())
                .code(),
            StatusCode::kOutOfRange);
}

// What a window of kWindow points costs after 2 and after 200 turnovers:
// the detector's held rows and a frozen snapshot's chunk lists are
// window-sized (equal within one chunk per row vector), labels equal
// DetectSequential on the window at every checked turnover, and a
// snapshot frozen before later expiries keeps reading every label and
// coordinate it covered.
TEST(ExpireBeforeTest, TwoHundredTurnoversHoldWhatTwoDo) {
  constexpr size_t kDims = 2;
  constexpr size_t kWindow = 1000;
  constexpr size_t kBatch = 250;
  const Params params = MakeParams(1.0, 5);
  auto det = IncrementalDetector::Create(kDims, params);
  ASSERT_TRUE(det.ok());
  ThreadPool pool(2);
  Rng rng(0x200);
  std::deque<std::vector<double>> window;  // coordinates of the window ids
  struct Held {
    std::shared_ptr<const IncrementalSnapshot> snap;
    std::vector<PointKind> kinds;
    std::vector<std::vector<double>> coords;
  };
  std::vector<Held> held;
  size_t rows_at_2 = 0;
  size_t chunks_at_2 = 0;
  bool saw_border = false;
  bool saw_outlier = false;
  for (int turnover = 1; turnover <= 200; ++turnover) {
    for (size_t b = 0; b < kWindow / kBatch; ++b) {
      const PointSet adds =
          testing::ClusteredPoints(&rng, kBatch, kDims, 3, 0.3);
      ASSERT_TRUE(det->AddBatchParallel(adds, &pool).ok());
      for (size_t i = 0; i < adds.size(); ++i) {
        window.emplace_back(adds[i].begin(), adds[i].end());
      }
      if (turnover == 100 && b == 0) {
        // Frozen before this turnover's expiries release its chunks.
        Held h{det->SnapshotNow(), det->kinds(), {}};
        for (uint64_t id = h.snap->window_begin(); id < h.snap->epoch();
             ++id) {
          const auto p = h.snap->PointAt(id);
          h.coords.emplace_back(p.begin(), p.end());
        }
        held.push_back(std::move(h));
      }
      while (window.size() > kWindow) {
        window.pop_front();
      }
      ASSERT_TRUE(det->ExpireBefore(det->epoch() - window.size()).ok());
    }
    ASSERT_EQ(det->live_points(), kWindow);
    ASSERT_EQ(det->window_begin(), det->epoch() - kWindow);
    const std::shared_ptr<const IncrementalSnapshot> snap = det->SnapshotNow();
    if (turnover == 2) {
      rows_at_2 = det->rows_held();
      chunks_at_2 = snap->chunks_held();
    }
    if (turnover == 200) {
      constexpr size_t kChunk = CowChunkedVector<int>::kChunkSize;
      EXPECT_LE(det->rows_held(), rows_at_2 + kChunk);
      EXPECT_GE(det->rows_held() + kChunk, rows_at_2);
      EXPECT_LE(snap->chunks_held(), chunks_at_2 + 3);
      EXPECT_GE(snap->chunks_held() + 3, chunks_at_2);
    }
    if (turnover == 2 || turnover % 40 == 0) {
      PointSet live(kDims);
      for (const auto& p : window) {
        live.Add(p);
      }
      auto oracle = DetectSequential(live, params);
      ASSERT_TRUE(oracle.ok());
      ASSERT_EQ(snap->Kinds(), oracle->kinds) << "turnover " << turnover;
      ASSERT_EQ(det->num_core(), oracle->num_core) << "turnover " << turnover;
      for (PointKind kind : oracle->kinds) {
        saw_border |= kind == PointKind::kBorder;
        saw_outlier |= kind == PointKind::kOutlier;
      }
    }
  }
  EXPECT_TRUE(saw_border && saw_outlier);
  ASSERT_EQ(held.size(), 1u);
  const Held& h = held.front();
  ASSERT_GT(det->window_begin(), h.snap->epoch());  // its rows all expired
  ASSERT_EQ(h.snap->Kinds(), h.kinds);
  for (uint64_t id = h.snap->window_begin(); id < h.snap->epoch(); ++id) {
    const auto p = h.snap->PointAt(id);
    ASSERT_TRUE(std::equal(p.begin(), p.end(),
                           h.coords[id - h.snap->window_begin()].begin()))
        << "id " << id;
  }
}

// ---------------------------------------------------------------------------
// Held snapshots: a snapshot keeps answering for its own epoch while the
// detector applies later passes (inserts, removals, cells created and
// erased), and its probe classification and scores are exact.
// ---------------------------------------------------------------------------

// Definition 8 on the cells of two points: sum_i max(0,|j_i|-1)^2 < d.
bool CellsAreNeighbors(std::span<const double> a, std::span<const double> b,
                       double side) {
  const size_t d = a.size();
  int64_t gap = 0;
  for (size_t k = 0; k < d; ++k) {
    const int64_t j = static_cast<int64_t>(std::floor(a[k] / side)) -
                      static_cast<int64_t>(std::floor(b[k] / side));
    const int64_t m = j < 0 ? -j : j;
    if (m > 1) {
      gap += (m - 1) * (m - 1);
    }
  }
  return gap < static_cast<int64_t>(d);
}

// Nearest distance from x to a point of `points` marked core in `kinds`
// whose cell neighbors x's cell (+infinity when there is none).
double BruteForceNearestCore(std::span<const double> x, const PointSet& points,
                             const std::vector<PointKind>& kinds,
                             double side) {
  double best2 = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < points.size(); ++j) {
    if (kinds[j] == PointKind::kCore && CellsAreNeighbors(x, points[j], side)) {
      best2 = std::min(best2, PointSet::SquaredDistance(x, points[j]));
    }
  }
  return std::sqrt(best2);
}

// The live points of a snapshot (its window), with their ids.
PointSet LivePointsOf(const IncrementalSnapshot& snap,
                      std::vector<uint32_t>* ids) {
  PointSet live(snap.dims());
  for (uint64_t i = snap.window_begin(); i < snap.epoch(); ++i) {
    live.Add(snap.PointAt(i));
    ids->push_back(static_cast<uint32_t>(i));
  }
  return live;
}

// A probe near one of the two turnover sites, landing in occupied and
// empty cells alike.
std::vector<double> TurnoverProbe(Rng* rng, size_t dims, double side) {
  std::vector<double> p(dims);
  const double site = rng->NextBounded(2) == 0 ? 0.0 : 40.0;
  p[0] = site + (rng->NextDouble() * 8.0 - 2.0) * side;
  for (size_t k = 1; k < dims; ++k) {
    p[k] = (rng->NextDouble() * (k == 1 ? 4.0 : 2.0) - 1.0) * side;
  }
  return p;
}

// Classify(probe) against a snapshot equals the brute-force label of the
// probe among the snapshot's live points plus the probe, and its score is
// the nearest core of that set in a Definition 8 neighbor cell.
void ExpectProbeExact(const IncrementalSnapshot& snap, const PointSet& live,
                      std::span<const double> probe, const Params& params,
                      double side) {
  PointSet with = live;
  with.Add(probe);
  const std::vector<PointKind> kinds =
      testing::BruteForceKinds(with, params.eps, params.min_pts);
  auto got = snap.Classify(probe, /*want_score=*/true);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->kind, kinds.back());
  const double want_score =
      kinds.back() == PointKind::kCore
          ? 0.0
          : BruteForceNearestCore(probe, live, kinds, side);
  EXPECT_EQ(got->score, want_score);
}

struct HeldSnapshot {
  std::shared_ptr<const IncrementalSnapshot> snap;
  size_t num_cells = 0;
  std::vector<PointKind> kinds;  // the window's ids, parallel to live_ids
  std::vector<uint64_t> outliers;
  std::vector<uint32_t> live_ids;
  PointSet live;
};

// The held snapshot still reports what it reported when taken. With
// `probes`, also checks every live point's NearestCoreDistance and 20
// probe classifications against brute force.
void ExpectStillExact(const HeldSnapshot& held, const Params& params,
                      double side, Rng* rng, bool probes) {
  const IncrementalSnapshot& snap = *held.snap;
  ASSERT_EQ(snap.num_cells(), held.num_cells);
  ASSERT_EQ(snap.live_points(), held.live_ids.size());
  for (size_t k = 0; k < held.live_ids.size(); ++k) {
    ASSERT_EQ(snap.KindOf(held.live_ids[k]), held.kinds[k])
        << "id " << held.live_ids[k];
  }
  ASSERT_EQ(snap.Outliers(), held.outliers);
  if (!probes) {
    return;
  }
  for (size_t k = 0; k < held.live_ids.size(); ++k) {
    uint64_t comps = 0;
    const double want =
        held.kinds[k] == PointKind::kCore
            ? 0.0
            : BruteForceNearestCore(held.live[k], held.live, held.kinds,
                                    side);
    EXPECT_EQ(snap.NearestCoreDistance(held.live_ids[k], &comps), want)
        << "id " << held.live_ids[k];
  }
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> probe =
        TurnoverProbe(rng, snap.dims(), side);
    ExpectProbeExact(snap, held.live, probe, params, side);
  }
}

class HeldSnapshotTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HeldSnapshotTest, StayExactAcrossLaterPasses) {
  const size_t dims = GetParam();
  const Params params = MakeParams(1.0, 4);
  const double side = params.eps / std::sqrt(static_cast<double>(dims));
  auto det = IncrementalDetector::Create(dims, params);
  ASSERT_TRUE(det.ok());
  ThreadPool pool(2);
  Rng rng(0x5a4e + dims);
  constexpr size_t kWindow = 24;
  constexpr size_t kBatch = 8;
  constexpr size_t kHeld = 4;
  std::deque<uint32_t> live;
  std::deque<HeldSnapshot> held;
  uint32_t next_id = 0;
  for (int pass = 0; pass < 36; ++pass) {
    // A pass: one batch at the current site, then expiry to the window.
    const double site = (pass / 3) % 2 == 0 ? 0.0 : 40.0;
    const PointSet adds = TurnoverBatch(&rng, dims, side, site, kBatch);
    ASSERT_TRUE(det->AddBatchParallel(adds, &pool).ok());
    for (size_t i = 0; i < adds.size(); ++i) {
      live.push_back(next_id++);
    }
    while (live.size() > kWindow) {
      ASSERT_TRUE(det->Remove(live.front()).ok());
      live.pop_front();
    }
    // Every held snapshot after every later pass; the oldest, which has
    // seen kHeld later passes, also answers probes before it is dropped.
    for (const HeldSnapshot& h : held) {
      const bool oldest = &h == &held.front() && held.size() == kHeld;
      ExpectStillExact(h, params, side, &rng, oldest);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "d=" << dims << " pass " << pass << ", snapshot of epoch "
               << h.snap->epoch();
      }
    }
    if (held.size() == kHeld) {
      held.pop_front();
    }

    HeldSnapshot h;
    h.snap = det->SnapshotNow();
    h.num_cells = det->num_cells();
    h.kinds = det->kinds();
    h.outliers = det->Outliers();
    h.live = LivePointsOf(*h.snap, &h.live_ids);
    ASSERT_EQ(h.live_ids, std::vector<uint32_t>(live.begin(), live.end()));
    const std::vector<PointKind> oracle =
        testing::BruteForceKinds(h.live, params.eps, params.min_pts);
    ASSERT_EQ(h.kinds, oracle) << "d=" << dims << " pass " << pass;
    held.push_back(std::move(h));
  }
  for (const HeldSnapshot& h : held) {
    ExpectStillExact(h, params, side, &rng, /*probes=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, HeldSnapshotTest,
                         ::testing::Range(size_t{1}, kMaxDims + 1),
                         [](const auto& info) {
                           std::string name = "d";
                           name += std::to_string(info.param);
                           return name;
                         });

// Two readers classify whatever snapshot is published while the writer
// applies passes and publishes after each one, as the detection service
// does; every answer must be exact for the snapshot it was read from.
// Runs in the TSan stage (label core).
TEST(HeldSnapshotTest, ReadersClassifyWhileWriterApplies) {
  constexpr size_t kDims = 3;
  const Params params = MakeParams(1.0, 4);
  const double side = params.eps / std::sqrt(static_cast<double>(kDims));
  auto det = IncrementalDetector::Create(kDims, params);
  ASSERT_TRUE(det.ok());
  std::atomic<std::shared_ptr<const IncrementalSnapshot>> published(
      det->SnapshotNow());
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> reads{0};
  ThreadPool readers(2);
  for (int r = 0; r < 2; ++r) {
    readers.Submit([&, r] {
      Rng rng(0xbead + static_cast<uint64_t>(r));
      // At least a few reads even when the writer finishes first.
      for (int i = 0; i < 8 || !done.load(std::memory_order_acquire); ++i) {
        const std::shared_ptr<const IncrementalSnapshot> snap =
            published.load(std::memory_order_acquire);
        std::vector<uint32_t> ids;
        const PointSet live = LivePointsOf(*snap, &ids);
        const std::vector<double> probe = TurnoverProbe(&rng, kDims, side);
        PointSet with = live;
        with.Add(probe);
        const std::vector<PointKind> kinds =
            testing::BruteForceKinds(with, params.eps, params.min_pts);
        auto got = snap->Classify(probe, /*want_score=*/true);
        if (!got.ok() || got->kind != kinds.back()) {
          mismatches.fetch_add(1);
        }
        const std::vector<PointKind> live_kinds =
            testing::BruteForceKinds(live, params.eps, params.min_pts);
        for (size_t k = 0; k < ids.size(); ++k) {
          if (snap->KindOf(ids[k]) != live_kinds[k]) {
            mismatches.fetch_add(1);
          }
        }
        reads.fetch_add(1);
      }
    });
  }
  ThreadPool writer_pool(2);
  Rng rng(0x3717);
  std::deque<uint32_t> live;
  uint32_t next_id = 0;
  for (int pass = 0; pass < 60; ++pass) {
    const double site = (pass / 3) % 2 == 0 ? 0.0 : 40.0;
    const PointSet adds = TurnoverBatch(&rng, kDims, side, site, 8);
    ASSERT_TRUE(det->AddBatchParallel(adds, &writer_pool).ok());
    for (size_t i = 0; i < adds.size(); ++i) {
      live.push_back(next_id++);
    }
    while (live.size() > 24) {
      ASSERT_TRUE(det->Remove(live.front()).ok());
      live.pop_front();
    }
    published.store(det->SnapshotNow(), std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  readers.WaitIdle();
  EXPECT_GE(reads.load(), 16);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace dbscout::core
