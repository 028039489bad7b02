#include "common/cow.h"

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace dbscout {
namespace {

TEST(CowChunkedVectorTest, PushAndRead) {
  CowChunkedVector<uint32_t> v;
  EXPECT_TRUE(v.empty());
  for (uint32_t i = 0; i < 3000; ++i) {
    v.PushBack(i * 7);
  }
  EXPECT_EQ(v.size(), 3000u);
  for (uint32_t i = 0; i < 3000; ++i) {
    ASSERT_EQ(v[i], i * 7);
  }
}

TEST(CowChunkedVectorTest, SetOverwrites) {
  CowChunkedVector<int> v;
  for (int i = 0; i < 100; ++i) {
    v.PushBack(i);
  }
  v.Set(0, -1);
  v.Set(99, -2);
  EXPECT_EQ(v[0], -1);
  EXPECT_EQ(v[99], -2);
  EXPECT_EQ(v[50], 50);
}

TEST(CowChunkedVectorTest, FrozenViewKeepsPreFreezeContents) {
  CowChunkedVector<int> v;
  // Span three chunks so Set() hits both a shared middle chunk and the
  // shared tail chunk.
  const size_t n = 2 * CowChunkedVector<int>::kChunkSize + 17;
  for (size_t i = 0; i < n; ++i) {
    v.PushBack(static_cast<int>(i));
  }
  auto frozen = v.Freeze();
  ASSERT_EQ(frozen.size(), n);

  v.Set(3, -3);                                           // first chunk
  v.Set(CowChunkedVector<int>::kChunkSize + 5, -5);       // middle chunk
  v.Set(n - 1, -7);                                       // tail chunk
  EXPECT_EQ(frozen[3], 3);
  EXPECT_EQ(frozen[CowChunkedVector<int>::kChunkSize + 5],
            static_cast<int>(CowChunkedVector<int>::kChunkSize + 5));
  EXPECT_EQ(frozen[n - 1], static_cast<int>(n - 1));
  // The writer sees its own updates.
  EXPECT_EQ(v[3], -3);
  EXPECT_EQ(v[n - 1], -7);
}

TEST(CowChunkedVectorTest, AppendsAfterFreezeInvisibleToView) {
  CowChunkedVector<int> v;
  for (int i = 0; i < 10; ++i) {
    v.PushBack(i);
  }
  auto frozen = v.Freeze();
  for (int i = 0; i < 5000; ++i) {
    v.PushBack(1000 + i);  // same chunk first, then fresh chunks
  }
  EXPECT_EQ(frozen.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(frozen[i], i);
  }
  EXPECT_EQ(v.size(), 5010u);
}

TEST(CowChunkedVectorTest, SecondWriteToClonedChunkDoesNotCloneAgain) {
  // After the first post-freeze Set clones a chunk, the writer owns it:
  // further writes land in place and older frozen views stay intact.
  CowChunkedVector<int> v;
  for (int i = 0; i < 8; ++i) {
    v.PushBack(i);
  }
  auto f1 = v.Freeze();
  v.Set(1, 100);
  v.Set(2, 200);
  auto f2 = v.Freeze();
  v.Set(1, 111);
  EXPECT_EQ(f1[1], 1);
  EXPECT_EQ(f1[2], 2);
  EXPECT_EQ(f2[1], 100);
  EXPECT_EQ(f2[2], 200);
  EXPECT_EQ(v[1], 111);
}

TEST(CowChunkedVectorTest, ManyGenerationsStayIndependent) {
  CowChunkedVector<int> v;
  v.PushBack(0);
  std::vector<CowChunkedVector<int>::Frozen> views;
  for (int gen = 1; gen <= 20; ++gen) {
    views.push_back(v.Freeze());
    v.Set(0, gen);
  }
  for (int gen = 1; gen <= 20; ++gen) {
    ASSERT_EQ(views[gen - 1][0], gen - 1) << "generation " << gen;
  }
  EXPECT_EQ(v[0], 20);
}

TEST(CowChunkedVectorTest, MoveTransfersContentsAndViewsSurvive) {
  CowChunkedVector<int> v;
  for (int i = 0; i < 2000; ++i) {
    v.PushBack(i);
  }
  auto frozen = v.Freeze();
  v.Set(7, -7);
  CowChunkedVector<int> moved = std::move(v);
  EXPECT_EQ(moved.size(), 2000u);
  EXPECT_EQ(moved[7], -7);
  EXPECT_EQ(moved[1500], 1500);
  moved.Set(8, -8);
  moved.PushBack(9999);
  EXPECT_EQ(moved[2000], 9999);
  EXPECT_EQ(frozen[7], 7);
  EXPECT_EQ(frozen[8], 8);
}

TEST(CowChunkedVectorTest, DisjointConcurrentSetsLandAndViewsStayIntact) {
  // The slab-wave apply pipeline's contract: between structural operations,
  // worker threads may Set/read disjoint index ranges concurrently. Every
  // chunk here is shared with a frozen view, so first-touch clones race on
  // the clone mutex; all writes must land and the view must be unchanged.
  constexpr size_t kThreads = 4;
  constexpr size_t kChunks = 8;
  constexpr size_t kN = kChunks * CowChunkedVector<uint32_t>::kChunkSize;
  CowChunkedVector<uint32_t> v;
  for (size_t i = 0; i < kN; ++i) {
    v.PushBack(static_cast<uint32_t>(i));
  }
  auto frozen = v.Freeze();

  ThreadPool pool(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    pool.Submit([&v, t] {
      // Stride across chunks so every thread touches every chunk and the
      // first-touch clone path is contended.
      for (size_t i = t; i < kN; i += kThreads) {
        v.Set(i, static_cast<uint32_t>(i) * 3 + 1);
        // Read back an index this thread owns (racing only with clones).
        if (v[i] != static_cast<uint32_t>(i) * 3 + 1) {
          ADD_FAILURE() << "lost write at " << i;
          return;
        }
      }
    });
  }
  pool.WaitIdle();

  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(v[i], static_cast<uint32_t>(i) * 3 + 1) << "index " << i;
    ASSERT_EQ(frozen[i], static_cast<uint32_t>(i)) << "index " << i;
  }
  // Structural ops still work after the concurrent phase, and the next
  // freeze observes the new contents.
  auto frozen2 = v.Freeze();
  v.Set(0, 42);
  EXPECT_EQ(frozen2[0], 1u);
  EXPECT_EQ(v[0], 42u);
}

// Dropping a whole-chunk prefix keeps every index in place, writes and
// appends still land, and a view frozen before the drop keeps reading
// the released chunks.
TEST(CowChunkedVectorTest, DropChunksBelowKeepsIndicesAndFrozenViews) {
  constexpr size_t kChunk = CowChunkedVector<int>::kChunkSize;
  CowChunkedVector<int> v;
  for (size_t i = 0; i < 3 * kChunk + 5; ++i) {
    v.PushBack(static_cast<int>(i));
  }
  const CowChunkedVector<int>::Frozen before = v.Freeze();
  v.DropChunksBelow(2 * kChunk - 1);  // only chunk 0 lies wholly below
  EXPECT_EQ(v.held_begin(), kChunk);
  v.DropChunksBelow(kChunk);  // nothing more to drop
  EXPECT_EQ(v.held_begin(), kChunk);
  v.DropChunksBelow(2 * kChunk + 7);
  EXPECT_EQ(v.held_begin(), 2 * kChunk);
  EXPECT_EQ(v.size(), 3 * kChunk + 5);
  v.Set(2 * kChunk, -1);
  v.PushBack(-2);
  EXPECT_EQ(v[2 * kChunk], -1);
  EXPECT_EQ(v[3 * kChunk + 5], -2);
  EXPECT_EQ(v[3 * kChunk + 4], static_cast<int>(3 * kChunk + 4));
  const CowChunkedVector<int>::Frozen after = v.Freeze();
  EXPECT_EQ(after.chunks_held(), 2u);
  EXPECT_EQ(before.chunks_held(), 4u);
  for (size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(before[i], static_cast<int>(i));
  }
  v.DropChunksBelow(v.size());  // every full chunk; the partial one stays
  EXPECT_EQ(v.held_begin(), 3 * kChunk);
  EXPECT_EQ(v.Freeze().chunks_held(), 1u);
}

TEST(ChunkedRowsTest, DropChunksBelowKeepsIndicesAndFrozenViews) {
  constexpr size_t kChunk = ChunkedRows::kRowsPerChunk;
  ChunkedRows rows(2);
  for (size_t i = 0; i < 2 * kChunk + 3; ++i) {
    const double row[] = {static_cast<double>(i), -static_cast<double>(i)};
    rows.PushBack(row);
  }
  const ChunkedRows::Frozen before = rows.Freeze();
  rows.DropChunksBelow(kChunk + 1);
  const double last[] = {9.0, 9.5};
  rows.PushBack(last);
  EXPECT_EQ(rows.size(), 2 * kChunk + 4);
  EXPECT_EQ(rows[kChunk][0], static_cast<double>(kChunk));
  EXPECT_EQ(rows[2 * kChunk + 3][1], 9.5);
  EXPECT_EQ(rows.Freeze().chunks_held(), 2u);
  EXPECT_EQ(before.chunks_held(), 3u);
  for (size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(before[i][1], -static_cast<double>(i));
  }
}

TEST(ChunkedRowsTest, RowsRoundTrip) {
  ChunkedRows rows(3);
  EXPECT_EQ(rows.width(), 3u);
  for (size_t i = 0; i < 2000; ++i) {
    const double row[] = {static_cast<double>(i), i + 0.5, -1.0 * i};
    rows.PushBack({row, 3});
  }
  ASSERT_EQ(rows.size(), 2000u);
  for (size_t i = 0; i < 2000; ++i) {
    auto row = rows[i];
    ASSERT_EQ(row.size(), 3u);
    ASSERT_EQ(row[0], static_cast<double>(i));
    ASSERT_EQ(row[1], i + 0.5);
    ASSERT_EQ(row[2], -1.0 * i);
  }
}

TEST(ChunkedRowsTest, FrozenViewSharesRowsAndIgnoresAppends) {
  ChunkedRows rows(2);
  const double a[] = {1.0, 2.0};
  rows.PushBack({a, 2});
  auto frozen = rows.Freeze();
  const double b[] = {3.0, 4.0};
  for (int i = 0; i < 3000; ++i) {
    rows.PushBack({b, 2});
  }
  ASSERT_EQ(frozen.size(), 1u);
  EXPECT_EQ(frozen.width(), 2u);
  EXPECT_EQ(frozen[0][0], 1.0);
  EXPECT_EQ(frozen[0][1], 2.0);
  EXPECT_EQ(rows.size(), 3001u);
}

}  // namespace
}  // namespace dbscout
