#include "data/point_set.h"

#include <gtest/gtest.h>

namespace dbscout {
namespace {

TEST(PointSetTest, EmptyByDefault) {
  PointSet ps(3);
  EXPECT_EQ(ps.dims(), 3u);
  EXPECT_EQ(ps.size(), 0u);
  EXPECT_TRUE(ps.empty());
}

TEST(PointSetTest, AddAndAccess) {
  PointSet ps(2);
  ps.Add({1.0, 2.0});
  ps.Add({3.0, 4.0});
  EXPECT_EQ(ps.size(), 2u);
  EXPECT_DOUBLE_EQ(ps.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(ps.at(1, 1), 4.0);
  const auto p1 = ps[1];
  EXPECT_DOUBLE_EQ(p1[0], 3.0);
}

TEST(PointSetTest, FromRowMajorValidatesShape) {
  auto ok = PointSet::FromRowMajor(2, {1, 2, 3, 4});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 2u);

  auto bad = PointSet::FromRowMajor(3, {1, 2, 3, 4});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  auto zero_dims = PointSet::FromRowMajor(0, {});
  EXPECT_FALSE(zero_dims.ok());
}

TEST(PointSetTest, SquaredDistance) {
  PointSet ps(2);
  ps.Add({0.0, 0.0});
  ps.Add({3.0, 4.0});
  EXPECT_DOUBLE_EQ(ps.SquaredDistance(0, 1), 25.0);
  EXPECT_DOUBLE_EQ(ps.SquaredDistance(0, 0), 0.0);
}

TEST(PointSetTest, AppendConcatenates) {
  PointSet a(2);
  a.Add({1, 1});
  PointSet b(2);
  b.Add({2, 2});
  b.Add({3, 3});
  a.Append(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.at(2, 0), 3.0);
}

TEST(PointSetTest, BoundsComputeMinMaxPerDimension) {
  PointSet ps(2);
  ps.Add({-1.0, 5.0});
  ps.Add({3.0, -2.0});
  ps.Add({0.0, 0.0});
  const auto box = ps.Bounds();
  EXPECT_DOUBLE_EQ(box.min[0], -1.0);
  EXPECT_DOUBLE_EQ(box.max[0], 3.0);
  EXPECT_DOUBLE_EQ(box.min[1], -2.0);
  EXPECT_DOUBLE_EQ(box.max[1], 5.0);
}

}  // namespace
}  // namespace dbscout
